import xml.etree.ElementTree as ET
from importlib.resources import files

import numpy as np
import pytest

import ineqbridge.mc_harness as mc
from ineqbridge import GammaParams, cli, g_hat, gamma_hoover, gamma_index, gamma_sample, h_hat, i_hat_fast
from ineqbridge.cli import main
from ineqbridge.index_core import lambda_grid

FIXTURE = str(files("ineqbridge").joinpath("data/gdp_per_capita_americas.csv"))

FIXTURE_ESTIMATE = """\
Measure,Value
Hoover,0.23264460253738242
I_0.1,0.23450690291972806
I_0.5,0.26193435247126323
I_0.9,0.31615553941010516
Gini,0.33228723205357957
lambda,value
0,0.23264460253738242
0.05,0.23321672592056764
0.1,0.23450690291972806
0.15,0.23636680356970644
0.2,0.23868415579235644
0.25,0.24134615629759859
0.3,0.24439679108595716
0.35,0.24810298271126729
0.4,0.25222075361783852
0.45,0.25680528814194276
0.5,0.26193435247126323
0.55,0.26738064094745306
0.6,0.27321909353497359
0.65,0.27960625401677797
0.7,0.28635930063557524
0.75,0.29341083393472217
0.8,0.30074095966338682
0.85,0.30838044024494859
0.9,0.31615553941010516
0.95,0.32409244949404015
1,0.33228723205357957
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--alpha", "0.5", "--lambda", "0.25")
        assert code == 0
        assert abs(float(out.strip()) - 0.4959) <= 5e-5
        code, out, _ = run_cli(capsys, "index", "--alpha", "50", "--lambda", "0.01")
        assert code == 0
        assert out.strip() == "0.056328"

    def test_gini_flag(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--alpha", "1", "--gini")
        assert code == 0
        assert out.strip() == "0.500000"

    def test_hoover_flag(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--alpha", "1", "--hoover")
        assert code == 0
        assert float(out.strip()) == pytest.approx(gamma_hoover(1.0), abs=1e-6)

    def test_endpoint_weights_match_endpoint_flags(self, capsys):
        for lam, flag in (("0", "--hoover"), ("1", "--gini")):
            _, by_weight, _ = run_cli(capsys, "index", "--alpha", "0.5", "--lambda", lam, "--digits", "13")
            _, by_flag, _ = run_cli(capsys, "index", "--alpha", "0.5", flag, "--digits", "13")
            assert by_weight == by_flag

    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--alpha", "2", "--grid", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,value"
        assert len(lines) == 6
        lams = [float(l.split(",")[0]) for l in lines[1:]]
        assert lams == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("grid", [5, 21])
    def test_grid_values_are_gamma_index_bit_for_bit(self, capsys, grid):
        # 30 decimals carry at least 17 significant digits of values above 1e-13
        code, out, _ = run_cli(capsys, "index", "--alpha", "0.5", "--grid", str(grid), "--digits", "30")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [lam for lam, _ in rows] == [f"{lam:g}" for lam in lambda_grid(grid)]
        assert [float(v) for _, v in rows] == [gamma_index(0.5, lam) for lam in lambda_grid(grid)]

    def test_grid_failure_names_lambda_and_prints_nothing(self, capsys, monkeypatch):
        def failing_past_half(alpha, lam):
            if lam > 0.5:
                raise RuntimeError("no convergence")
            return gamma_index(alpha, lam)

        monkeypatch.setattr(cli, "gamma_index", failing_past_half)
        code, out, err = run_cli(capsys, "index", "--alpha", "2", "--grid", "5")
        assert (code, out) == (1, "")
        assert err == "error: alpha=2.0 grid=5: lambda=0.75: no convergence\n"
        code, out, err = run_cli(capsys, "index", "--alpha", "2", "--grid", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: alpha=2.0 grid=1: grid_size must be an integer >= 2, got 1"), err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["index", "--alpha", "2"])  # no mode selected
        assert exc.value.code == 2

    def test_numeric_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "index", "--alpha", "-3", "--lambda", "0.5")
        assert code == 1
        assert "alpha" in err

    def test_failure_names_weight_or_grid(self, capsys):
        for mode, named in ((["--hoover"], "lambda=0.0:"), (["--gini"], "lambda=1.0:"),
                            (["--lambda", "0.5"], "lambda=0.5:"), (["--grid", "3"], "grid=3:")):
            code, _, err = run_cli(capsys, "index", "--alpha", "-1", *mode)
            assert code == 1
            assert err.startswith(f"error: alpha=-1.0 {named} "), err
            assert "shape must be" in err


class TestEstimateCommand:
    def test_bundled_snapshot_ordering_and_endpoints(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--input", FIXTURE,
                                 "--column", "gdp_per_capita_ppp", "--digits", "9")
        assert code == 0
        assert "skipped 2" in err
        rows = {}
        for line in out.strip().split("\n")[1:]:
            name, value = line.split()
            rows[name] = float(value)
        order = ["Hoover", "I_0.25", "I_0.5", "I_0.75", "Gini"]
        vals = [rows[k] for k in order]
        assert vals == sorted(vals)

    def test_two_row_file(self, tmp_path, capsys):
        f = tmp_path / "two.csv"
        f.write_text("v\n1\n3\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", str(f),
                               "--column", "v", "--lambdas", "1")
        assert code == 0
        rows = dict(line.split() for line in out.strip().split("\n")[1:])
        assert rows["I_1"] == "0.500"

    def test_identical_values(self, tmp_path, capsys):
        f = tmp_path / "flat.csv"
        f.write_text("v\n4\n4\n4\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", str(f), "--column", "v")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert line.split()[1] == "0.000"

    def test_overflowing_sample_is_an_error(self, tmp_path, capsys):
        f = tmp_path / "huge.csv"
        f.write_text("v\n1e308\n1e308\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(f), "--column", "v")
        assert (code, out) == (1, "")
        assert err == "error: sample values too large: a sum over the sample overflows a float\n"

    def test_missing_column(self, tmp_path, capsys):
        f = tmp_path / "x.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(f), "--column", "zzz")
        assert code == 1
        assert "zzz" in err

    def test_too_few_rows(self, tmp_path, capsys):
        f = tmp_path / "x.csv"
        f.write_text("a\n1\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(f), "--column", "a")
        assert code == 1
        assert "2" in err

    def test_csv_format(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("v\n1\n2\n3\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", str(f), "--column", "v",
                               "--format", "csv", "--lambdas", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "Measure,Value"
        assert lines[2].startswith("I_0.5,")

    def test_path_and_svg(self, tmp_path, capsys):
        svg = tmp_path / "path.svg"
        code, out, _ = run_cli(capsys, "estimate", "--input", FIXTURE,
                               "--column", "gdp_per_capita_ppp", "--path", "9",
                               "--svg", str(svg), "--quiet")
        assert code == 0
        assert "lambda,value" in out
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert len(polylines[0].attrib["points"].split()) == 9

    def test_svg_requires_path(self, tmp_path, capsys):
        # checked before the input is read, and nothing reaches stdout
        for source in (FIXTURE, str(tmp_path / "missing.csv")):
            code, out, err = run_cli(capsys, "estimate", "--input", source,
                                     "--column", "gdp_per_capita_ppp", "--svg",
                                     str(tmp_path / "x.svg"), "--quiet")
            assert code == 1
            assert "--path" in err
            assert out == ""
        assert not (tmp_path / "x.svg").exists()

    def test_bad_path_prints_nothing(self, capsys):
        for size in ("1", "0", "-3"):
            code, out, err = run_cli(capsys, "estimate", "--input", FIXTURE,
                                     "--column", "gdp_per_capita_ppp", "--path", size, "--quiet")
            assert code == 1
            assert f"grid_size must be an integer >= 2, got {size}" in err
            assert out == ""

    def test_fixture_output_is_unchanged(self, capsys):
        # recorded from the one-call-per-weight CLI; the rows and the path
        # now come from one i_hat_fast call over all 24 weights
        code, out, err = run_cli(capsys, "estimate", "--input", FIXTURE,
                                 "--column", "gdp_per_capita_ppp", "--path", "21",
                                 "--lambdas", "0.1,0.5,0.9", "--format", "csv", "--digits", "17")
        assert code == 0
        assert err == "skipped 2 row(s) with missing or non-numeric 'gdp_per_capita_ppp'\n"
        assert out == FIXTURE_ESTIMATE

    def test_unusable_cells_are_skipped(self, tmp_path, capsys):
        # -0.0 is a usable zero; infinities, nan, negatives and text are not
        f = tmp_path / "cells.csv"
        f.write_text("v\n1\ninf\n3\nnan\n-2\n-0.0\n-inf\n1e400\nabc\nInfinity\n-1e-300\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(f), "--column", "v",
                                 "--lambdas", "0.5", "--format", "csv", "--digits", "17")
        assert code == 0
        assert "skipped 8 row(s)" in err
        usable = [1.0, 3.0, -0.0]
        assert out.splitlines()[1:] == [f"Hoover,{h_hat(usable):.17f}",
                                        f"I_0.5,{i_hat_fast(usable, 0.5):.17f}",
                                        f"Gini,{g_hat(usable):.17f}"]

    def test_blank_rows_are_not_counted(self, tmp_path, capsys):
        # blank, whitespace-only and short blank rows are passed over; a bad
        # cell, or a blank cell beside a filled one, counts as skipped
        f = tmp_path / "rows.csv"
        f.write_text("id,v\n0,1\n\n   \n , \n,\n1,abc\n2,  \n3,4\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(f), "--column", "v",
                                 "--lambdas", "0.5", "--format", "csv", "--digits", "17")
        assert code == 0
        assert err == "skipped 2 row(s) with missing or non-numeric 'v'\n"
        assert out.splitlines()[1] == f"Hoover,{h_hat([1.0, 4.0]):.17f}"

    def test_short_row_is_an_error(self, tmp_path, capsys):
        f = tmp_path / "short.csv"
        f.write_text("id,v\n0,1\n7\n2,3\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(f), "--column", "v")
        assert code == 1
        assert "row 3: too few fields" in err
        assert out == ""


class TestBiasCommand:
    def test_gini_weight(self, capsys):
        code, out, _ = run_cli(capsys, "bias", "--alpha", "2", "--lambda", "1", "--n", "17")
        assert code == 0
        assert "bias      0.000000" in out
        code, out, _ = run_cli(capsys, "bias", "--alpha", "0.5", "--lambda", "1", "--n", "10",
                               "--digits", "13")
        assert code == 0
        truth, expected, b = (line.split()[1] for line in out.strip().split("\n"))
        assert truth == expected
        assert b == "0.0000000000000"

    def test_reference_cell(self, capsys):
        code, out, _ = run_cli(capsys, "bias", "--alpha", "0.5", "--lambda", "0.25", "--n", "10")
        assert code == 0
        b = float(out.strip().split("\n")[2].split()[1])
        assert abs(b - (-0.0156)) <= 0.009
        code, out, _ = run_cli(capsys, "bias", "--alpha", "10", "--lambda", "0.01", "--n", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1:] == ["E[I_hat]  0.118816", "bias      -0.006300"]

    def test_large_shape_expectation(self, capsys):
        # the gamma-sum law is a narrow spike here; the Beta-mixture oracle gives 0.0140679508
        code, out, _ = run_cli(capsys, "bias", "--alpha", "1000", "--lambda", "0.5", "--n", "40")
        assert code == 0
        assert out.strip().split("\n")[1] == "E[I_hat]  0.014068"

    def test_small_shape_near_gini_weight(self, capsys):
        # the gamma sum's convolution conditions on a shape below 1 here; the mpmath
        # mixture oracle gives 0.99756061002950
        code, out, _ = run_cli(capsys, "bias", "--alpha", "0.001", "--lambda", "0.99", "--n", "10")
        assert code == 0
        assert out.strip().split("\n")[1] == "E[I_hat]  0.997561"

    def test_pair_hoover_expectation(self, capsys):
        code, out, _ = run_cli(capsys, "bias", "--alpha", "1", "--lambda", "0", "--n", "2")
        assert code == 0
        e = float(out.strip().split("\n")[1].split()[1])
        assert e == pytest.approx(0.25, abs=1e-6)

    def test_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "bias", "--alpha", "1", "--lambda", "0.5", "--n", "1")
        assert code == 1
        assert "n=1" in err


class TestSimulateCommand:
    def test_deterministic_csv(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["simulate", "--alpha", "0.5,1", "--lambda", "0.25", "--n", "10",
                "--reps", "30", "--seed", "42"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().split("\n")
        assert lines[0] == "alpha,lambda,n,R,seed,truth,mean,bias,mse,variance"
        assert len(lines) == 3

    def test_degenerate_flag_in_table(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--alpha", "1", "--lambda", "0.5",
                               "--n", "10", "--reps", "1", "--seed", "3")
        assert code == 0
        assert "*" in out

    def test_compare_j_columns(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--alpha", "2", "--lambda", "0.5",
                               "--n", "15", "--reps", "40", "--seed", "5", "--compare-j")
        assert code == 0
        assert "BiasJ" in out

    def test_compare_j_leaves_the_csv_alone(self, tmp_path, capsys):
        args = ["simulate", "--alpha", "0.5,2", "--lambda", "0,0.3,1", "--n", "10,25",
                "--reps", "40", "--seed", "8", "--digits", "17"]
        plain, compared = tmp_path / "plain.csv", tmp_path / "compared.csv"
        assert run_cli(capsys, *args, "--out", str(plain))[0] == 0
        mc._scenario.cache_clear()  # so that the second run makes its own passes
        code, out, _ = run_cli(capsys, *args, "--out", str(compared), "--compare-j")
        assert code == 0
        assert plain.read_bytes() == compared.read_bytes()
        header, *rows = [line.split() for line in out.strip().split("\n")]
        assert len(rows) == 12
        bias, bias_i = header.index("Bias"), header.index("BiasI")
        assert all(row[bias_i] == row[bias] for row in rows)

    def test_sample_dump_round_trip(self, tmp_path, capsys):
        dump = tmp_path / "sample.csv"
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "2", "--lambda", "0.5",
                             "--n", "25", "--reps", "2", "--seed", "77",
                             "--dump-sample", str(dump))
        assert code == 0
        values = [float(line) for line in dump.read_text().strip().split("\n")[1:]]
        # replication 0 of the first scenario draws from the Philox stream with key
        # seed and counter (0, 0, 0, 0)
        rng = np.random.Generator(np.random.Philox(key=77, counter=[0, 0, 0, 0]))
        assert values == gamma_sample(GammaParams(2.0, 1.0), rng, 25).tolist()
        code, out, _ = run_cli(capsys, "estimate", "--input", str(dump), "--column", "value",
                               "--lambdas", "0.5", "--digits", "12")
        assert code == 0
        printed = float([l for l in out.split("\n") if l.startswith("I_0.5")][0].split()[1])
        assert printed == pytest.approx(i_hat_fast(values, 0.5), abs=1e-9)

    def test_unwritable_out_prints_nothing(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "simulate", "--alpha", "2", "--lambda", "0.5",
                                 "--n", "10", "--reps", "5", "--out", str(target))
        assert code == 1
        assert out == ""
        assert "[Errno 2] No such file or directory" in err

    def test_grid_order_and_seeds(self, tmp_path, capsys):
        # n outer, lambda middle, alpha inner; scenario k takes seed + k
        target = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "0.5,2", "--lambda", "0.25,0.75",
                             "--n", "10,20", "--reps", "5", "--seed", "7", "--out", str(target))
        assert code == 0
        rows = [line.split(",")[:5] for line in target.read_text().strip().split("\n")[1:]]
        assert rows == [
            ["0.5", "0.25", "10", "5", "7"], ["2", "0.25", "10", "5", "8"],
            ["0.5", "0.75", "10", "5", "9"], ["2", "0.75", "10", "5", "10"],
            ["0.5", "0.25", "20", "5", "11"], ["2", "0.25", "20", "5", "12"],
            ["0.5", "0.75", "20", "5", "13"], ["2", "0.75", "20", "5", "14"],
        ]

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "", "--lambda", "0.5",
                               "--n", "10")
        assert code == 1
        # a count too large for a float names its argument
        code, _, err = run_cli(capsys, "simulate", "--alpha", "2", "--lambda", "0.5",
                               "--n", "10", "--reps", "1" + "0" * 400)
        assert code == 1
        assert err.startswith("error: replication count must be an integer >= 1, got 1000")


class TestDigitsFlag:
    def test_digits_override(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--alpha", "1", "--gini", "--digits", "3")
        assert code == 0
        assert out.strip() == "0.500"

    @pytest.mark.parametrize("argv", [["index", "--alpha", "2", "--lambda", "0.5"],
                                      ["bias", "--alpha", "2", "--lambda", "0.5", "--n", "10"],
                                      ["simulate", "--alpha", "2", "--lambda", "0.5", "--n", "10"]])
    def test_quiet_is_for_estimate_only(self, capsys, argv):
        # only estimate writes a diagnostic, so only estimate takes --quiet
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--quiet"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--quiet" in captured.err

    def test_negative_digits_is_usage_error(self, tmp_path, capsys):
        commands = (["index", "--alpha", "2", "--lambda", "0.5"],
                    ["estimate", "--input", FIXTURE, "--column", "gdp_per_capita_ppp"],
                    ["bias", "--alpha", "2", "--lambda", "0.5", "--n", "10"],
                    ["simulate", "--alpha", "2", "--lambda", "0.5", "--n", "10", "--reps", "2",
                     "--out", str(tmp_path / "out.csv")])
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--digits", "-1"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--digits" in captured.err
        assert not (tmp_path / "out.csv").exists()
