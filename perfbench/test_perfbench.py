"""The benchmark's own tests, on tiny inputs.

Every metric named in BENCHMARK.json is emitted with its unit, each
workload's checks pass on correct output and reject a deliberately
corrupted reference value, and the runner refuses to run without the
package source.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs as bench_inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_inputs(workload, workdir):
    if workload == "bias_table":
        return bench_inputs.bias_table_inputs(3, cells=[(0.5, 0.25, 10), (1.0, 0.5, 10), (0.5, 0.25, 2)])
    if workload == "mc_grid":
        return bench_inputs.mc_grid_inputs(3, rows=bench_inputs.mc_reference_rows()[:2])
    if workload == "estimate_csv":
        return bench_inputs.estimate_csv_inputs(3, workdir, rows=2000,
                                                bad={"blank": 3, "text": 2, "negative": 1})
    return bench_inputs.index_grid_inputs(3, alphas=(1.0, 2.0), points=5, oracle_cases=5)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Untraced and traced tiny runs of every workload, each pass in a fresh interpreter."""
    saved = run.ROOT, run.PROBES
    run.ROOT, run.PROBES = ROOT, 1
    try:
        refs = checks.load_references()
        out = {}
        for workload in bench_inputs.WORKLOADS:
            workdir = tmp_path_factory.mktemp(workload)
            inputs = tiny_inputs(workload, workdir)
            plain = run.run_untraced(workload, inputs, 0.0, workdir, time.monotonic())
            traced = run.run_traced(workload, inputs, workdir, time.monotonic())
            out[workload] = {"inputs": inputs, "refs": refs, "plain": plain, "traced": traced}
        return out
    finally:
        run.ROOT, run.PROBES = saved


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_inputs.WORKLOADS)


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_every_metric_is_emitted(runs, workload):
    metrics, passes, _ = runs[workload]["plain"]
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    layer_metrics, _, _ = runs[workload]["traced"]
    assert set(layer_metrics) == set(tracer.LAYER_METRICS)


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_checks_pass_on_correct_output(runs, workload):
    r = runs[workload]
    for out in r["plain"][1] + r["traced"][1]:
        attempted, failed, reasons = run.judge(workload, r["inputs"], out, r["refs"])
        assert attempted > 0 and failed == 0, reasons


def _corrupt(workload, inputs, refs, out):
    inputs, refs, out = copy.deepcopy(inputs), copy.deepcopy(refs), copy.deepcopy(out)
    if workload == "bias_table":
        refs["bias"][tuple(out["items"][0]["key"])] += 1e-6
    elif workload == "mc_grid":
        # the bias compare_i_vs_j must reproduce bit for bit; the table
        # references are exercised on the full grid below
        value = out["items"][0]["value"]
        value["bias"] = math.nextafter(value["bias"], math.inf)
    elif workload == "estimate_csv":
        inputs["expected"]["gini"] *= 1.0 + 1e-6
    else:
        refs["index"][tuple(out["items"][1]["key"])] += 1e-6
    return inputs, refs, out


def test_mc_grid_criterion_6_on_the_full_grid():
    # an output that reproduces the reference table exactly meets every band;
    # moving six reference means by 1 leaves 69 of the 70 hits required
    refs = checks.load_references()
    rows = bench_inputs.mc_reference_rows()
    out = {"items": [{"key": [r["alpha"], r["lam"], r["n"], 1000, i], "error": None,
                      "value": {"truth": r["truth"], "mean": r["mean"], "bias": r["bias"], "mse": r["mse"],
                                "variance": r["variance"], "bias_i": r["bias"], "bias_j": r["bias"]}}
                     for i, r in enumerate(rows)]}
    assert run.judge("mc_grid", {}, out, refs)[1] == 0
    for r in rows[:6]:
        refs["mc"][(r["alpha"], r["lam"], r["n"])]["mean"] += 1.0
    _, failed, reasons = run.judge("mc_grid", {}, out, refs)
    assert failed == len(rows) and "mean inside its band for 69/75" in reasons[0]


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_checks_reject_corrupted_reference(runs, workload):
    r = runs[workload]
    inputs, refs, out = _corrupt(workload, r["inputs"], r["refs"], r["plain"][1][0])
    _, failed, reasons = run.judge(workload, inputs, out, refs)
    assert failed > 0 and reasons


def test_traced_counts_repeat_exactly(runs, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", ROOT)
    r = runs["index_grid"]
    first = r["traced"][0]
    second = run.run_traced("index_grid", r["inputs"], tmp_path, time.monotonic())[0]
    counts = [name for name, unit in tracer.LAYER_METRICS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_missing_boundary_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "BOUNDARIES", {"specfun.gone": (None, [("ineqbridge.specfun", "no_such_fn")])})
    with pytest.raises(AttributeError, match="no_such_fn"):
        tracer.Tracer().install()


def test_kernel_units_weight_each_stretch_by_its_own_speed():
    import child

    probe = child.SpeedProbe()
    # three samples: the kernel took 1, 1 and 3 time units; the item ran from
    # 0 to 10 with the middle sample at 4-5, so its stretches are 4 and 5 long
    probe.samples = [1.0, 1.0, 3.0]
    probe.marks = [(-1.0, 0.0), (4.0, 5.0), (10.0, 11.0)]
    assert probe.kernel_units([0, 2], [0.0, 10.0]) == pytest.approx(4 / 1.0 + 5 / 2.0)
    # a stretch is clipped to the item's own span
    assert probe.kernel_units([0, 2], [0.5, 9.0]) == pytest.approx(3.5 / 1.0 + 4 / 2.0)


def test_weighted_quantile():
    assert run.weighted_quantile([(1.0, 1), (2.0, 1), (3.0, 1)], 0.5) == 2.0
    assert run.weighted_quantile([(5.0, 1000)], 0.85) == 5.0
    assert run.weighted_quantile([(1.0, 1), (3.0, 1)], 0.5) == 2.0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "mc_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
