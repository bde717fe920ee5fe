import math

import numpy as np
import pytest

import ineqbridge.mc_harness as mc
from ineqbridge import (
    GammaParams,
    ScenarioFailure,
    SimConfig,
    SimSummary,
    compare_i_vs_j,
    format_table,
    g_hat,
    gamma_gini,
    gamma_hoover,
    gamma_index,
    gamma_sample,
    h_hat,
    i_hat_fast,
    j_index,
    run_grid,
    run_scenario,
    summarize,
    write_csv,
)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(alpha=0.0, lam=0.5, n=10, reps=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, lam=2.0, n=10, reps=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, lam=0.5, n=1, reps=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, lam=0.5, n=10, reps=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, lam=0.5, n=10, reps=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, lam=0.5, n=10, reps=math.inf, seed=1)
        with pytest.raises(ValueError):
            SimConfig(alpha=1.0, lam=0.5, n=10, reps=10, seed=math.nan)


class TestRunScenario:
    def test_deterministic_rerun(self):
        c = SimConfig(alpha=2.0, lam=0.5, n=20, reps=50, seed=99)
        assert run_scenario(c) == run_scenario(c)

    def test_truth_coherence(self):
        c = SimConfig(alpha=2.0, lam=0.25, n=10, reps=5, seed=3)
        s = run_scenario(c)
        assert s.truth == pytest.approx(gamma_index(2.0, 0.25), abs=1e-8)

    def test_moment_identity(self):
        c = SimConfig(alpha=1.0, lam=0.75, n=15, reps=200, seed=5)
        s = run_scenario(c)
        r = c.reps
        assert s.mse == pytest.approx(s.variance * (r - 1) / r + s.bias ** 2, abs=1e-12)
        assert s.mse >= 0.0 and s.variance >= 0.0

    def test_single_replication_degenerate(self):
        s = run_scenario(SimConfig(alpha=0.5, lam=0.25, n=10, reps=1, seed=7))
        assert s.degenerate
        assert s.variance == 0.0

    def test_reference_row_bands(self):
        # published row: truth 0.2998, mean 0.3001, var 0.0010 at R = 1000;
        # mean band 4 SE, variance a chi-square 99% factor band
        s = run_scenario(SimConfig(alpha=2.0, lam=0.5, n=40, reps=1000, seed=42))
        assert abs(s.mean - 0.3001) <= 0.004
        assert abs(s.bias - 0.0003) <= 0.004
        assert 0.85 * 0.0010 <= s.variance <= 1.18 * 0.0010


class TestStreams:
    def test_replication_r_draws_philox_key_seed_counter_r(self):
        c = SimConfig(alpha=0.5, lam=0.3, n=12, reps=10, seed=2 ** 64 - 1)
        for r in (0, 1, 9, 2 ** 40):
            rng = np.random.Generator(np.random.Philox(key=c.seed, counter=[0, 0, 0, r]))
            expected = gamma_sample(GammaParams(c.alpha, 1.0), rng, c.n)
            assert mc._replication_sample(c, r).tolist() == expected.tolist()

    def test_independent_of_replication_order(self):
        c = SimConfig(alpha=2.0, lam=0.5, n=9, reps=70, seed=5)
        forward = [mc._replication_sample(c, r) for r in range(c.reps)]
        draw = mc._sampler(c)  # one generator, reset after each earlier draw
        backward = [draw(r) for r in reversed(range(c.reps))]
        rows = mc._replicate(c, lambda block: block.T)
        assert np.array_equal(np.array(forward), np.array(backward[::-1]))
        assert np.array_equal(np.array(forward), rows.T)

    def test_seeds_and_replications_differ(self):
        c = SimConfig(alpha=2.0, lam=0.5, n=9, reps=2, seed=5)
        other = SimConfig(alpha=2.0, lam=0.5, n=9, reps=2, seed=6)
        x = mc._replication_sample(c, 0)
        assert not np.array_equal(x, mc._replication_sample(other, 0))
        assert not np.array_equal(x, mc._replication_sample(c, 1))


class TestBlocks:
    @pytest.mark.parametrize("reps", [1, 63, 64, 65, 130])
    def test_equals_one_replication_at_a_time(self, reps):
        # at n = 64 a block holds 4096 // 64 = 64 rows, so these counts sit at its edges
        c = SimConfig(alpha=0.5, lam=0.3, n=64, reps=reps, seed=17)
        samples = [mc._replication_sample(c, r) for r in range(reps)]
        est_i = [i_hat_fast(x, c.lam) for x in samples]
        est_j = [(1.0 - c.lam) * h_hat(x) + c.lam * g_hat(x) for x in samples]
        truth_i = gamma_index(c.alpha, c.lam)
        truth_j = j_index(gamma_hoover(c.alpha), gamma_gini(c.alpha), c.lam)
        assert run_scenario(c) == SimSummary(c, truth_i, *summarize(est_i, truth_i))
        assert compare_i_vs_j(c) == (math.fsum(est_i) / reps - truth_i, math.fsum(est_j) / reps - truth_j)

    def test_blocks_hold_at_most_64_rows(self, monkeypatch):
        # a block holds at most 4,096 sample values, or one sample when n is larger:
        # 64 rows at n = 64, and its size bounds a scenario's temporaries
        shapes = []

        def recording(estimator):
            def recorded(x, *args):
                shapes.append(np.shape(x))
                return estimator(x, *args)
            return recorded

        for name in ("i_hat_fast", "h_hat", "g_hat"):
            monkeypatch.setattr(mc, name, recording(getattr(mc, name)))
        for n, reps, rows in ((64, 130, [64, 64, 2]), (10, 500, [409, 91]), (5000, 2, [1, 1])):
            shapes.clear()
            c = SimConfig(alpha=2.0, lam=0.5, n=n, reps=reps, seed=3)
            run_scenario(c)
            compare_i_vs_j(c)  # i_hat_fast once per block in each
            assert shapes == 2 * [(r, n) for r in rows], (n, shapes)


class TestRunGrid:
    GRID = [
        SimConfig(alpha=0.5, lam=0.25, n=10, reps=40, seed=11),
        SimConfig(alpha=2.0, lam=0.5, n=12, reps=40, seed=12),
        SimConfig(alpha=1.0, lam=0.75, n=8, reps=40, seed=13),
        SimConfig(alpha=5.0, lam=0.5, n=20, reps=40, seed=14),
    ]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_grid([])

    def test_preserves_order_and_duplicates(self):
        dup = [self.GRID[0], self.GRID[1], self.GRID[0]]
        out = run_grid(dup)
        assert [o.config for o in out] == [c for c in dup]
        assert out[0] == out[2]

    def test_failures_collected_not_raised(self, monkeypatch):
        def exploding(alpha, lam):
            if alpha == 3.21:
                raise RuntimeError("synthetic failure")
            return gamma_index(alpha, lam)

        monkeypatch.setattr(mc, "gamma_index", exploding)
        mc._cached_truth.cache_clear()
        grid = [self.GRID[0], SimConfig(alpha=3.21, lam=0.5, n=10, reps=5, seed=1), self.GRID[1]]
        out = run_grid(grid)
        mc._cached_truth.cache_clear()
        assert isinstance(out[1], ScenarioFailure)
        assert "synthetic failure" in out[1].message
        assert not isinstance(out[0], ScenarioFailure)
        assert not isinstance(out[2], ScenarioFailure)


class TestCompare:
    def test_endpoints_use_identical_estimators(self):
        for lam in (0.0, 1.0):
            bi, bj = compare_i_vs_j(SimConfig(alpha=2.0, lam=lam, n=15, reps=60, seed=4))
            assert bi == bj

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
    def test_same_bias_of_i_hat_as_run_scenario(self, lam):
        c = SimConfig(alpha=2.0, lam=lam, n=15, reps=200, seed=9)
        assert compare_i_vs_j(c)[0] == run_scenario(c).bias

    def test_interior_biases_finite_and_small(self):
        bi, bj = compare_i_vs_j(SimConfig(alpha=5.0, lam=0.5, n=80, reps=1000, seed=44))
        assert abs(bi) < 0.01 and abs(bj) < 0.01


class TestOutputs:
    def test_csv_schema_and_determinism(self, tmp_path):
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_grid(self.small_grid()), str(path_a))
        write_csv(run_grid(self.small_grid()), str(path_b))
        text_a, text_b = path_a.read_text(), path_b.read_text()
        lines = text_a.strip().split("\n")
        assert lines[0] == "alpha,lambda,n,R,seed,truth,mean,bias,mse,variance"
        assert len(lines) == 1 + len(self.small_grid())
        assert text_a == text_b
        first = lines[1].split(",")
        assert len(first) == 10
        assert float(first[0]) == 0.5

    def test_table_formatting(self):
        out = run_grid(self.small_grid())
        table = format_table(out)
        assert "alpha" in table and "Bias" in table and "Var" in table
        degen = run_scenario(SimConfig(alpha=1.0, lam=0.5, n=10, reps=1, seed=2))
        flagged = format_table([degen])
        assert "*" in flagged

    @staticmethod
    def small_grid():
        return [
            SimConfig(alpha=0.5, lam=0.25, n=10, reps=20, seed=21),
            SimConfig(alpha=1.0, lam=0.5, n=10, reps=20, seed=22),
        ]
