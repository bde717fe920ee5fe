import math
from dataclasses import replace

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
    specfun,
    write_csv,
)
from ineqbridge.mc_harness import summarize


@pytest.fixture
def fresh_memos():
    # for a test that patches what a pass calls: an entry an earlier test left cannot
    # hide the patch, and an entry made under the patch cannot outlive it
    mc._cached_truth.cache_clear()
    mc._scenario.cache_clear()
    yield
    mc._cached_truth.cache_clear()
    mc._scenario.cache_clear()


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
        for seed in ("3", None):
            with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer"):
                SimConfig(alpha=1.0, lam=0.5, n=10, reps=10, seed=seed)
        with pytest.raises(ValueError, match="^replication count must be an integer >= 1"):
            SimConfig(alpha=1.0, lam=0.5, n=10, reps=10 ** 400, seed=1)


class TestRunScenario:
    def test_deterministic_rerun(self):
        c = SimConfig(alpha=2.0, lam=0.5, n=20, reps=50, seed=99)
        first = run_scenario(c)
        mc._scenario.cache_clear()
        assert run_scenario(c) == first

    def test_equal_configs_report_their_own(self):
        # 0.0 == -0.0, so the second config reads the first one's memo entry
        zero = SimConfig(alpha=2.0, lam=0.0, n=10, reps=20, seed=6)
        negative_zero = SimConfig(alpha=2.0, lam=-0.0, n=10, reps=20, seed=6)
        first, second = run_scenario(zero), run_scenario(negative_zero)
        assert first == second
        assert math.copysign(1.0, second.config.lam) == -1.0

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


def all_samples(c):
    """The (reps, n) samples of a scenario, block by block: B = 4096 // n rows a block."""
    rows = max(1, 4096 // c.n)
    return np.concatenate([mc._block(c, b, min(rows, c.reps - first))
                           for b, first in enumerate(range(0, c.reps, rows))])


def replication(c, r):
    """Replication r alone: the last row of the shortest block b = r // B holding it."""
    rows = max(1, 4096 // c.n)
    return mc._block(c, r // rows, r % rows + 1)[-1]


class TestStreams:
    def test_block_b_draws_philox_key_seed_counter_b(self):
        c = SimConfig(alpha=0.5, lam=0.3, n=12, reps=10, seed=2 ** 64 - 1)
        for b in (0, 1, 9, 2 ** 40):
            rng = np.random.Generator(np.random.Philox(key=c.seed, counter=[0, 0, 0, b]))
            expected = gamma_sample(GammaParams(c.alpha, 1.0), rng, 3 * c.n)
            assert mc._block(c, b, 3).shape == (3, c.n)
            assert mc._block(c, b, 3).ravel().tolist() == expected.tolist()

    def test_independent_of_replication_order(self):
        # each block has its own generator: blocks drawn last to first give the same rows
        c = SimConfig(alpha=2.0, lam=0.5, n=9, reps=70, seed=5)
        forward = [mc._block(c, b, 20) for b in range(4)]
        backward = [mc._block(c, b, 20) for b in reversed(range(4))]
        assert np.array_equal(np.array(forward), np.array(backward[::-1]))

    def test_seeds_and_replications_differ(self):
        c = SimConfig(alpha=2.0, lam=0.5, n=9, reps=2, seed=5)
        other = SimConfig(alpha=2.0, lam=0.5, n=9, reps=2, seed=6)
        x = mc._block(c, 0, 2)
        assert not np.array_equal(x, mc._block(other, 0, 2))  # seeds
        assert not np.array_equal(x, mc._block(c, 1, 2))  # blocks
        assert not np.array_equal(x[0], x[1])  # rows of one block


class TestBlocks:
    @pytest.mark.parametrize("reps", [1, 63, 64, 65, 130])
    def test_equals_one_replication_at_a_time(self, reps, monkeypatch, fresh_memos):
        # at n = 64 a block holds 4096 // 64 = 64 rows, so these counts sit at its edges
        c = SimConfig(alpha=0.5, lam=0.3, n=64, reps=reps, seed=17)
        samples = [replication(c, r) for r in range(reps)]
        est_i = [i_hat_fast(x, c.lam) for x in samples]
        est_j = [(1.0 - c.lam) * h_hat(x) + c.lam * g_hat(x) for x in samples]
        truth_i = gamma_index(c.alpha, c.lam)
        truth_j = j_index(gamma_hoover(c.alpha), gamma_gini(c.alpha), c.lam)
        bias_j = math.fsum(est_j) / reps - truth_j
        rows = self.row_estimates(c, monkeypatch)
        assert rows[:, 0].tolist() == est_i
        assert run_scenario(c) == SimSummary(c, truth_i, *summarize(est_i, truth_i), bias_j)
        assert compare_i_vs_j(c) == (math.fsum(est_i) / reps - truth_i, bias_j)
        if reps == 130:  # a scenario's rows are a prefix of a longer one's
            assert np.array_equal(self.row_estimates(replace(c, reps=65), monkeypatch), rows[:65])

    @staticmethod
    def row_estimates(c, monkeypatch):
        """The (reps, 3) I, H and G estimates of a fresh pass over c, as the blocks return them."""
        out = []

        def recorded(x, *args):
            out.append(i_hat_fast(x, *args))
            return out[-1]

        monkeypatch.setattr(mc, "i_hat_fast", recorded)
        mc._scenario(c)
        monkeypatch.setattr(mc, "i_hat_fast", i_hat_fast)
        return np.concatenate(out)

    def test_blocks_hold_at_most_64_rows(self, monkeypatch, fresh_memos):
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
            compare_i_vs_j(c)  # reads run_scenario's pass: i_hat_fast once per block in all
            assert shapes == [(r, n) for r in rows], (n, shapes)


class TestSummarize:
    def test_exact_recovery(self):
        s = summarize([0.3, 0.3, 0.3], truth=0.3)
        assert s == (0.3, 0.0, 0.0, 0.0)

    def test_hand_computed_pair(self):
        mean, bias, mse, variance = summarize([0.2, 0.4], truth=0.3)
        assert mean == pytest.approx(0.3, abs=1e-15)
        assert bias == pytest.approx(0.0, abs=1e-15)
        assert mse == pytest.approx(0.01, abs=1e-15)
        assert variance == pytest.approx(0.02, abs=1e-15)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            est = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 200)))
            truth = float(rng.uniform(0.0, 1.0))
            _, bias, mse, variance = summarize(est, truth)
            r = est.size
            assert mse == pytest.approx(variance * (r - 1) / r + bias ** 2, abs=1e-12)

    def test_single_replication_variance_is_zero(self):
        _, _, mse, variance = summarize([0.4], truth=0.3)
        assert variance == 0.0
        assert mse == pytest.approx(0.01, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], truth=0.3)

    @pytest.mark.parametrize("r", [1, 2, 1000, 4096])
    def test_equals_the_literal_formula(self, r):
        # exact sums of C pow squares: math.fsum of Python's ** 2 bit for bit, at scales from 1e-200
        # (squares subnormal or 0) to 1e100; d * d rounds 1 square in ~1,200 differently, which
        # the 10 + 16,384 // R samples show at R = 1 and 2
        rng = np.random.default_rng(r)
        for _ in range(10 + 16384 // r):
            scale = 10.0 ** rng.uniform(-200.0, 100.0)
            est = scale * rng.uniform(-1.0, 1.0, r) * 10.0 ** rng.uniform(-3.0, 3.0, r)
            truth = scale * float(rng.uniform(-1.0, 1.0))
            v = est.tolist()
            mean = math.fsum(v) / r
            mse = math.fsum((x - truth) ** 2 for x in v) / r
            variance = math.fsum((x - mean) ** 2 for x in v) / (r - 1) if r > 1 else 0.0
            assert summarize(est, truth) == (mean, mean - truth, mse, variance)

    def test_overflowing_square_raises(self):
        # as Python's ** 2 does, with no inf summed to nan on the way
        with pytest.raises(OverflowError):
            summarize([1e200, -1e200], 0.0)


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

    def test_failures_collected_not_raised(self, monkeypatch, fresh_memos):
        def exploding(alpha, lam):
            if alpha == 3.21:
                raise RuntimeError("synthetic failure")
            return gamma_index(alpha, lam)

        monkeypatch.setattr(mc, "gamma_index", exploding)
        grid = [self.GRID[0], SimConfig(alpha=3.21, lam=0.5, n=10, reps=5, seed=1), self.GRID[1]]
        out = run_grid(grid)
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

    def test_one_gamma_call_per_block(self, monkeypatch, fresh_memos):
        draws = []

        def counting(*args):
            draws.append(args[2])
            return gamma_sample(*args)

        monkeypatch.setattr(mc, "gamma_sample", counting)
        # 4096 // 12 = 341 rows a block: two full blocks and a short last one
        c = SimConfig(alpha=0.5, lam=0.3, n=12, reps=700, seed=23)
        for first, second in ((run_scenario, compare_i_vs_j), (compare_i_vs_j, run_scenario)):
            mc._scenario.cache_clear()
            draws.clear()
            first(c)
            second(c)
            assert draws == [341 * c.n, 341 * c.n, 18 * c.n], first.__name__
            assert sum(draws) == c.reps * c.n
        memoized = mc._scenario(c)
        mc._scenario.cache_clear()
        assert mc._scenario(c) == memoized  # a fresh pass, bit for bit
        assert run_scenario(c) == memoized
        assert compare_i_vs_j(c) == (memoized.bias, memoized.bias_j)

    @pytest.mark.parametrize("alpha, lam, n, seed", [
        (0.5, 0.25, 10, 3101), (1.0, 0.0, 40, 3102), (2.0, 0.5, 120, 3103),
        (5.0, 0.75, 40, 3104), (10.0, 0.5, 10, 3105),
    ])
    def test_bias_j_matches_hoover_closed_form(self, alpha, lam, n, seed):
        # J_hat = (1-lam) H_hat + lam G_hat and G_hat is unbiased, so E[J_hat] - J is
        # (1-lam)(E[H_hat] - H) = (1-lam) e^D(alpha)/alpha (e^(D((n-1) alpha) - D(n alpha)) - 1),
        # D the Stirling defect; each cell has its own seed, so the z-scores are independent
        c = SimConfig(alpha=alpha, lam=lam, n=n, reps=4000, seed=seed)
        d = specfun._stirling_defect
        exact = (1.0 - lam) * math.exp(d(alpha)) / alpha * math.expm1(d((n - 1) * alpha) - d(n * alpha))
        block = all_samples(c)
        se = np.std((1.0 - lam) * h_hat(block) + lam * g_hat(block), ddof=1) / math.sqrt(c.reps)
        assert abs(run_scenario(c).bias_j - exact) <= 4.0 * se

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
