import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqbridge import (
    GammaParams,
    g_hat,
    gamma_sample,
    h_hat,
    i_hat,
    i_hat_fast,
)
from ineqbridge import estimators
from ineqbridge.estimators import _row_fsums
from ineqbridge._checks import check_lambda

from helpers import sorted_route_by_row

# zero is a meaningful observation; subnormal magnitudes are not incomes and
# would only probe float underflow, so positive draws start at 1e-3
samples = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e4)),
    min_size=2, max_size=40,
)
weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def sample_blocks(draw):
    """(R, n) blocks of samples: all-zero rows, ties, scales 1e-8 to 1e8."""
    r, n = draw(st.integers(1, 6)), draw(st.integers(2, 30))
    cell = st.one_of(st.just(0.0), st.integers(1, 4).map(float), st.floats(min_value=1e-3, max_value=1e3))
    row = st.one_of(st.just([0.0] * n), st.lists(cell, min_size=n, max_size=n))
    scale = 10.0 ** draw(st.integers(-8, 8))
    return scale * np.array(draw(st.lists(row, min_size=r, max_size=r)))


class TestIHat:
    def test_constant_sample_is_zero(self):
        for lam in (0.0, 0.25, 1.0):
            assert i_hat([3.0, 3.0, 3.0, 3.0], lam) == 0.0

    def test_three_point_midweight(self):
        assert i_hat([1.0, 2.0, 3.0], 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_three_point_hoover(self):
        assert i_hat([1.0, 2.0, 3.0], 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            i_hat([1.0], 0.5)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            i_hat([1.0, -2.0], 0.5)
        with pytest.raises(ValueError):
            i_hat([1.0, math.nan], 0.5)

    def test_all_zero_convention(self):
        assert i_hat([0.0, 0.0, 0.0], 0.7) == 0.0

    def test_refuses_more_pairs_than_it_can_hold(self, monkeypatch):
        # R n^2 above 2**24 is refused before the (R, n, n) pair terms are built: each would
        # take more than 128 MiB, and a 48,500-value sample 18.8 GB
        tracemalloc.start()
        try:
            for shape in ((4097,), (2, 2897), (1025, 128)):
                with pytest.raises(ValueError, match=r"i_hat sums all n\*n pairs, .* use i_hat_fast$"):
                    i_hat(np.ones(shape), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert i_hat(np.ones(4097), 1.0) == 0.0  # the endpoints take the sorted core
        # the boundary, at a cap small enough to reach
        monkeypatch.setattr(estimators, "_QUADRATIC_MAX", 2 * 7 * 7)
        assert i_hat(np.ones((2, 7)), 0.5).tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="2 sample[(]s[)] of 8 exceed 98; use i_hat_fast$"):
            i_hat(np.ones((2, 8)), 0.5)

    @pytest.mark.parametrize("est, sample", [
        (g_hat, [1e306] + [1.0] * 999),
        (h_hat, [1e308, 1e307]),  # 2 n Xbar overflows, which made the estimate 0
        (lambda x: i_hat(x, 0.3), [1e308, 1e308]),
        (lambda x: i_hat_fast(x, 0.5), [1e308, 1e308]),
        (lambda x: i_hat_fast(x, [0.0, 0.5]), [[1.0, 2.0], [1e308, 1e308]]),
    ], ids=["g_hat", "h_hat", "i_hat", "i_hat_fast", "i_hat_fast_block"])
    def test_overflowing_sums_are_an_error(self, est, sample):
        with pytest.raises(ValueError, match="^sample values too large: a sum over the sample overflows a float$"):
            est(sample)
        assert np.isfinite(est(np.array(sample) * 1e-300)).all()  # the estimators are scale free


class TestHooverGiniHats:
    def test_h_hat_examples(self):
        assert h_hat([1.0, 3.0]) == pytest.approx(0.25, abs=1e-15)
        assert h_hat([5.0, 5.0, 5.0]) == 0.0
        assert h_hat([0.0, 2.0]) == pytest.approx(0.5, abs=1e-15)

    def test_g_hat_examples(self):
        assert g_hat([1.0, 3.0]) == pytest.approx(0.5, abs=1e-15)
        assert g_hat([7.0] * 6) == 0.0
        assert g_hat([0.0] * 9 + [1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_g_hat_equals_rank_weighted_loop(self):
        # the vectorized weights do the loop's arithmetic, so equality is exact
        rng = np.random.default_rng(12)
        for k in range(200):
            n = int(rng.integers(2, 300))
            x = rng.gamma(float(rng.uniform(0.2, 5.0)), 10.0 ** rng.uniform(-8, 8), size=n)
            if k % 4 == 0:
                x = np.round(x / x.max(), 1) * x.max()  # ties
            xs = np.sort(x)
            pair_sum = math.fsum((2 * i - n + 1) * xs[i] for i in range(n))
            assert g_hat(x) == pair_sum / (n * (n - 1) * (math.fsum(x.tolist()) / n))

    def test_h_hat_on_one_observation(self):
        # no pairs, but one deviation sum: |X1 - X1| = 0, or a zero mean, gives exactly 0
        assert h_hat([3.0]) == 0.0
        assert h_hat([0.0]) == 0.0
        block = np.array([[3.0], [0.0], [1e-300], [7.5]])
        assert h_hat(block).tolist() == [0.0] * 4

    def test_g_hat_needs_pairs(self):
        with pytest.raises(ValueError):
            g_hat([1.0])


class TestFastPath:
    def test_matches_reference_on_gamma_sample(self):
        rng = np.random.default_rng(3)
        x = gamma_sample(GammaParams(1.0, 1.0), rng, 200)
        f = i_hat_fast(x, 0.37)
        q = i_hat(x, 0.37)
        assert abs(f - q) <= 1e-10 * max(1.0, abs(q))

    def test_three_point_midweight(self):
        assert i_hat_fast([1.0, 2.0, 3.0], 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_two_point_gini(self):
        assert i_hat_fast([1.0, 3.0], 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_ties_and_zeros(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            x = np.round(rng.gamma(0.6, 1.0, size=n), 2)  # many ties, some zeros
            lam = float(rng.uniform(0.0, 1.0))
            f = i_hat_fast(x, lam)
            q = i_hat(x, lam)
            assert abs(f - q) <= 1e-10 * max(1.0, abs(q))


class TestEndpointIdentities:
    def test_exact_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.gamma(2.0, 1.0, size=int(rng.integers(2, 80)))
            assert i_hat(x, 0.0) == h_hat(x)
            assert i_hat(x, 1.0) == g_hat(x)
            assert i_hat_fast(x, 0.0) == h_hat(x)
            assert i_hat_fast(x, 1.0) == g_hat(x)


class TestEstimatorProperties:
    @given(samples, weights)
    @settings(max_examples=80, deadline=None)
    def test_range_and_triangle_bound(self, values, lam):
        if math.fsum(values) == 0.0:
            assert i_hat(values, lam) == 0.0
            return
        v = i_hat(values, lam)
        assert -1e-12 <= v <= 1.0 + 1e-12
        bound = (1.0 - lam) * h_hat(values) + lam * g_hat(values)
        assert v <= bound + 1e-12

    @given(samples, weights, st.sampled_from([1e-6, 1.0, 1e6]))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, values, lam, a):
        if math.fsum(values) == 0.0:
            return
        x = np.asarray(values)
        assert i_hat(a * x, lam) == pytest.approx(i_hat(x, lam), abs=1e-12)

    def test_translation_rule(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = rng.gamma(1.5, 2.0, size=int(rng.integers(2, 50)))
            lam = float(rng.uniform(0.0, 1.0))
            xbar = x.mean()
            for c in (0.5, 3.0, 100.0):
                expected = xbar / (xbar + c) * i_hat(x, lam)
                assert i_hat(x + c, lam) == pytest.approx(expected, abs=1e-12)

    @given(samples, weights)
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_reference(self, values, lam):
        f = i_hat_fast(values, lam)
        q = i_hat(values, lam)
        assert abs(f - q) <= 1e-10 * max(1.0, abs(q))


class TestBlocks:
    @given(sample_blocks(), st.one_of(st.sampled_from([0.0, 1e-12, 1.0]), weights))
    @settings(max_examples=80, deadline=None)
    def test_block_equals_rows_exactly(self, x, lam):
        for est in (lambda v: i_hat_fast(v, lam), h_hat, g_hat, lambda v: i_hat(v, lam)):
            got = est(x)
            assert isinstance(got, np.ndarray) and got.shape == (len(x),)
            assert got.tolist() == [est(row) for row in x]

    @given(sample_blocks(), st.lists(st.one_of(st.sampled_from([0.0, 1e-12, 1.0]), weights), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_weight_vector_equals_scalar_calls(self, x, lams):
        got = i_hat_fast(x, lams)
        assert got.shape == (len(x), len(lams))
        assert got.tolist() == [[i_hat_fast(row, lam) for lam in lams] for row in x]

    def test_pinned_block_estimates(self):
        # a fixed block from integer arithmetic and IEEE division and multiplication
        # only: decimals 0.01 to 1.01, a row 1e-20 below the others and a row of
        # ties and zeros.  Every row sum is correctly rounded and the rest is IEEE
        # arithmetic, so these bits hold on any platform and for any exact way of
        # taking the sums; row 4 reaches math.fsum inside the block, not alone
        block = (np.arange(6 * 12).reshape(6, 12) * 37 % 101 + 1) / 100.0
        block[4] *= 1e-20
        block[5] = np.arange(12) % 4 / 4.0
        got = i_hat_fast(block, [0.5, 0.0, 1.0])
        assert [[v.hex() for v in row] for row in got.tolist()] == [
            ["0x1.5cb4e75d401afp-2", "0x1.351d30543781bp-2", "0x1.b9713b4a84278p-2"],
            ["0x1.10fcea2cb7977p-2", "0x1.da4a94521f015p-3", "0x1.5df78b4b2695bp-2"],
            ["0x1.fc460e28fd642p-3", "0x1.c3a2189808f18p-3", "0x1.4217828614aa0p-2"],
            ["0x1.3737373737373p-2", "0x1.1488e5fd43148p-2", "0x1.8a6eeddf0fb8fp-2"],
            ["0x1.05d8782071678p-2", "0x1.c6eeb810134a5p-3", "0x1.4faebf13d6a47p-2"],
            ["0x1.7c1f07c1f07c2p-2", "0x1.5555555555555p-2", "0x1.d1745d1745d17p-2"],
        ]


# unsorted and repeated, with both endpoints and the extremes of the interior
EDGE_WEIGHTS = [0.5, 1.0, 5e-324, 0.0, 1e-300, 1.0 - 2.0 ** -53, 0.5, 0.25, 1.0, 0.0, 0.999]


class TestWeightVector:
    def test_entries_equal_scalar_calls(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 7, 50, 1_000, 48_500):
            x = rng.lognormal(0.0, 1.0, size=n)
            x = np.round(x, 1 if n > 3 else 3)  # ties, and zeros at the bottom
            got = i_hat_fast(x, EDGE_WEIGHTS)
            assert isinstance(got, np.ndarray) and got.shape == (len(EDGE_WEIGHTS),)
            for value, lam in zip(got.tolist(), EDGE_WEIGHTS):
                assert value == i_hat_fast(x, lam), (n, lam)
            assert got[EDGE_WEIGHTS.index(0.0)] == h_hat(x)
            assert got[EDGE_WEIGHTS.index(1.0)] == g_hat(x)

    def test_block_gives_rows_by_weights(self):
        rng = np.random.default_rng(14)
        lams = rng.uniform(0.0, 1.0, size=6).tolist() + EDGE_WEIGHTS
        block = np.round(rng.lognormal(0.0, 1.0, size=(5, 40)), 1)
        block[2] = 0.0
        got = i_hat_fast(block, np.array(lams))
        assert got.shape == (5, len(lams))
        for row, values in zip(block, got):
            assert values.tolist() == i_hat_fast(row, lams).tolist()
            assert values.tolist() == [i_hat_fast(row, lam) for lam in lams]
        assert got[2].tolist() == [0.0] * len(lams)

    def test_all_zero_samples_give_zero(self):
        assert i_hat_fast([0.0, 0.0, 0.0], EDGE_WEIGHTS).tolist() == [0.0] * len(EDGE_WEIGHTS)
        assert i_hat_fast(np.zeros((3, 4)), (0.2, 1.0)).tolist() == [[0.0, 0.0]] * 3

    def test_scalar_weight_keeps_its_shapes(self):
        x = [1.0, 2.0, 4.0]
        assert type(i_hat_fast(x, 0.3)) is float
        assert type(i_hat_fast(x, np.float64(0.3))) is float
        assert i_hat_fast(x, np.array(0.3)) == i_hat_fast(x, [0.3])[0] == i_hat_fast(x, 0.3)
        assert i_hat_fast([x, x], 0.3).shape == (2,)

    def test_bad_weight_is_named(self):
        for bad in (1.5, -0.25, math.nan, math.inf):
            with pytest.raises(ValueError) as expected:
                check_lambda(bad)
            for lams in ([bad], [0.2, bad, 0.7], [0.0, 1.0, bad]):
                with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                    i_hat_fast([1.0, 2.0, 4.0], lams)

    def test_nested_weights_rejected(self):
        with pytest.raises(ValueError, match="1-D sequence"):
            i_hat_fast([1.0, 2.0], [[0.5]])

    def test_empty_weights_give_empty_result(self):
        # the sample is still checked; only the per-weight work is absent
        assert i_hat_fast([1.0, 2.0, 4.0], []).shape == (0,)
        assert i_hat_fast(np.ones((3, 4)), ()).shape == (3, 0)
        assert i_hat_fast(np.zeros((3, 4)), []).shape == (3, 0)
        for bad in ([1.0], [1.0, -2.0], [1.0, math.nan]):
            with pytest.raises(ValueError):
                i_hat_fast(bad, [])


class TestPerRowRoute:
    """The block merge and the memoryview row sums against one searchsorted
    and one fsum over a Python list per row, bit for bit."""

    # at 5e-324 every split off zero is +-inf, at 1e-300 beyond every value
    LAMS = [0.0, 5e-324, 1e-300, 1e-12, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.999, 1.0]

    def assert_rows_match(self, block, lams=LAMS):
        got = i_hat_fast(block, lams)
        assert got.tolist() == [[sorted_route_by_row(row, lam) for lam in lams] for row in np.asarray(block)]

    def test_seeded_blocks(self):
        rng = np.random.default_rng(21)
        for n in (2, 10, 120):
            self.assert_rows_match(rng.gamma(rng.uniform(0.2, 5.0), size=(64, n)))

    def test_ties(self):
        rng = np.random.default_rng(22)
        for n in (2, 10, 120):
            self.assert_rows_match(rng.integers(0, 5, size=(64, n)).astype(float))
        # a split ties with a 3 here, and counting that 3 below the split, as
        # searchsorted(side="right") does, changes the last bit
        self.assert_rows_match(np.array([[2.0, 3.0, 3.0, 4.0], [3.0, 3.0, 3.0, 2.0]]), [0.9])

    def test_split_equal_to_a_sample(self):
        # (1 - lam) xbar = 1 is a sample value, and the splits -2, 0, 2, 4, 6 tie with 0, 2 and 4
        x = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        self.assert_rows_match(x, [0.5])

    def test_zero_mean_rows_among_others(self):
        block = np.round(np.random.default_rng(23).lognormal(0.0, 1.0, size=(8, 10)), 1)
        block[[0, 3, 7]] = 0.0
        block[5] = 0.0
        block[5, 4] = 5e-324  # not all 0, but its mean underflows to 0
        self.assert_rows_match(block)
        for est in (h_hat, g_hat, lambda x: i_hat(x, 0.3), lambda x: i_hat_fast(x, self.LAMS)):
            got = est(block)  # the suite's error::RuntimeWarning filter fails on any 0/0 or x/0 warning
            assert np.all(got[[0, 3, 5, 7]] == 0.0)
            assert got.tolist() == [np.asarray(est(row)).tolist() for row in block]

    def test_non_contiguous_input(self):
        wide = np.random.default_rng(24).gamma(2.0, size=(64, 40))
        for block in (wide[:, ::2], wide[::3], np.asfortranarray(wide)):
            assert not block.flags.c_contiguous
            self.assert_rows_match(block)

    def test_row_sums_of_an_empty_block(self):
        assert _row_fsums(np.empty((0, 5))).shape == (0,)


def fsum_bits(block) -> list[int]:
    """math.fsum of each row on this interpreter, as the bits of the double."""
    return np.array([math.fsum(row) for row in block.tolist()], dtype=float).view(np.int64).tolist()


@st.composite
def float_blocks(draw):
    """(R, n) blocks of arbitrary finite doubles: subnormals, -0.0, 1e308."""
    r, n = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    cell = st.floats(allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=r, max_size=r)))


class TestRowSums:
    """The extraction kernel against math.fsum, row by row and bit for bit,
    on both sides of each of its switches."""

    @pytest.fixture
    def fsum_calls(self, monkeypatch):
        # what the kernel hands to math.fsum: the rows that leave its fast path
        calls = []

        def fsum(values):
            calls.append(list(values))
            return math.fsum(calls[-1])
        monkeypatch.setattr(estimators, "math",
                            types.SimpleNamespace(fsum=fsum, frexp=math.frexp, ldexp=math.ldexp))
        return calls

    def assert_fsum_bits(self, block):
        block = np.asarray(block, dtype=float)
        got = _row_fsums(block)
        assert got.shape == (len(block),)
        assert got.view(np.int64).tolist() == fsum_bits(block)

    def test_exact_after_two_passes(self, fsum_calls):
        rng = np.random.default_rng(31)
        block = rng.gamma(2.0, size=(409, 10))
        self.assert_fsum_bits(block)
        self.assert_fsum_bits(np.abs(block - block.mean(axis=1, keepdims=True)))
        assert fsum_calls == []

    def test_leftovers_go_to_fsum_of_the_parts(self, fsum_calls):
        # a wide exponent spread leaves remainders below the second pass's grid
        row = np.ldexp(np.random.default_rng(32).uniform(0.5, 1.0, 40), np.arange(-100, 100, 5))
        self.assert_fsum_bits(row[None, :])
        assert len(fsum_calls) == 1 and 2 < len(fsum_calls[0]) < len(row) + 2
        assert math.fsum(fsum_calls[0]) == math.fsum(row.tolist())

    @pytest.mark.parametrize("n", [1, 2, 10, 50_000])
    def test_sizes(self, n):
        rng = np.random.default_rng(33)
        for r in ((1, 3) if n > 10 else (1, 409)):
            self.assert_fsum_bits(rng.lognormal(0.0, 5.0, size=(r, n)) * rng.choice([-1.0, 1.0], size=(r, n)))

    def test_empty_block(self):
        self.assert_fsum_bits(np.empty((0, 10)))

    def test_seeded_spreads(self):
        # normals, +-lognormal(0, 5), exponents from -1070 to 1000, subnormals
        rng = np.random.default_rng(34)
        for n in (1, 2, 3, 10, 120, 4096):
            r = max(1, 4096 // n)
            sign = rng.choice([-1.0, 1.0], size=(r, n))
            for block in (rng.normal(size=(r, n)),
                          sign * rng.lognormal(0.0, 5.0, size=(r, n)),
                          sign * np.ldexp(rng.uniform(0.5, 1.0, (r, n)), rng.integers(-1070, 1000, (r, n))),
                          sign * np.ldexp(rng.uniform(0.5, 1.0, (r, n)), rng.integers(-1074, -1000, (r, n)))):
                self.assert_fsum_bits(block)

    def test_cancellation_to_zero(self):
        x = np.random.default_rng(35).lognormal(0.0, 3.0, size=(6, 20))
        block = np.concatenate([x, -x[:, ::-1]], axis=1)
        block[5] = -0.0
        self.assert_fsum_bits(block)
        assert _row_fsums(block).view(np.int64).tolist() == [0] * 6  # +0.0, as fsum gives
        self.assert_fsum_bits([[5e-324, -5e-324], [1e308, -1e308], [-0.0, 0.0]])

    def test_overflow_guard(self, fsum_calls):
        # n = 2 sums with sigma = 2**(e + 2): 2**1021 has e = 1022 and is summed by
        # fsum, its predecessor has e = 1021 and sigma = 2**1023, the largest power
        top = 2.0 ** 1021
        below = np.nextafter(top, 0.0)
        self.assert_fsum_bits([[below, below], [below, -below / 3]])
        assert fsum_calls == []
        self.assert_fsum_bits([[top, top], [top, -top / 3]])
        assert fsum_calls == [[top, top], [top, -top / 3]]

    def test_overflowing_sum_raises(self):
        for row in ([1.7e308, 1.7e308], [1.7e308, 1e308, -1e308]):  # the second overflows inside fsum
            with pytest.raises(OverflowError):
                math.fsum(row)
            with pytest.raises(OverflowError):
                _row_fsums(np.array([[1.0] * len(row), row]))
        with pytest.raises(ValueError, match="^sample values too large"):
            i_hat_fast(np.array([[2.0 ** 1021, 2.0 ** 1020], [1.7e308, 1.7e308]]), [0.0, 0.5, 1.0])
        assert np.isfinite(i_hat_fast([2.0 ** 1021, 2.0 ** 1020], [0.0, 0.5, 1.0])).all()
        block = np.random.default_rng(38).gamma(2.0, size=(5, 2))
        block[3] = 1.7e308  # inside an ordinary block
        with pytest.raises(OverflowError):
            _row_fsums(block)
        with pytest.raises(ValueError, match="^sample values too large"):
            i_hat_fast(block, [0.5, 0.0, 1.0])

    def test_non_finite_rows(self, fsum_calls):
        # a block holding inf or nan goes to fsum row by row, so its ordinary rows keep
        # their exact sums beside it, and inf - inf raises as fsum raises it
        ordinary = [[1e300, 1.0, -1e300], [0.5, 0.25, -0.125]]
        for bad in ([np.inf, 1.0, 0.0], [np.nan, 1.0, 0.0], [-np.inf, 2.0, 1e308]):
            block = np.array([ordinary[0], bad, ordinary[1]])
            self.assert_fsum_bits(block)
            assert len(fsum_calls) == 3
            del fsum_calls[:]
        with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
            math.fsum([np.inf, -np.inf])
        with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
            _row_fsums(np.array([ordinary[0], [np.inf, -np.inf, 0.0], ordinary[1]]))

    def test_route_depends_on_the_block(self, fsum_calls):
        # sigma is set by the block's largest row, so rows 2**400 below it leave
        # remainders in the block and reach fsum there, not when summed alone
        rows = np.random.default_rng(36).gamma(2.0, size=(3, 10)) * np.ldexp(1.0, [[400], [0], [-400]])
        self.assert_fsum_bits(rows)
        assert len(fsum_calls) == 2
        assert [math.fsum(call) for call in fsum_calls] == [math.fsum(row) for row in rows[1:].tolist()]
        del fsum_calls[:]
        for row in rows:
            self.assert_fsum_bits(row[None, :])
        assert fsum_calls == []

    def test_one_huge_row_sends_the_block_to_fsum(self, fsum_calls):
        # 2**1021 with n = 10 needs sigma = 2**1026: every row is summed by fsum
        block = np.random.default_rng(37).gamma(2.0, size=(4, 10))
        block[2, 3] = 2.0 ** 1021
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            self.assert_fsum_bits(block)
        assert fsum_calls == block.tolist()

    def test_subnormal_guard(self, fsum_calls):
        # sigma = 2**k needs a normal half-ulp 2**(k - 53): k >= -969 on both passes.
        # n = 2 has k = e + 2 on the first and e + 2 - 52 + 2 = e - 48 on the second, so
        # the second sets the bound: 2**-922 (e = -921) stays on the fast path, 2**-923 not
        self.assert_fsum_bits([[2.0 ** -922, 2.0 ** -922], [2.0 ** -922, -3 * 2.0 ** -925]])
        assert fsum_calls == []
        self.assert_fsum_bits([[2.0 ** -923, 2.0 ** -923]])
        assert fsum_calls == [[2.0 ** -923, 2.0 ** -923]]
        # the same bound with a remainder: x = (1 - 2**-53) 2**e leaves -2**(e - 53) to
        # the second pass, which extracts it exactly at e = -921 and is refused at e = -922
        del fsum_calls[:]
        x = np.nextafter(2.0 ** -921, 0.0)
        self.assert_fsum_bits([[x, x]])
        assert fsum_calls == []
        x = np.nextafter(2.0 ** -922, 0.0)
        self.assert_fsum_bits([[x, x]])
        assert fsum_calls == [[x, x]]

    @pytest.mark.parametrize("n", [2, 3, 10, 120])
    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.2])
    def test_small_gamma_shapes(self, alpha, n):
        # raw gamma blocks at small shapes span hundreds of binades, so many rows
        # leave remainders below the second pass's grid and go to fsum of their parts
        rng = np.random.default_rng(39)
        block = rng.gamma(alpha, size=(4096 // n, n))
        self.assert_fsum_bits(block)
        self.assert_fsum_bits(np.abs(block - block.mean(axis=1, keepdims=True)))
        block[len(block) // 2] = 1.7e308  # one overflowing row among them
        with pytest.raises(OverflowError):
            _row_fsums(block)

    @settings(max_examples=300, deadline=None)
    @given(float_blocks())
    def test_arbitrary_finite_rows(self, block):
        try:
            want = fsum_bits(block)
        except OverflowError:
            with pytest.raises(OverflowError):
                _row_fsums(block)
            return
        assert _row_fsums(block).view(np.int64).tolist() == want


class TestRepeatedWeights:
    LAMS = [0.5, 0.0, 0.5, 1.0, 0.0]

    @pytest.fixture
    def row_sums(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.shape)
            return _row_fsums(a)
        monkeypatch.setattr(estimators, "_row_fsums", counted)
        return calls

    def test_equal_to_scalar_calls(self):
        rng = np.random.default_rng(41)
        for x in (rng.gamma(0.7, size=300), rng.gamma(0.7, size=(7, 300))):
            got = np.asarray(i_hat_fast(x, self.LAMS))
            want = np.array([[i_hat_fast(row, lam) for lam in self.LAMS] for row in np.atleast_2d(x)])
            assert got.reshape(want.shape).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_each_distinct_weight_is_summed_once(self, row_sums):
        # the mean, the deviations, the one interior weight and Gini
        i_hat_fast(np.random.default_rng(42).gamma(2.0, size=(7, 50)), self.LAMS)
        assert row_sums == [(7, 50)] * 4

    def test_endpoints_build_only_what_they_need(self, row_sums):
        # Hoover sums the deviations and Gini its ranks: one row sum each after the mean
        x = np.random.default_rng(43).gamma(2.0, size=50)
        h_hat(x)
        g_hat(x)
        i_hat_fast(x, [0.0, 1.0])
        assert row_sums == [(1, 50)] * 7
