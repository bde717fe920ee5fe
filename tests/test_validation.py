import math

import numpy as np
import pytest

from ineqbridge import (BiasQuery, DiscreteDist, GammaParams, GHypoParams, SimConfig, expected_i_hat, g_hat,
                        gamma_gini, gamma_hoover, gamma_index, gamma_sample, ghypo_cdf, h_hat, i_hat, i_hat_fast,
                        run_scenario, tilting_lemma_check)
from ineqbridge._checks import check_count, check_points
from ineqbridge.index_core import lambda_grid
from ineqbridge.specfun import reg_gamma_q

E = GammaParams(1.0, 1.0)
GOOD = {"alpha": 2.0, "lam": 0.5, "n": 10, "count": 10, "grid_size": 5, "draws": 10, "a": 1.0, "z": 1.0, "seed": 1}

# every entry point that takes a shape, a weight, a sample size, a count, a seed
# or a tilting argument, with the parameters it takes
ENTRY_POINTS = [
    ("gamma_index", lambda alpha, lam, **_: gamma_index(alpha, lam), {"alpha", "lam"}),
    ("gamma_hoover", lambda alpha, **_: gamma_hoover(alpha), {"alpha"}),
    ("gamma_gini", lambda alpha, **_: gamma_gini(alpha), {"alpha"}),
    ("BiasQuery", lambda alpha, lam, n, **_: BiasQuery(alpha=alpha, lam=lam, n=n), {"alpha", "lam", "n"}),
    ("SimConfig", lambda alpha, lam, n, seed, **_: SimConfig(alpha=alpha, lam=lam, n=n, reps=10, seed=seed),
     {"alpha", "lam", "n", "seed"}),
    ("gamma_sample", lambda count, **_: gamma_sample(E, np.random.default_rng(0), count), {"count"}),
    ("lambda_grid", lambda grid_size, **_: lambda_grid(grid_size), {"grid_size"}),
    ("tilting_lemma_check", lambda a, z, draws, seed, **_: tilting_lemma_check(a, 0.0, 1.0, z, E, E, E, draws, seed),
     {"a", "z", "draws", "seed"}),
]

BAD_INPUTS = (
    [("alpha", bad, f"shape must be finite and > 0, got {bad!r}")
     for bad in (0.0, -1.0, math.nan, math.inf)]
    + [("lam", bad, f"interpolation weight must lie in [0, 1], got {bad!r}")
       for bad in (-0.1, 1.5, math.nan)]
    + [("n", bad, f"sample size must be an integer >= 2, got {bad!r}") for bad in (1, 2.5)]
    + [(param, bad, f"{param} must be an integer >= {least}, got {bad!r}")
       for param, least, bad in (("count", 1, 2.7), ("count", 1, math.inf), ("grid_size", 2, 2.9),
                                 ("draws", 2, 2.5), ("draws", 2, math.inf))]
    + [("a", math.inf, "a must be finite and >= 0, got inf"), ("z", math.inf, "z must be finite and > 0, got inf")]
    # what float() refuses names its argument as any other bad value does
    + [("alpha", bad, f"shape must be finite and > 0, got {bad!r}") for bad in (None, "two")]
    + [("lam", bad, f"interpolation weight must lie in [0, 1], got {bad!r}") for bad in (None, "half")]
    + [("n", bad, f"sample size must be an integer >= 2, got {bad!r}") for bad in (None, "ten", "2.5")]
    + [(param, bad, f"{param} must be an integer >= {least}, got {bad!r}")
       for param, least in (("count", 1), ("grid_size", 2), ("draws", 2)) for bad in (None, "ten")]
    + [("z", None, "z must be finite and > 0, got None")]
    # an int too large for a float, too
    + [("alpha", 10 ** 400, f"shape must be finite and > 0, got {10 ** 400!r}"),
       ("n", 10 ** 400, f"sample size must be an integer >= 2, got {10 ** 400!r}")]
    + [(param, 10 ** 400, f"{param} must be an integer >= {least}, got {10 ** 400!r}")
       for param, least in (("count", 1), ("grid_size", 2), ("draws", 2))]
    # a seed is an integer in [0, 2**64), compared exactly
    + [("seed", bad, f"seed must be a 64-bit unsigned integer, got {bad!r}")
       for bad in (1.5, -1, 2 ** 64, math.nan, math.inf, None, "3")]
)


@pytest.mark.parametrize("param, bad, message", BAD_INPUTS)
def test_bad_input_gives_one_message_from_every_entry(param, bad, message):
    args = {**GOOD, param: bad}
    for name, call, takes in ENTRY_POINTS:
        if param not in takes:
            continue
        with pytest.raises(ValueError) as exc:
            call(**args)
        assert str(exc.value) == message, name


@pytest.mark.parametrize("shape", [(), (2, 3, 4)])
def test_sample_shape_gives_one_message_from_every_estimator(shape):
    # one sample is 1-D, a block of samples is 2-D with one sample per row
    estimators = [("i_hat", lambda v: i_hat(v, 0.5)), ("i_hat_fast", lambda v: i_hat_fast(v, 0.5)),
                  ("h_hat", h_hat), ("g_hat", g_hat)]
    for name, est in estimators:
        with pytest.raises(ValueError) as exc:
            est(np.ones(shape))
        assert str(exc.value) == f"sample must be 1-D, or 2-D with one sample per row, got shape {shape}", name


@pytest.mark.parametrize("field", ["n", "reps", "seed"])
def test_sim_config_stores_whole_numbers_as_int(field):
    args = {"alpha": 1.0, "lam": 0.5, "n": 10, "reps": 10, "seed": 1}
    whole = SimConfig(**args)
    args[field] = float(args[field])
    config = SimConfig(**args)
    assert type(getattr(config, field)) is int
    assert run_scenario(config) == run_scenario(whole)


@pytest.mark.parametrize("config, field, given, stored", [
    ("BiasQuery", "alpha", "2", 2.0), ("BiasQuery", "n", 10.0, 10), ("SimConfig", "alpha", "2", 2.0),
    ("BiasQuery", "n", "10", 10), ("BiasQuery", "lam", "0.5", 0.5), ("SimConfig", "n", "10", 10),
    ("SimConfig", "reps", "10", 10),
])
def test_configs_store_the_checked_value(config, field, given, stored):
    make, run = {"BiasQuery": (BiasQuery, expected_i_hat), "SimConfig": (SimConfig, run_scenario)}[config]
    args = {"alpha": 2.0, "lam": 0.5, "n": 10} | ({"reps": 10, "seed": 1} if config == "SimConfig" else {})
    checked = make(**{**args, field: given})
    assert type(getattr(checked, field)) is type(stored) and getattr(checked, field) == stored
    assert run(checked) == run(make(**args))


# every name check_count is called with, and the least count it takes
COUNTS = [("sample size", 2), ("replication count", 1), ("count", 1), ("draws", 2), ("grid_size", 2)]


@pytest.mark.parametrize("name, least", COUNTS)
@pytest.mark.parametrize("given", [2 ** 53 + 1, np.int64(7)], ids=["2**53+1", "int64(7)"])
def test_integer_counts_are_kept_exactly(name, least, given):
    # 2**53 + 1 has no float of its own, so a count taken through float() would be 2**53
    count = check_count(name, given, least)
    assert type(count) is int and count == int(given)


def test_configs_store_an_integer_count_exactly():
    big = 2 ** 53 + 1
    assert BiasQuery(alpha=2.0, lam=0.5, n=big).n == big
    config = SimConfig(alpha=2.0, lam=0.5, n=big, reps=big, seed=1)
    assert (config.n, config.reps) == (big, big)


G = GHypoParams(2.0, 1.0, 3.0, 2.0)

# every entry point that takes an array of points, the name it gives them and the context it adds
ARRAY_ENTRY_POINTS = [
    ("reg_gamma_q", lambda x: reg_gamma_q(2.0, x), "x must be finite and >= 0, got {} at s=2.0"),
    ("ghypo_cdf", lambda x: ghypo_cdf(G, x), "t must be finite and >= 0, got {} at g=" + repr(G)),
    ("i_hat", lambda x: i_hat(x, 0.5), "sample values must be finite and >= 0, got {}"),
    ("i_hat_fast", lambda x: i_hat_fast(x, 0.5), "sample values must be finite and >= 0, got {}"),
    ("h_hat", h_hat, "sample values must be finite and >= 0, got {}"),
    ("g_hat", g_hat, "sample values must be finite and >= 0, got {}"),
    ("DiscreteDist", lambda x: DiscreteDist([(v, 0.5) for v in x]), "atom value must be finite and >= 0, got {}"),
]


@pytest.mark.parametrize("bad", [10 ** 400, "ten", -1.0, math.nan], ids=["10**400", "ten", "-1.0", "nan"])
def test_bad_array_entry_gives_the_named_message(bad):
    # an entry float() refuses gets the message a negative or non-finite one gets
    for name, call, message in ARRAY_ENTRY_POINTS:
        with pytest.raises(ValueError) as exc:
            call([1.0, bad])
        assert str(exc.value) == message.format(repr(bad)), name


@pytest.mark.parametrize("make", [set, frozenset, iter, lambda v: (x for x in v)],
                         ids=["set", "frozenset", "iterator", "generator"])
def test_point_collections_are_read_as_lists(make):
    # the items of any collection of numbers, not the collection as one bad point
    values = [3.0, 1.0, 2.0]
    assert sorted(check_points(make(values), "x", ndim=1).tolist()) == sorted(values)
    assert i_hat(make(values), 0.5) == i_hat(values, 0.5)
    for name, call, message in ARRAY_ENTRY_POINTS:
        with pytest.raises(ValueError) as exc:
            call(make([1.0, -1.0]))
        assert str(exc.value) == message.format("-1.0"), name


@pytest.mark.parametrize("call, values", [
    (lambda x: reg_gamma_q(2.0, x), [[0.0, 0.5], [2.0, 7.5]]),
    (lambda x: ghypo_cdf(G, x), [[0.0, 0.5], [2.0, 7.5]]),
    # past the series budget, so the points below the mass's end take the convolution one by one
    (lambda x: ghypo_cdf(GHypoParams(1e4, 1.0, 1e4, 2.0), x), [[14000.0, 15000.0], [16000.0, 30000.0]]),
], ids=["reg_gamma_q", "ghypo_cdf", "ghypo_cdf convolution"])
def test_points_keep_their_shape(call, values):
    pointwise = [[call(v) for v in row] for row in values]
    for x in (values[0][1], np.float64(values[0][1]), np.array(values[0][1])):
        out = call(x)
        assert type(out) is float and out == pointwise[0][1]
    for x, expected in ((values[:1], pointwise[:1]), (values, pointwise), (np.asfortranarray(values), pointwise)):
        out = call(x)
        assert out.shape == np.shape(x)
        assert out.tolist() == expected


@pytest.mark.parametrize("call, message", [
    (lambda: DiscreteDist([([1.0, 2.0], 0.5), ([3.0, 4.0], 0.5)]), "atom value must be one number, got [1.0, 2.0]"),
    (lambda: DiscreteDist([([1.0], 0.5), ([3.0], 0.5)]), "atom value must be one number, got [1.0]"),
    (lambda: DiscreteDist([([1.0, 2.0], 0.5), (3.0, 0.5)]), "atom value must be one number, got [1.0, 2.0]"),
    (lambda: DiscreteDist([(3.0, 0.5), ([1.0], 0.5)]), "atom value must be one number, got [1.0]"),
    (lambda: tilting_lemma_check([1.0, 2.0], 0.0, 1.0, 1.0, E, E, E, 10), "a must be one number, got [1.0, 2.0]"),
    (lambda: tilting_lemma_check([[1.0]], 0.0, 1.0, 1.0, E, E, E, 10), "a must be one number, got [[1.0]]"),
    (lambda: tilting_lemma_check(1.0, np.array([0.0]), 1.0, 1.0, E, E, E, 10), "b must be one number, got [0.0]"),
    (lambda: tilting_lemma_check(1.0, 0.0, [1.0], 1.0, E, E, E, 10), "c must be one number, got [1.0]"),
], ids=["atoms of two", "atoms of one", "ragged atoms", "ragged atom of one",
        "a of two", "a nested", "b array", "c list"])
def test_one_number_arguments_refuse_arrays(call, message):
    # an array, even of one entry, is not one number
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
