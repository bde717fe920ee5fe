import math

import numpy as np
import pytest

from ineqbridge import (BiasQuery, GammaParams, SimConfig, expected_i_hat, g_hat, gamma_gini, gamma_hoover,
                        gamma_index, gamma_sample, h_hat, i_hat, i_hat_fast, run_scenario, tilting_lemma_check)
from ineqbridge.index_core import lambda_grid

E = GammaParams(1.0, 1.0)
GOOD = {"alpha": 2.0, "lam": 0.5, "n": 10, "count": 10, "grid_size": 5, "draws": 10, "a": 1.0, "z": 1.0}

# every entry point that takes a shape, a weight, a sample size, a count or a
# tilting argument, with the parameters it takes
ENTRY_POINTS = [
    ("gamma_index", lambda alpha, lam, **_: gamma_index(alpha, lam), {"alpha", "lam"}),
    ("gamma_hoover", lambda alpha, **_: gamma_hoover(alpha), {"alpha"}),
    ("gamma_gini", lambda alpha, **_: gamma_gini(alpha), {"alpha"}),
    ("BiasQuery", lambda alpha, lam, n, **_: BiasQuery(alpha=alpha, lam=lam, n=n), {"alpha", "lam", "n"}),
    ("SimConfig", lambda alpha, lam, n, **_: SimConfig(alpha=alpha, lam=lam, n=n, reps=10, seed=1),
     {"alpha", "lam", "n"}),
    ("gamma_sample", lambda count, **_: gamma_sample(E, np.random.default_rng(0), count), {"count"}),
    ("lambda_grid", lambda grid_size, **_: lambda_grid(grid_size), {"grid_size"}),
    ("tilting_lemma_check", lambda a, z, draws, **_: tilting_lemma_check(a, 0.0, 1.0, z, E, E, E, draws),
     {"a", "z", "draws"}),
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
