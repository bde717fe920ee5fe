import math

import pytest

from ineqbridge import BiasQuery, SimConfig, gamma_gini, gamma_hoover, gamma_index

# every public entry point that takes a shape, a weight or a sample size,
# with the parameters it takes
ENTRY_POINTS = [
    ("gamma_index", lambda alpha, lam, n: gamma_index(alpha, lam), {"alpha", "lam"}),
    ("gamma_hoover", lambda alpha, lam, n: gamma_hoover(alpha), {"alpha"}),
    ("gamma_gini", lambda alpha, lam, n: gamma_gini(alpha), {"alpha"}),
    ("BiasQuery", lambda alpha, lam, n: BiasQuery(alpha=alpha, lam=lam, n=n), {"alpha", "lam", "n"}),
    ("SimConfig", lambda alpha, lam, n: SimConfig(alpha=alpha, lam=lam, n=n, reps=10, seed=1),
     {"alpha", "lam", "n"}),
]

BAD_INPUTS = (
    [("alpha", bad, f"shape must be finite and > 0, got {bad!r}")
     for bad in (0.0, -1.0, math.nan, math.inf)]
    + [("lam", bad, f"interpolation weight must lie in [0, 1], got {bad!r}")
       for bad in (-0.1, 1.5, math.nan)]
    + [("n", bad, f"sample size must be an integer >= 2, got {bad!r}") for bad in (1, 2.5)]
)


@pytest.mark.parametrize("param, bad, message", BAD_INPUTS)
def test_bad_input_gives_one_message_from_every_entry(param, bad, message):
    args = {"alpha": 2.0, "lam": 0.5, "n": 10, param: bad}
    for name, call, takes in ENTRY_POINTS:
        if param not in takes:
            continue
        with pytest.raises(ValueError) as exc:
            call(**args)
        assert str(exc.value) == message, name
