"""Monte Carlo study of the plug-in estimator under gamma populations.

Each scenario fixes (shape, weight, sample size, replication count, seed);
every replication r draws its sample from the counter-based Philox stream
with key seed and counter (0, 0, 0, r) (Salmon et al. 2011, "Parallel
random numbers: as easy as 1, 2, 3"), so results depend only on (seed, r)
and not on the order in which replications or scenarios run.  r sits in
the counter's top word, 2^192 blocks away from the next stream.  The truth
is the gamma closed form, computed once per scenario.

The estimators see the replications in blocks: the samples of max(1, 4096
// n) consecutive replications are stacked as the rows of one (R, n) array,
and each estimator makes one pass over the block, so a call's fixed cost is
shared by about 4,096 sample values instead of paid per replication.  Each
row's estimate equals the estimate of that sample alone, bit for bit.
compare_i_vs_j makes one estimator call per block too: a vector of weights
gives the bridging estimate and the Hoover and Gini estimates from one sort
of each sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import GammaParams, gamma_sample
# h_hat and g_hat run nowhere here: perfbench/tracer.py wraps them in this module by name
from .estimators import g_hat, h_hat, i_hat_fast, summarize  # noqa: F401
from .index_core import (check_lambda, check_sample_size, check_shape, gamma_gini,
                         gamma_hoover, gamma_index, j_index)

__all__ = [
    "SimConfig",
    "SimSummary",
    "ScenarioFailure",
    "run_scenario",
    "run_grid",
    "compare_i_vs_j",
    "write_csv",
    "format_table",
]

CSV_HEADER = "alpha,lambda,n,R,seed,truth,mean,bias,mse,variance"

# Sample values per block handed to the estimators.  A block that grows with n
# frees and regrows heap pages every block (24,401 minor page faults in one R = 1000
# scenario at n = 1000 with 64-row blocks, 17 with these) and raises peak memory.
_BLOCK_VALUES = 4096


@dataclass(frozen=True)
class SimConfig:
    alpha: float
    lam: float
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        check_shape(self.alpha)
        check_lambda(self.lam)
        # n, reps and seed are stored as int: range, np.empty and the Philox key take no float
        object.__setattr__(self, "n", check_sample_size(self.n))
        if not (1 <= self.reps < math.inf and self.reps == int(self.reps)):
            raise ValueError(f"replication count must be an integer >= 1, got {self.reps!r}")
        object.__setattr__(self, "reps", int(self.reps))
        if not (0 <= self.seed < 2 ** 64 and self.seed == int(self.seed)):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SimSummary:
    config: SimConfig
    truth: float
    mean: float
    bias: float
    mse: float
    variance: float

    @property
    def degenerate(self) -> bool:  # a single replication has no variance information
        return self.config.reps == 1


@dataclass(frozen=True)
class ScenarioFailure:
    config: SimConfig
    message: str


@lru_cache(maxsize=None)
def _cached_truth(alpha: float, lam: float) -> float:
    return gamma_index(alpha, lam)


def _sampler(config: SimConfig):
    """draw(r), the sample of replication r.  One Philox bit generator serves
    the scenario: draw resets it to key seed, counter (0, 0, 0, r), an empty
    buffer and no cached 32-bit half, the state of a fresh Philox(key=seed,
    counter=[0, 0, 0, r]), at a fifth of the cost of building that one."""
    bits = np.random.Philox(key=config.seed)
    rng = np.random.Generator(bits)
    params = GammaParams(config.alpha, 1.0)
    state = bits.state
    counter = state["state"]["counter"]

    def draw(r: int) -> np.ndarray:
        counter[3] = r
        bits.state = state
        return gamma_sample(params, rng, config.n)

    return draw


def _replication_sample(config: SimConfig, r: int) -> np.ndarray:
    """Sample of replication r, the same as row r of a block."""
    return _sampler(config)(r)


def _replicate(config: SimConfig, estimate) -> np.ndarray:
    """estimate(block) over the replications in order, where each block stacks
    the samples of max(1, _BLOCK_VALUES // n) replications (fewer in the last)
    as the rows of an (R, n) array and estimate returns one value per row, or a
    (k, R) array of k values per row; the results are joined along their last
    axis."""
    draw = _sampler(config)
    rows = max(1, _BLOCK_VALUES // config.n)
    out = []
    for first in range(0, config.reps, rows):
        block = np.empty((min(rows, config.reps - first), config.n))
        for i in range(len(block)):
            block[i] = draw(first + i)
        out.append(estimate(block))
    return np.concatenate(out, axis=-1)


def run_scenario(config: SimConfig) -> SimSummary:
    """Run one scenario and summarize the replications against the truth."""
    truth = _cached_truth(config.alpha, config.lam)
    estimates = _replicate(config, lambda x: i_hat_fast(x, config.lam))
    stats = summarize(estimates, truth)
    return SimSummary(config=config, truth=truth, mean=stats.mean, bias=stats.bias,
                      mse=stats.mse, variance=stats.variance)


def run_grid(grid) -> list:
    """Run scenarios one after another in input order, collecting failures
    instead of raising."""
    grid = list(grid)
    if not grid:
        raise ValueError("scenario grid is empty")
    out = []
    for config in grid:
        try:
            out.append(run_scenario(config))
        except Exception as exc:
            out.append(ScenarioFailure(config=config, message=f"{type(exc).__name__}: {exc}"))
    return out


def compare_i_vs_j(config: SimConfig) -> tuple[float, float]:
    """MC bias of the bridging estimator and of the convex-combination
    estimator (1-lam)*H_hat + lam*G_hat, on the same replication samples.

    At the endpoints the two indices coincide and both truths use the same
    closed form, so the two reported biases are identical there.
    """
    lam = config.lam
    truth_i = _cached_truth(config.alpha, lam)
    truth_j = j_index(gamma_hoover(config.alpha), gamma_gini(config.alpha), lam)
    # one call per block gives I, H and G; the 0 and 1 entries equal h_hat and g_hat bit for bit
    est_i, h, g = _replicate(config, lambda x: i_hat_fast(x, [lam, 0.0, 1.0]).T)
    est_j = (1.0 - lam) * h + lam * g
    bias_i = math.fsum(est_i.tolist()) / config.reps - truth_i
    bias_j = math.fsum(est_j.tolist()) / config.reps - truth_j
    return bias_i, bias_j


def write_csv(summaries, path) -> None:
    """Write summaries in the fixed schema to the file at `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in summaries:
            c = s.config
            fh.write(",".join([
                f"{c.alpha:.17g}", f"{c.lam:.17g}", str(c.n), str(c.reps), str(c.seed),
                f"{s.truth:.17g}", f"{s.mean:.17g}", f"{s.bias:.17g}",
                f"{s.mse:.17g}", f"{s.variance:.17g}",
            ]) + "\n")


def format_table(summaries, digits: int = 4, extra=None) -> str:
    """Aligned text table: alpha, lambda, n, truth, mean, bias, MSE, variance.

    `extra` maps a config to additional (name, value) columns, e.g. the
    convex-combination comparison.  Degenerate single-replication rows are
    flagged with a trailing marker.
    """
    header = ["alpha", "lambda", "n", "I", "Mean", "Bias", "MSE", "Var"]
    rows = []
    any_degenerate = False
    extra_names: list[str] = []
    for s in summaries:
        c = s.config
        row = [f"{c.alpha:g}", f"{c.lam:g}", str(c.n),
               f"{s.truth:.{digits}f}", f"{s.mean:.{digits}f}", f"{s.bias:.{digits}f}",
               f"{s.mse:.{digits}f}", f"{s.variance:.{digits}f}"]
        if extra is not None:
            for name, value in extra(c):
                if name not in extra_names:
                    extra_names.append(name)
                row.append(f"{value:.{digits}f}")
        if s.degenerate:
            row[-1] += " *"
            any_degenerate = True
        rows.append(row)
    cols = header + extra_names
    widths = [max(len(cols[i]), max((len(r[i]) for r in rows), default=0)) for i in range(len(cols))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(cols, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    if any_degenerate:
        lines.append("* variance degenerate (single replication)")
    return "\n".join(lines)
