"""Monte Carlo study of the plug-in estimator under gamma populations.

Each scenario fixes (shape, weight, sample size, replication count, seed)
and cuts its replications into blocks of B = max(1, 4096 // n).  Block b is
one gamma call on the counter-based Philox stream with key seed and counter
(0, 0, 0, b) (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2,
3"), and replication r is row r mod B of block r // B.  numpy fills the draw
in C order, so a block's first rows do not depend on its length and a short
last block holds the same rows: results depend only on (seed, n, r) and not
on the order in which blocks or scenarios run.  b sits in the counter's top
word, 2^192 blocks away from the next stream.  The truth is the gamma closed
form, computed once per scenario.

One loop, in _scenario, draws and estimates a scenario, memoized by its
config.  It makes one estimator call per block with the weights (lam, 0, 1),
which sorts each sample once for the I, H and G estimates, so the fixed cost
of a gamma or estimator call is shared by about 4,096 sample values instead
of paid per replication.  Each row's estimate equals the estimate of that
sample alone, bit for bit.  The summary carries the bias of the bridging
estimator and `bias_j`, the bias of the convex-combination estimator
(1-lam)*H_hat + lam*G_hat against (1-lam)*H + lam*G, which `compare_i_vs_j`
and `format_table(..., compare_j=True)` read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._checks import check_count, check_lambda, check_positive, check_seed
from .distributions import GammaParams, gamma_sample
# h_hat and g_hat run nowhere here: perfbench/tracer.py wraps them in this module by name
from .estimators import _row_fsums, g_hat, h_hat, i_hat_fast  # noqa: F401
from .index_core import gamma_gini, gamma_hoover, gamma_index, j_index

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
        object.__setattr__(self, "alpha", check_positive("shape", self.alpha))
        object.__setattr__(self, "lam", check_lambda(self.lam))
        # n, reps and seed are stored as int: range, reshape and the Philox key take no float
        object.__setattr__(self, "n", check_count("sample size", self.n, 2))
        object.__setattr__(self, "reps", check_count("replication count", self.reps, 1))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class SimSummary:
    config: SimConfig
    truth: float
    mean: float
    bias: float
    mse: float
    variance: float
    bias_j: float

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


def _block(config: SimConfig, b: int, rows: int) -> np.ndarray:
    """The (rows, n) samples of block b: one gamma_sample call on the Philox
    stream with key seed and counter (0, 0, 0, b), filled row by row, so the
    first rows are the same whatever `rows` is."""
    rng = np.random.Generator(np.random.Philox(key=config.seed, counter=[0, 0, 0, b]))
    return gamma_sample(GammaParams(config.alpha, 1.0), rng, rows * config.n).reshape(rows, config.n)


def summarize(estimates, truth: float) -> tuple[float, float, float, float]:
    """Replication summary (mean, bias, MSE (1/R), variance (1/(R-1))).

    Exact sums from the estimators' row-sum kernel, of squares by C pow: each figure equals
    math.fsum of Python's ** 2 bit for bit, and a square that overflows raises OverflowError.
    A single replication has no variance information; its variance is defined as 0.
    """
    e = np.asarray(estimates, dtype=float).reshape(1, -1)
    if e.size == 0:
        raise ValueError("summarize needs at least one estimate")
    truth = float(truth)
    r = e.size
    mean = float(_row_fsums(e)[0]) / r
    with np.errstate(over="ignore"):  # raised below, as ** 2 raises it; d * d would round differently
        squares = np.float_power(np.concatenate((e - truth, e - mean)), 2.0)
    if not np.isfinite(squares).all():  # ** 2 raises here; the kernel would sum an inf as fsum does
        raise OverflowError("a squared deviation from the truth or the mean overflows a float")
    mse, variance = (_row_fsums(squares) / (r, max(r - 1, 1))).tolist()
    return mean, mean - truth, mse, variance


@lru_cache(maxsize=None)
def _scenario(config: SimConfig) -> SimSummary:
    """Summary of the bridging estimates and bias of the J estimates, in one pass."""
    lam = config.lam
    truth = _cached_truth(config.alpha, lam)
    truth_j = j_index(gamma_hoover(config.alpha), gamma_gini(config.alpha), lam)
    rows = max(1, _BLOCK_VALUES // config.n)
    # one call per block gives I, H and G; each column equals the scalar call bit for bit
    est = [i_hat_fast(_block(config, b, min(rows, config.reps - first)), [lam, 0.0, 1.0])
           for b, first in enumerate(range(0, config.reps, rows))]
    est_i, h, g = np.concatenate(est).T
    bias_j = float(_row_fsums(((1.0 - lam) * h + lam * g)[None, :])[0]) / config.reps - truth_j
    return SimSummary(config, truth, *summarize(est_i, truth), bias_j)


def run_scenario(config: SimConfig) -> SimSummary:
    """Run one scenario and summarize the replications against the truth."""
    # an equal config (-0.0 == 0.0) may have filled the memo; report this one
    return replace(_scenario(config), config=config)


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
    estimator (1-lam)*H_hat + lam*G_hat, from run_scenario's memoized pass;
    at the endpoints the two indices coincide and both truths use the same
    closed form, so the two biases are identical there."""
    s = _scenario(config)
    return s.bias, s.bias_j


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


def format_table(summaries, digits: int = 4, compare_j: bool = False) -> str:
    """Aligned text table: alpha, lambda, n, truth, mean, bias, MSE, variance.

    `compare_j` adds the columns BiasI and BiasJ, the biases of the bridging
    and convex-combination estimators.  Degenerate single-replication rows
    are flagged with a trailing marker.
    """
    cols = ["alpha", "lambda", "n", "I", "Mean", "Bias", "MSE", "Var"]
    if compare_j:
        cols += ["BiasI", "BiasJ"]
    rows = []
    any_degenerate = False
    for s in summaries:
        c = s.config
        values = [s.truth, s.mean, s.bias, s.mse, s.variance]
        if compare_j:
            values += [s.bias, s.bias_j]
        row = [f"{c.alpha:g}", f"{c.lam:g}", str(c.n)] + [f"{v:.{digits}f}" for v in values]
        if s.degenerate:
            row[-1] += " *"
            any_degenerate = True
        rows.append(row)
    widths = [max(len(cols[i]), max((len(r[i]) for r in rows), default=0)) for i in range(len(cols))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(cols, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    if any_degenerate:
        lines.append("* variance degenerate (single replication)")
    return "\n".join(lines)
