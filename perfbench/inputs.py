"""Seeded inputs for the four benchmark workloads.

Everything here depends only on the workload name, the seed and the size
arguments; nothing imports ineqbridge, so the program under test sees only
the generated inputs.  Inputs are plain JSON-serializable dicts, except the
`estimate_csv` column, which is written as a CSV file into a work directory
the caller owns and removes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("bias_table", "mc_grid", "estimate_csv", "index_grid")

# Cells beyond the 75-cell reference grid: n = 2 (the single-gamma branch),
# lambda near 1 and large n, where a faster bias route has to fall back.
EDGE_CELLS = ((0.5, 0.25, 2), (5.0, 0.5, 2), (0.5, 0.9, 40), (2.0, 0.999, 40), (1.0, 0.5, 250))

MC_REPS = 1000

CSV_ROWS = 50_000
CSV_COLUMN = "income"
# Bad cells injected into the income column, each counted once by the CLI's
# "skipped N row(s)" message.
CSV_BAD_CELLS = {"blank": 500, "text": 500, "negative": 500}
CSV_PATH_POINTS = 21

INDEX_ALPHAS = (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 1e3, 1e4)
INDEX_GRID_POINTS = 21
ORACLE_CASES = 200


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def mc_reference_rows() -> list[dict]:
    """The 75 reference cells as dicts keyed by the table's column names."""
    doc = load_reference("mc_reference.json")
    return [dict(zip(doc["columns"], row)) for row in doc["rows"]]


def index_lambdas(points: int = INDEX_GRID_POINTS) -> list[float]:
    # the grid `lambda_path` (and so `index --grid`) evaluates
    return [i / (points - 1) for i in range(points)]


def bias_table_inputs(seed: int, cells=None) -> dict:
    if cells is None:
        cells = [(r["alpha"], r["lam"], r["n"]) for r in mc_reference_rows()] + list(EDGE_CELLS)
    order = np.random.default_rng(seed).permutation(len(cells))
    return {"cells": [list(cells[i]) for i in order]}


def mc_grid_inputs(seed: int, rows=None, reps: int = MC_REPS) -> dict:
    if rows is None:
        rows = mc_reference_rows()
    seeds = np.random.SeedSequence(seed).generate_state(len(rows), dtype=np.uint64)
    cells = [[r["alpha"], r["lam"], r["n"], reps, int(s)] for r, s in zip(rows, seeds)]
    # seeded order, as in bias_table_inputs, so that similar cells do not all
    # share one stretch of the host's speed
    return {"cells": [cells[i] for i in np.random.default_rng(seed).permutation(len(cells))]}


def _income_cells(rng: np.random.Generator, rows: int, bad: dict) -> tuple[list[str], np.ndarray]:
    # lognormal incomes in whole cents, so each cell's text parses to one exact double
    cents = np.maximum(np.rint(rng.lognormal(10.0, 0.9, size=rows) * 100.0), 1).astype(np.int64)
    cells = [f"{c // 100}.{c % 100:02d}" for c in cents.tolist()]
    n_bad = sum(bad.values())
    where = rng.choice(rows, size=n_bad, replace=False)
    k = 0
    for kind, count in bad.items():
        for pos in where[k:k + count].tolist():
            if kind == "blank":
                cells[pos] = ""
            elif kind == "text":
                cells[pos] = "n/a"
            else:
                cells[pos] = "-" + cells[pos]
        k += count
    good = np.ones(rows, dtype=bool)
    good[where] = False
    values = np.array([cells[i] for i in np.flatnonzero(good).tolist()], dtype=float)
    return cells, values


def estimate_csv_inputs(seed: int, workdir: Path, rows: int = CSV_ROWS, bad=None) -> dict:
    """Write the CSV and return its path with the independently computed answers."""
    bad = dict(CSV_BAD_CELLS if bad is None else bad)
    rng = np.random.default_rng(seed)
    cells, values = _income_cells(rng, rows, bad)
    path = Path(workdir) / f"incomes_{seed}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"id,{CSV_COLUMN}\n")
        fh.write("".join(f"{i},{c}\n" for i, c in enumerate(cells)))
    hoover, gini = reference_hoover_gini(values)
    return {
        "path": str(path), "column": CSV_COLUMN, "rows": rows, "path_points": CSV_PATH_POINTS,
        "expected": {"hoover": hoover, "gini": gini, "skipped": sum(bad.values())},
    }


def reference_hoover_gini(x: np.ndarray) -> tuple[float, float]:
    """Hoover and Gini estimators by numpy formulas independent of the package.

    Hoover: sum |x - mean| / (2 n mean).  Gini with the n(n-1) pair count,
    from the rank form 2 sum_i i x_(i) / (n sum x) - (n+1)/n, rescaled by
    n/(n-1).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    total = float(np.sum(x))
    mean = total / n
    hoover = float(np.sum(np.abs(x - mean))) / (2.0 * n * mean)
    ranks = np.arange(1, n + 1, dtype=float)
    gini_n2 = 2.0 * float(np.dot(ranks, np.sort(x))) / (n * total) - (n + 1.0) / n
    return hoover, gini_n2 * n / (n - 1.0)


def _random_atoms(rng: np.random.Generator) -> list[list[float]]:
    n_atoms = int(rng.integers(3, 9))
    values = np.unique(np.round(rng.uniform(0.0, 20.0, size=n_atoms), 6))
    while values.size < n_atoms:
        values = np.unique(np.concatenate([values, np.round(rng.uniform(0.0, 20.0, size=n_atoms), 6)]))
    values = values[:n_atoms]
    raw = rng.uniform(0.1, 1.0, size=n_atoms)
    probs = raw / math.fsum(raw.tolist())
    return [[v, p] for v, p in zip(values.tolist(), probs.tolist())]


def index_grid_inputs(seed: int, alphas=INDEX_ALPHAS, points: int = INDEX_GRID_POINTS,
                      oracle_cases: int = ORACLE_CASES) -> dict:
    rng = np.random.default_rng(seed)
    oracle = []
    for _ in range(oracle_cases):
        atoms = _random_atoms(rng)
        oracle.append({"atoms": atoms, "lam": float(rng.uniform(0.0, 1.0))})
    lambdas = index_lambdas(points)
    # seeded order, so that the values of one shape are spread over the pass:
    # timed back to back, a shape's values shared one stretch of the host's
    # speed, and the median, which falls between two shapes, moved with it
    pairs = [[alpha, lam] for alpha in alphas for lam in lambdas]
    values = [pairs[i] for i in rng.permutation(len(pairs))]
    return {"alphas": list(alphas), "lambdas": lambdas, "values": values, "oracle": oracle}


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    if workload == "bias_table":
        return bias_table_inputs(seed)
    if workload == "mc_grid":
        return mc_grid_inputs(seed)
    if workload == "estimate_csv":
        return estimate_csv_inputs(seed, workdir)
    if workload == "index_grid":
        return index_grid_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
