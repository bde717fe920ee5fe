"""Command-line front end.

Subcommands:
  index     closed-form gamma index values (single weight, grid, or endpoints)
  estimate  sample measures from a CSV column, with an optional weight path
  bias      analytic expectation and bias of the estimator for gamma samples
  simulate  Monte Carlo grid with CSV and aligned-table output

Exit codes: 0 success, 1 any failure (one `error:` line, a closed stdout too), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys

import numpy as np

from .bias_analysis import BiasQuery, expected_i_hat
# h_hat and g_hat run nowhere here: perfbench/tracer.py wraps them in this module by name
from .estimators import g_hat, h_hat, i_hat_fast  # noqa: F401
from .index_core import gamma_index, lambda_grid
from .mc_harness import (
    ScenarioFailure,
    SimConfig,
    _block,
    format_table,
    run_grid,
    write_csv,
)


def _number_list(text: str, kind: type) -> list:
    return [kind(part) for part in text.split(",") if part.strip() != ""]


def _digits(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ineqbridge",
                                     description="Hoover-Gini bridging inequality index toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="gamma population index values")
    p_index.add_argument("--alpha", type=float, required=True)
    mode = p_index.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lambda", dest="lam", type=float)
    mode.add_argument("--grid", type=int)
    mode.add_argument("--hoover", action="store_true")
    mode.add_argument("--gini", action="store_true")

    p_est = sub.add_parser("estimate", help="estimate measures from CSV data")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--column", required=True)
    p_est.add_argument("--lambdas", default="0.25,0.5,0.75")
    p_est.add_argument("--format", choices=("table", "csv"), default="table")
    p_est.add_argument("--path", type=int, default=None, metavar="G",
                       help="also emit a G-point weight grid of the estimator")
    p_est.add_argument("--quiet", action="store_true", help="suppress the skipped-row note on stderr")

    p_bias = sub.add_parser("bias", help="analytic estimator bias for gamma samples")
    p_bias.add_argument("--alpha", type=float, required=True)
    p_bias.add_argument("--lambda", dest="lam", type=float, required=True)
    p_bias.add_argument("--n", type=int, required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation grid")
    p_sim.add_argument("--alpha", required=True, help="comma-separated shape values")
    p_sim.add_argument("--lambda", dest="lam", required=True, help="comma-separated weights")
    p_sim.add_argument("--n", required=True, help="comma-separated sample sizes")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--out", default=None, help="write summaries as CSV to this path")
    p_sim.add_argument("--compare-j", action="store_true",
                       help="also report the bias of the convex-combination estimator")
    p_sim.add_argument("--dump-sample", default=None, metavar="FILE",
                       help="write the first replication sample of the first scenario as CSV")
    for p, digits in ((p_index, 6), (p_est, 3), (p_bias, 6), (p_sim, 4)):
        p.add_argument("--digits", type=_digits, default=digits, help="output decimal places")
    return parser


_FAILURES = (OSError, ValueError, RuntimeError, OverflowError)  # main's one error line; index, bias add context


def _cmd_index(args) -> int:
    lam = 0.0 if args.hoover else 1.0 if args.gini else args.lam
    where = f"grid={args.grid}" if args.grid is not None else f"lambda={lam}"
    try:
        if args.grid is not None:
            points = []
            # every value is computed before the first line is printed
            for lam in lambda_grid(args.grid):
                where = f"grid={args.grid}: lambda={lam}"
                points.append((lam, gamma_index(args.alpha, lam)))
        else:
            value = gamma_index(args.alpha, lam)
    except _FAILURES as exc:
        raise ValueError(f"alpha={args.alpha} {where}: {exc}") from None
    if args.grid is None:
        print(f"{value:.{args.digits}f}")
        return 0
    print("lambda,value")
    for lam, value in points:
        print(f"{lam:g},{value:.{args.digits}f}")
    return 0


def _read_column(path: str, column: str, quiet: bool) -> list[float]:
    values: list[float] = []
    skipped = 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError("input file is empty") from None
            names = [h.strip() for h in header]
            if column not in names:
                raise ValueError(f"column {column!r} not found; available: {', '.join(names)}")
            idx = names.index(column)
            for row in reader:
                try:
                    v = float(row[idx])
                except (IndexError, ValueError):
                    # only a row whose cell is missing or not a number can be blank
                    if all(cell.strip() == "" for cell in row):
                        continue
                    if len(row) <= idx:
                        raise ValueError(f"row {reader.line_num}: too few fields") from None
                    skipped += 1
                    continue
                if not math.isfinite(v) or v < 0.0:
                    skipped += 1
                    continue
                values.append(v)
    except csv.Error as exc:
        raise ValueError(f"malformed CSV near row {reader.line_num}: {exc}") from None
    if not quiet and skipped:
        print(f"skipped {skipped} row(s) with missing or non-numeric {column!r}", file=sys.stderr)
    if len(values) < 2:
        raise ValueError(f"need at least 2 usable rows, got {len(values)}")
    if max(values) <= 0.0:
        raise ValueError("all usable values are zero")
    return values


def _cmd_estimate(args) -> int:
    lambdas = sorted(_number_list(args.lambdas, float))
    values = np.array(_read_column(args.input, args.column, args.quiet), dtype=float)
    grid = [] if args.path is None else lambda_grid(args.path)
    # one call sorts and sums the sample once for the rows and the path, and
    # runs each distinct weight once (the path repeats the rows' weights, 0
    # and 1); its trailing 0 and 1 entries equal h_hat and g_hat bit for bit
    *estimates, hoover, gini = i_hat_fast(values, lambdas + grid + [0.0, 1.0]).tolist()
    rows = [("Hoover", hoover)] + [(f"I_{lam:g}", v) for lam, v in zip(lambdas, estimates)]
    rows.append(("Gini", gini))
    if args.format == "csv":
        print("Measure,Value")
        for name, value in rows:
            print(f"{name},{value:.{args.digits}f}")
    else:
        name_w = max(len(name) for name, _ in rows + [("Measure", 0.0)])
        print(f"{'Measure':<{name_w}}  Value")
        for name, value in rows:
            print(f"{name:<{name_w}}  {value:.{args.digits}f}")
    if args.path is not None:
        print("lambda,value")
        for lam, value in zip(grid, estimates[len(lambdas):]):
            print(f"{lam:g},{value:.{args.digits}f}")
    return 0


def _cmd_bias(args) -> int:
    try:
        q = BiasQuery(alpha=args.alpha, lam=args.lam, n=args.n)
        truth = gamma_index(q.alpha, q.lam)
        expected = expected_i_hat(q)
    except _FAILURES as exc:
        raise ValueError(f"alpha={args.alpha} lambda={args.lam} n={args.n}: {exc}") from None
    print(f"I_lambda  {truth:.{args.digits}f}")
    print(f"E[I_hat]  {expected:.{args.digits}f}")
    print(f"bias      {expected - truth:.{args.digits}f}")
    return 0


def _cmd_simulate(args) -> int:
    alphas = _number_list(args.alpha, float)
    lams = _number_list(args.lam, float)
    ns = _number_list(args.n, int)
    if not alphas or not lams or not ns:
        raise ValueError("alpha, lambda, and n lists must be non-empty")
    grid = [SimConfig(alpha=alpha, lam=lam, n=n, reps=args.reps, seed=args.seed + idx)
            for idx, (n, lam, alpha) in enumerate(itertools.product(ns, lams, alphas))]
    if args.dump_sample:
        sample = _block(grid[0], 0, 1)[0]
        with open(args.dump_sample, "w", encoding="utf-8") as fh:
            fh.write("value\n")
            for v in sample:
                fh.write(f"{v:.17g}\n")
    results = run_grid(grid)
    failures = [r for r in results if isinstance(r, ScenarioFailure)]
    summaries = [r for r in results if not isinstance(r, ScenarioFailure)]
    for f in failures:
        print(f"scenario alpha={f.config.alpha} lambda={f.config.lam} "
              f"n={f.config.n} failed: {f.message}", file=sys.stderr)
    # the CSV is written before the table, so a failed write prints nothing
    if args.out:
        write_csv(summaries, args.out)
    if summaries:
        print(format_table(summaries, digits=args.digits, compare_j=args.compare_j))
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"index": _cmd_index, "estimate": _cmd_estimate, "bias": _cmd_bias,
                "simulate": _cmd_simulate}
    try:
        return commands[args.command](args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
