"""Regenerate the stored reference values the benchmark checks against.

    python3 perfbench/make_references.py [bias_table] [index_grid]

`reference/bias_table.json`: the analytic bias of every bias_table cell,
computed by the package itself.  These pin the current numbers so that a
faster bias route must reproduce them to 1e-9.

`reference/index_grid.json`: the gamma-population index on the index_grid
(alpha, lambda) grid, from an independent mpmath evaluation at 30 digits
where that converges, otherwise from the package; each value records its
source.  The mpmath route integrates E|X1 - y| at y = (1-lam)*alpha + lam*X2
against the density of X2, with

    E|X - y| = y - 2y Q(alpha, y) - alpha + 2 alpha Q(alpha+1, y),

and substitutes u = x^alpha on [0, 1] so that tiny shapes stay tractable.
It needs mpmath, which the benchmark run itself does not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402  (benchmark module next to this file)


def _write(name: str, header: dict, values: list) -> None:
    # one value per line keeps the files diffable
    lines = ["{"] + [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in header.items()]
    lines.append(' "values": [')
    lines.append(",\n".join("  " + json.dumps(v) for v in values))
    lines += [" ]", "}"]
    (HERE / "reference" / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def bias_table() -> None:
    import ineqbridge as iq

    cells = inputs.bias_table_inputs(0)["cells"]
    cells.sort()
    values = [[a, lam, n, iq.bias(iq.BiasQuery(alpha=a, lam=lam, n=n))] for a, lam, n in cells]
    _write("bias_table.json", {
        "source": "ineqbridge bias() at the commit that added this benchmark (parent f96cc62)",
        "columns": ["alpha", "lam", "n", "bias"],
    }, values)


def _mp_index(alpha: float, lam: float):
    import mpmath as mp

    a = mp.mpf(alpha)
    lam = mp.mpf(lam)
    if lam == 0:
        return a ** (a - 1) * mp.exp(-a) / mp.gamma(a)
    if lam == 1:
        return mp.gamma(a + mp.mpf(1) / 2) / (mp.sqrt(mp.pi) * a * mp.gamma(a))
    c = (1 - lam) * a
    lg = mp.loggamma(a)

    def mean_abs_dev(y):
        q = mp.gammainc(a, y, mp.inf, regularized=True)
        q1 = mp.gammainc(a + 1, y, mp.inf, regularized=True)
        return y - 2 * y * q - a + 2 * a * q1

    def low(u):  # x = u^(1/alpha) covers x in [0, 1]
        x = u ** (1 / a)
        return mean_abs_dev(c + lam * x) * mp.exp(-x - lg) / a

    def high(x):
        return mean_abs_dev(c + lam * x) * mp.exp((a - 1) * mp.log(x) - x - lg)

    sd = mp.sqrt(a)
    pts = [mp.mpf(1)]
    for k in (-30, -10, -3, 0, 3, 10, 30, 60):
        if a + k * sd > pts[-1]:
            pts.append(a + k * sd)
    pts.append(mp.inf)
    return (mp.quad(low, [0, 1]) + mp.quad(high, pts)) / (2 * a)


def index_grid() -> None:
    import mpmath as mp

    import ineqbridge as iq

    mp.mp.dps = 30
    values = []
    for alpha in inputs.INDEX_ALPHAS:
        for lam in inputs.index_lambdas():
            try:
                value, source = float(_mp_index(alpha, lam)), "mpmath"
            except (mp.libmp.NoConvergence, ZeroDivisionError, ValueError):
                value, source = iq.gamma_index(alpha, lam), "commit"
            values.append([alpha, lam, value, source])
            print(f"alpha={alpha:g} lambda={lam:g} {value!r} ({source})", flush=True)
    _write("index_grid.json", {
        "source": "mpmath: independent 30-digit quadrature (make_references.py); "
                  "commit: ineqbridge gamma_index() at the commit that added this benchmark "
                  "(parent f96cc62)",
        "columns": ["alpha", "lam", "value", "source"],
    }, values)


if __name__ == "__main__":
    targets = sys.argv[1:] or ["bias_table", "index_grid"]
    for target in targets:
        {"bias_table": bias_table, "index_grid": index_grid}[target]()
