"""Correctness checks on the outputs of one pass.

`check_pass` returns one (ok, reason) per item plus a list of problems of
the pass as a whole (grid-level criteria); a pass-level problem fails
every item of the pass.  Tolerances are fixed here and never tuned at run
time.
"""

from __future__ import annotations

import hashlib
import json
import math

import inputs as bench_inputs

BIAS_REF_TOL = 1e-9        # the gate a faster bias route must meet (ROADMAP item 2)
BIAS_MC_SE = 4.0           # criterion 5: analytic bias inside 4 MC standard errors
INDEX_TABLE_TOL = 5e-5     # criterion 1: the 15 tabulated truths carry 4 decimals
# The closed form subtracts a quadrature result (rel_tol 1e-9) divided by
# alpha, which allows about 2e-9 at alpha = 1e-3.
INDEX_REF_TOL = 1e-8
HOOVER_END_TOL = 1e-12
GINI_END_TOL = 1e-8        # criterion 2
ORACLE_TOL = 1e-7          # criterion 3
ESTIMATE_REL_TOL = 1e-9

# criterion 6: chi-square(999) 99% band as ratios to the degrees of freedom,
# widened by the reference table's 4-decimal rounding; hit counts out of 75
CHI_LO = 0.888510
CHI_HI = 1.119009
TABLE_ROUNDING = 0.00005
MEAN_HITS, MSE_HITS, VAR_HITS = 70, 65, 65
GRID_CELLS = 75


def load_references() -> dict:
    bias_doc = bench_inputs.load_reference("bias_table.json")
    index_doc = bench_inputs.load_reference("index_grid.json")
    return {
        "mc": {(r["alpha"], r["lam"], r["n"]): r for r in bench_inputs.mc_reference_rows()},
        "bias": {(a, lam, n): v for a, lam, n, v in bias_doc["values"]},
        "index": {(a, lam): v for a, lam, v, _source in index_doc["values"]},
    }


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_bias_table(inputs, out, refs):
    results = []
    for item in out["items"]:
        alpha, lam, n = item["key"]
        value = item["value"]
        stored = refs["bias"].get((alpha, lam, n))
        mc = refs["mc"].get((alpha, lam, n))
        if item["error"] or not _finite(value):
            results.append((False, f"raised or non-finite: {item['error'] or value!r}"))
        elif stored is None:
            results.append((False, "no stored reference"))
        elif abs(value - stored) > BIAS_REF_TOL:
            results.append((False, f"|bias - stored| = {abs(value - stored):.2e} > {BIAS_REF_TOL:g}"))
        elif mc is not None and abs(value - mc["bias"]) > BIAS_MC_SE * math.sqrt(mc["variance"] / 1000.0):
            results.append((False, f"bias {value:.5f} outside {BIAS_MC_SE:g} SE of {mc['bias']}"))
        else:
            results.append((True, ""))
    return results, []


def check_mc_grid(inputs, out, refs):
    results = []
    hits = {"mean": 0, "mse": 0, "variance": 0}
    graded = 0
    for item in out["items"]:
        v = item["value"]
        if item["error"] or not all(_finite(x) for x in v.values()):
            results.append((False, f"raised or non-finite: {item['error'] or v!r}"))
            continue
        if v["bias_i"] != v["bias"]:
            results.append((False, f"compare_i_vs_j bias {v['bias_i']!r} != run_scenario bias {v['bias']!r}"))
            continue
        results.append((True, ""))
        alpha, lam, n, reps, _seed = item["key"]
        ref = refs["mc"].get((alpha, lam, n))
        if ref is None or reps != 1000:
            continue
        graded += 1
        if abs(v["mean"] - ref["mean"]) <= 4.0 * math.sqrt(ref["variance"] / 1000.0):
            hits["mean"] += 1
        for key in ("mse", "variance"):
            if CHI_LO * max(ref[key] - TABLE_ROUNDING, 1e-12) <= v[key] <= CHI_HI * (ref[key] + TABLE_ROUNDING):
                hits[key] += 1
    problems = []
    if graded < GRID_CELLS:  # the hit counts are defined on the full grid only
        return results, problems
    for key, need in (("mean", MEAN_HITS), ("mse", MSE_HITS), ("variance", VAR_HITS)):
        if hits[key] < need:
            problems.append(f"criterion 6: {key} inside its band for {hits[key]}/{graded} cells, "
                            f"need {need}")
    return results, problems


def mc_digest(out) -> str:
    """Digest of every reported MC number; reported, not gated, since the streams may change."""
    blob = json.dumps([item["value"] for item in out["items"]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_estimate(stdout: str):
    rows, path = {}, []
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "Measure,Value" or "lambda,value" not in lines:
        raise ValueError("unexpected output layout")
    split = lines.index("lambda,value")
    for line in lines[1:split]:
        name, value = line.split(",")
        rows[name] = value
    for line in lines[split + 1:]:
        lam, value = line.split(",")
        path.append((float(lam), value))
    return rows, path


def check_estimate_csv(inputs, out, refs):
    exp = inputs["expected"]
    results = []
    for item in out["items"]:
        v = item["value"]
        if item["error"] or v["code"] != 0:
            results.append((False, f"exit {v and v['code']}: {item['error'] or v['stderr'].strip()}"))
            continue
        try:
            rows, path = _parse_estimate(v["stdout"])
            hoover, gini = float(rows["Hoover"]), float(rows["Gini"])
        except (KeyError, ValueError) as exc:
            results.append((False, f"unparseable output: {exc}"))
            continue
        reason = ""
        if abs(hoover - exp["hoover"]) > ESTIMATE_REL_TOL * abs(exp["hoover"]):
            reason = f"Hoover {hoover!r} vs numpy {exp['hoover']!r}"
        elif abs(gini - exp["gini"]) > ESTIMATE_REL_TOL * abs(exp["gini"]):
            reason = f"Gini {gini!r} vs numpy {exp['gini']!r}"
        elif len(path) != inputs["path_points"] or path[0] != (0.0, rows["Hoover"]) \
                or path[-1] != (1.0, rows["Gini"]):
            reason = "path endpoints differ from the Hoover and Gini rows"
        elif f"skipped {exp['skipped']} row(s)" not in v["stderr"]:
            reason = f"expected 'skipped {exp['skipped']} row(s)' on stderr, got {v['stderr'].strip()!r}"
        results.append((not reason, reason))
    return results, []


def check_index_grid(inputs, out, refs):
    truths = {(r["alpha"], r["lam"]): r["truth"] for r in refs["mc"].values()}
    results = []
    for item in out["items"]:
        v = item["value"]
        if item["error"]:
            results.append((False, item["error"]))
            continue
        if item["key"][0] == "oracle":
            gap = abs(v["integral"] - v["discrete"])
            results.append((True, "") if gap <= ORACLE_TOL
                           else (False, f"integral vs discrete {gap:.2e} > {ORACLE_TOL:g}"))
            continue
        alpha, lam = item["key"]
        ends = out["endpoints"][repr(alpha)]
        stored = refs["index"].get((alpha, lam))
        if not _finite(v):
            reason = f"non-finite {v!r}"
        elif stored is None:
            reason = "no stored reference"
        elif abs(v - stored) > INDEX_REF_TOL:
            reason = f"|I - stored| = {abs(v - stored):.2e} > {INDEX_REF_TOL:g}"
        elif (alpha, lam) in truths and abs(v - truths[(alpha, lam)]) > INDEX_TABLE_TOL:
            reason = f"I {v:.6f} vs tabulated {truths[(alpha, lam)]}"
        elif lam == 0.0 and abs(v - ends["hoover"]) > HOOVER_END_TOL:
            reason = f"I(0) {v!r} != Hoover {ends['hoover']!r}"
        elif lam == 1.0 and abs(v - ends["gini"]) > GINI_END_TOL:
            reason = f"I(1) {v!r} != Gini {ends['gini']!r}"
        else:
            reason = ""
        results.append((not reason, reason))
    return results, []


CHECKS = {"bias_table": check_bias_table, "mc_grid": check_mc_grid,
          "estimate_csv": check_estimate_csv, "index_grid": check_index_grid}


def check_pass(workload: str, inputs: dict, out: dict, refs: dict):
    return CHECKS[workload](inputs, out, refs)
