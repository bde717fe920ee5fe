"""ineqbridge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).
Workloads, chosen so that each stresses different layers (see
BENCHMARK.json and README.md):

  bias_table    analytic bias on the 75 reference cells plus 5 edge cells
  mc_grid       the 75 cells as R = 1000 MC scenarios, run_scenario + compare_i_vs_j
  estimate_csv  `ineqbridge estimate --path 21` in-process on a 50,000-row CSV
  index_grid    gamma_index on 10 shapes x 21 weights, plus a 200-case oracle

Everything runs in one process at a time, each pass in a fresh
interpreter.  With --trace 0 the run measures set-up time in a few bare
import probes, then repeats whole passes while another fits in S seconds
(at least one), and reports the end-to-end metrics, with times scaled to
a reference machine speed (see child.SpeedProbe).  With --trace 1 it
runs one untraced and one traced pass and reports the per-layer metrics.
Either way every output is checked; the last line of stdout is the JSON
result.  Exit status is 0 when a result was printed, 1 when a pass
crashed and 2 on a usage error or missing package source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs as bench_inputs  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

PROBES = 10            # bare-import set-up probes per run, after one discarded warm-up
DEADLINE_S = 170.0     # a run must finish within 180 s
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_p85_ms": "ms",
              "peak_rss_mb": "MB"}


class PassCrashed(RuntimeError):
    pass


def spawn(spec: dict, workdir: Path, timeout: float) -> dict:
    """Run child.py on `spec` in a fresh interpreter and return its output.

    The output's "setup_s" is the time from spawning the interpreter until
    the package was imported.
    """
    spec_path = workdir / "spec.json"
    out_path = workdir / "out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    spawned = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
    try:
        # the child's stdout goes to our stderr so that our last stdout line stays the result
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(ROOT), str(spec_path),
                               str(out_path)], stdout=sys.stderr, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassCrashed(f"pass exceeded {timeout:.0f} s and was killed") from None
    if proc.returncode != 0 or not out_path.exists():
        raise PassCrashed(f"pass exited with status {proc.returncode}")
    out = json.loads(out_path.read_text(encoding="utf-8"))
    out["setup_s"] = out.pop("ready") - spawned
    return out


def weighted_quantile(pairs, q: float) -> float:
    """Quantile q of values repeated by their counts, interpolating linearly between ranks."""
    pairs = sorted(pairs)
    total = sum(c for _, c in pairs)
    pos = q * (total - 1)
    lo, frac = int(pos), pos - int(pos)

    def at(rank):
        seen = 0
        for value, count in pairs:
            seen += count
            if rank < seen:
                return value
        return pairs[-1][0]

    return at(lo) if frac == 0 else (1 - frac) * at(lo) + frac * at(lo + 1)


def judge(workload, inputs, out, refs) -> tuple[int, int, list[str]]:
    """Items attempted and failed in one pass, and the reasons for failures."""
    results, problems = checks.check_pass(workload, inputs, out, refs)
    counts = [item.get("count", 1) for item in out["items"]]
    if problems:
        return sum(counts), sum(counts), problems
    failed = sum(c for c, (ok, _) in zip(counts, results) if not ok)
    reasons = [f"{item['key']}: {why}" for item, (ok, why) in zip(out["items"], results) if not ok]
    return sum(counts), failed, reasons


def timed_items(out) -> list[dict]:
    return [item for item in out["items"] if item.get("timed", True)]


def item_times(out, normalize: bool = True) -> list[tuple[float, int]]:
    """(seconds, items) of each timed item, at the reference speed (see
    child.SpeedProbe) or raw."""
    return [(item["scaled_s"] if normalize else item["seconds"], item.get("count", 1))
            for item in timed_items(out)]


def throughput(out, normalize: bool = True) -> float:
    times = item_times(out, normalize)
    return sum(c for _, c in times) / sum(t for t, _ in times)


def run_untraced(workload, inputs, seconds, workdir, started):
    setups = []
    for i in range(PROBES + 1):
        out = spawn({"probe": True}, workdir, DEADLINE_S - (time.monotonic() - started))
        if i:  # the first probe also compiles bytecode; discard it
            setups.append(out)
    passes = []
    measure_from = time.monotonic()
    while True:
        left = DEADLINE_S - (time.monotonic() - started)
        out = spawn({"workload": workload, "inputs": inputs, "trace": False}, workdir, left)
        setups.append(out)
        passes.append(out)
        elapsed = time.monotonic() - measure_from
        if elapsed + elapsed / len(passes) > seconds:
            break

    def figures(normalize):
        latencies = [pair for out in passes for pair in item_times(out, normalize)]
        return {
            "setup_s": statistics.median(
                o["setup_s"] * o["setup_scale"] if normalize else o["setup_s"]
                for o in setups),
            "items_per_s": statistics.median(throughput(o, normalize) for o in passes),
            "item_p50_ms": 1e3 * weighted_quantile(latencies, 0.50),
            "item_p85_ms": 1e3 * weighted_quantile(latencies, 0.85),
            "peak_rss_mb": statistics.median(o["rss_kb"] / 1024.0 for o in passes),
        }

    raw = figures(normalize=False)
    speed = statistics.median(o["speed"] for o in passes)
    notes = [f"passes={len(passes)} setup_samples={len(setups)} "
             f"latency_samples={sum(len(timed_items(o)) for o in passes)} "
             f"items_per_pass={sum(c for _, c in item_times(passes[0]))}",
             f"machine speed {speed:.3f} x reference; raw figures: "
             + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())]
    return figures(normalize=True), passes, notes


def run_traced(workload, inputs, workdir, started):
    spans_dir = HERE / "out"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"{workload}.spans.tsv"
    plain = spawn({"workload": workload, "inputs": inputs, "trace": False}, workdir,
                  DEADLINE_S - (time.monotonic() - started))
    traced = spawn({"workload": workload, "inputs": inputs, "trace": True,
                    "spans_path": str(spans_path)}, workdir, DEADLINE_S - (time.monotonic() - started))
    if traced["missing_layers"]:
        raise PassCrashed(f"{workload} never called the expected layer(s) "
                          f"{', '.join(traced['missing_layers'])}")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = throughput(plain) / throughput(traced) - 1.0
    notes = [f"spans written to {os.path.relpath(spans_path)}"]
    return metrics, [plain, traced], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "ineqbridge" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ineqbridge'}; run from the repository root",
              file=sys.stderr)
        return 2

    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        refs = checks.load_references()
        inputs = bench_inputs.make_inputs(args.workload, args.seed, workdir)
        if args.trace:
            metrics, passes, notes = run_traced(args.workload, inputs, workdir, started)
            units = LAYER_METRICS
        else:
            metrics, passes, notes = run_untraced(args.workload, inputs, args.seconds, workdir, started)
            units = END_TO_END
    except PassCrashed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    reasons: list[str] = []
    for out in passes:
        a, f, why = judge(args.workload, inputs, out, refs)
        attempted += a
        failed += f
        reasons += why
    for why in reasons[:20]:
        print(f"check failed: {why}", file=sys.stderr)
    if args.workload == "mc_grid":
        notes.append(f"output_digest={checks.mc_digest(passes[0])} (not gated)")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + "; ".join(notes))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':<36} {failed / attempted:>16.6g} 1  ({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
