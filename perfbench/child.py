"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py ROOT SPEC_JSON OUT_JSON

Imports ineqbridge from ROOT/src first thing and records the monotonic
clock once it (and the CLI module a console-script call imports) is
loaded; the parent subtracts its spawn time to get the set-up time.  A
speed sample is taken right after.  A spec of {"probe": true} stops
there.  Otherwise it runs every item of the workload in the spec, timing
each call into the package separately, and writes per-item results for
the parent to check.  With "trace" set, the layer boundaries are wrapped
first (see tracer.py).

A fresh interpreter per pass keeps process-lifetime caches, such as the
MC harness's truth cache, from making later passes cheaper than a user's
CLI call.
"""

import csv
import io
import json
import math
import os
import signal
import statistics
import sys
import time

import numpy as np


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ineqbridge
    import ineqbridge.cli  # noqa: F401  (what the `ineqbridge` console script loads)

    where = os.path.realpath(ineqbridge.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"ineqbridge was imported from {where}, not from {src}")
    return ineqbridge


def calibration_kernel() -> float:
    """A fixed mix of small numpy operations and interpreted Python, about 2 ms."""
    a = np.linspace(0.1, 2.0, 15)
    s = 0.0
    for i in range(300):
        s += float(np.exp(-a * (i % 7)).sum()) + sum(j * 0.5 for j in range(20))
    return s


_MEMORY_DATA = {}


def memory_kernel() -> float:
    """Searchsorted into a 50,000-element array, a long float list and CSV rows, about 2 ms.

    These are the primitives `estimate_csv` spends its time in.  They react
    to cache and memory contention from other tenants more than to the
    processor's speed, which `calibration_kernel` alone follows.
    """
    if not _MEMORY_DATA:
        rng = np.random.default_rng(0)
        _MEMORY_DATA["sorted"] = np.sort(rng.lognormal(10.0, 0.9, 50_000))
        _MEMORY_DATA["queries"] = rng.lognormal(10.0, 0.9, 5_000)
        _MEMORY_DATA["text"] = "".join(f"{i},{v:.2f}\n" for i, v in enumerate(
            _MEMORY_DATA["queries"][:500].tolist()))
    big = _MEMORY_DATA["sorted"]
    s = float(np.searchsorted(big, _MEMORY_DATA["queries"])[-1]) + math.fsum(big[:10_000].tolist())
    for row in csv.reader(io.StringIO(_MEMORY_DATA["text"])):
        s += float(row[1])
    return s


def mixed_kernel() -> float:
    """`calibration_kernel` then `memory_kernel`: over a 0.7 s `estimate_csv` call
    sampled every 0.05 s, this tracked the call's time better than either alone."""
    return calibration_kernel() + memory_kernel()


class SpeedProbe:
    """Samples the machine's current speed while a pass runs.

    On a shared host the same code runs up to twice as fast or slow for
    tens of seconds, and by tens of percent from one tenth of a second to
    the next.  The probe times `kernel` (after one untimed call) before
    every item and, from an interval timer, every `period` seconds inside
    long items, so that each item's time can be expressed at the reference
    speed, at which the kernel takes `ref_s` seconds.  Time spent in the
    kernel is taken out of the items' times.  Everything is wall time,
    which is what a caller waits for and which also counts work a call
    hands to other threads or processes.
    """

    def __init__(self, kernel=calibration_kernel, ref_s: float = 0.002, period: float = 0.05):
        self.kernel, self.ref_s, self.period = kernel, ref_s, period
        self.samples: list[float] = []
        self.marks: list[tuple[float, float]] = []  # (start, end) of each sample
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.kernel()  # refills the caches the measured code displaced
        timed_from = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - timed_from)
        self.marks.append((start, end))
        self.spent += end - start
        self._busy = False

    def kernel_units(self, window, span) -> float:
        """The time of an item in kernel durations: each stretch between two
        samples divided by the mean of those two samples, summed.

        Weighting each stretch by the speed measured at its ends follows
        the host's speed through a long item; scaling by one speed for the
        whole item tracked it only half as well.
        """
        start, end = span
        units = 0.0
        for i in range(window[0], window[1]):
            stretch = min(self.marks[i + 1][0], end) - max(self.marks[i][1], start)
            if stretch > 0:
                units += stretch / (0.5 * (self.samples[i] + self.samples[i + 1]))
        return units

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # closes the window of the last item


def probe_for(workload: str) -> SpeedProbe:
    """The speed probe whose kernel moves with the workload's own cost on this host.

    3.5 ms is about what `mixed_kernel` takes where `calibration_kernel` takes 2 ms.
    """
    return SpeedProbe(mixed_kernel, ref_s=0.0035) if workload == "estimate_csv" else SpeedProbe()


PROBE = SpeedProbe()


def _timed(fn, *args, **kwargs):
    """Timing of one call, and its result or error.

    The timing holds the wall time without probe samples ("seconds"), the
    call's start and end on the perf_counter clock ("span"), and the indices
    of the probe samples from just before the call to just after it
    ("window"); main adds the time at the reference speed ("scaled_s") once
    the last sample is taken.
    """
    PROBE.sample()
    first, spent = len(PROBE.samples) - 1, PROBE.spent
    start = time.perf_counter()
    try:
        value, error = fn(*args, **kwargs), None
    except Exception as exc:  # an item that raises is a failed item, not a crash
        value, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    timing = {"seconds": end - start - (PROBE.spent - spent), "span": [start, end],
              "window": [first, len(PROBE.samples)]}
    return timing, value, error


def run_bias_table(iq, inputs, tracer):
    items = []
    for alpha, lam, n in inputs["cells"]:
        timing, value, error = _timed(lambda: iq.bias(iq.BiasQuery(alpha=alpha, lam=lam, n=n)))
        items.append({"key": [alpha, lam, n], **timing, "value": value, "error": error})
    return items


def run_mc_grid(iq, inputs, tracer):
    def scenario(alpha, lam, n, reps, seed):
        config = iq.SimConfig(alpha=alpha, lam=lam, n=n, reps=reps, seed=seed)
        result = iq.run_grid([config])[0]
        if isinstance(result, iq.ScenarioFailure):
            raise RuntimeError(f"ScenarioFailure: {result.message}")
        bias_i, bias_j = iq.compare_i_vs_j(config)
        return {"truth": result.truth, "mean": result.mean, "bias": result.bias, "mse": result.mse,
                "variance": result.variance, "bias_i": bias_i, "bias_j": bias_j}

    items = []
    for cell in inputs["cells"]:
        timing, value, error = _timed(scenario, *cell)
        items.append({"key": cell, **timing, "value": value, "error": error})
    return items


def run_estimate_csv(iq, inputs, tracer):
    import contextlib
    import io
    import re

    argv = ["estimate", "--input", inputs["path"], "--column", inputs["column"],
            "--path", str(inputs["path_points"]), "--format", "csv", "--digits", "17"]
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return iq.cli.main(argv)

    timing, code, error = _timed(call)
    if tracer is not None:
        found = re.search(r"skipped (\d+) row", err.getvalue())
        skipped = int(found.group(1)) if found else 0
        tracer.counts["cli.rows_skipped"] += skipped
        tracer.counts["cli.rows_parsed"] += tracer.cli_usable + skipped
    # every row of the file waits for the one call, so each is an item with its latency
    return [{"key": inputs["path"], "count": inputs["rows"], **timing,
             "value": {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()},
             "error": error}]


def run_index_grid(iq, inputs, tracer):
    items = []
    for alpha, lam in inputs["values"]:
        timing, value, error = _timed(iq.gamma_index, alpha, lam)
        items.append({"key": [alpha, lam], **timing, "value": value, "error": error})
    for case in inputs["oracle"]:
        d = iq.DiscreteDist(case["atoms"])
        timing, value, error = _timed(iq.integral_index, d.survival, d.mean(), case["lam"],
                                      x_breakpoints=d.values, x_upper=d.max_value)
        if error is None:
            value = {"integral": value, "discrete": iq.discrete_index(d, case["lam"])}
        # oracle cases are checked and counted, but kept out of the latency and
        # throughput figures, whose items are the 210 closed-form values
        items.append({"key": ["oracle", case["lam"]], **timing, "value": value, "error": error,
                      "timed": False})
    return items


def endpoint_values(iq, inputs):
    """Hoover and Gini closed forms per shape, for the lambda = 0 and 1 identities."""
    return {repr(a): {"hoover": iq.gamma_hoover(a), "gini": iq.gamma_gini(a)} for a in inputs["alphas"]}


RUNNERS = {"bias_table": run_bias_table, "mc_grid": run_mc_grid,
           "estimate_csv": run_estimate_csv, "index_grid": run_index_grid}


def main(argv):
    global PROBE
    root, spec_path, out_path = argv
    iq = _import_package(root)
    out = {"ready": time.monotonic()}
    for _ in range(3):
        PROBE.sample()
    out["setup_scale"] = PROBE.ref_s / sorted(PROBE.samples)[1]
    PROBE.samples.clear()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if not spec.get("probe"):
        import resource

        workload, inputs = spec["workload"], spec["inputs"]
        out["workload"] = workload
        PROBE = probe_for(workload)
        tracer = None
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer(clock=lambda: time.perf_counter() - PROBE.spent)
            tracer.install()
        with PROBE:
            out["items"] = RUNNERS[workload](iq, inputs, tracer)
        for item in out["items"]:
            item["scaled_s"] = PROBE.ref_s * PROBE.kernel_units(item["window"], item["span"])
        out["speed"] = statistics.median(PROBE.ref_s / x for x in PROBE.samples)
        if workload == "index_grid":
            out["endpoints"] = endpoint_values(iq, inputs)
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["missing_layers"] = tracer.missing_layers(workload)
            tracer.write_spans(spec["spans_path"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
