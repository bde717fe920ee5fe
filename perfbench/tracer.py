"""Spans and work counts at ineqbridge's layer boundaries, recorded from outside.

The package imports its collaborators by name (`from .specfun import
reg_gamma_q`), so a layer boundary is a module attribute in the *calling*
module.  `Tracer.install` replaces each listed attribute with a wrapper
that records a span (layer, start, end, parent) in memory and adds the
call's work to the layer's counters; nothing inside the package changes.
A missing attribute raises at install time, so a refactor that moves a
boundary cannot silently zero a layer.

Span times are wall times without the speed probe's samples, like the
raw item times of an untraced pass, and are not scaled to the reference
speed.  A layer's self time is the total of its spans' durations minus
the durations of their direct child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _size(x) -> int:
    size = getattr(x, "size", None)  # ndarray or numpy scalar
    if isinstance(size, int):
        return size
    try:
        return len(x)
    except TypeError:  # Python scalar
        return 1


def _count_points(arg_index: int, key: str):
    def count(counts, layer, args, kwargs, result):
        counts[f"{layer}.points"] += _size(args[arg_index] if len(args) > arg_index else kwargs[key])
    return count


def _count_phi2(counts, layer, args, kwargs, result):
    import numpy as np
    counts[f"{layer}.points"] += int(np.broadcast(np.asarray(args[2]), np.asarray(args[3])).size)


def _count_evals(counts, layer, args, kwargs, result):
    counts[f"{layer}.evals"] += result.evaluations


def _count_draws(counts, layer, args, kwargs, result):
    counts[f"{layer}.draws"] += int(args[2] if len(args) > 2 else kwargs["count"])


def _count_elements(counts, layer, args, kwargs, result):
    counts[f"{layer}.elements"] += _size(args[0] if args else kwargs["values"])


def _count_replications(counts, layer, args, kwargs, result):
    counts[f"{layer}.replications"] += int((args[0] if args else kwargs["config"]).reps)


# layer -> (count function or None, [(module, attribute), ...])
BOUNDARIES = {
    "specfun.phi2": (_count_phi2, [("ineqbridge.distributions", "log_humbert_phi2")]),
    "specfun.regq": (_count_points(1, "x"), [
        ("ineqbridge.distributions", "reg_gamma_q"),
        ("ineqbridge.index_core", "reg_gamma_q"),
        ("ineqbridge.bias_analysis", "reg_gamma_q"),
    ]),
    "quadrature": (_count_evals, [
        ("ineqbridge.distributions", "integrate_finite"),
        ("ineqbridge.index_core", "integrate_finite"),
        ("ineqbridge.index_core", "integrate_semi_infinite"),
        ("ineqbridge.bias_analysis", "integrate_finite"),
    ]),
    "distributions.ghypo_cdf": (_count_points(1, "t"), [("ineqbridge.bias_analysis", "ghypo_cdf")]),
    "distributions.gamma_sample": (_count_draws, [("ineqbridge.mc_harness", "gamma_sample")]),
    "index_core.gamma_index": (None, [
        ("ineqbridge", "gamma_index"),
        ("ineqbridge.bias_analysis", "gamma_index"),
        ("ineqbridge.mc_harness", "gamma_index"),
    ]),
    "index_core.integral_index": (None, [("ineqbridge", "integral_index")]),
    "estimators": (_count_elements, [
        ("ineqbridge.mc_harness", "i_hat_fast"),
        ("ineqbridge.mc_harness", "h_hat"),
        ("ineqbridge.mc_harness", "g_hat"),
        ("ineqbridge.mc_harness", "summarize"),
        ("ineqbridge.cli", "i_hat_fast"),
        ("ineqbridge.cli", "h_hat"),
        ("ineqbridge.cli", "g_hat"),
    ]),
    "bias_analysis.expected_i_hat": (None, [("ineqbridge.bias_analysis", "expected_i_hat")]),
    "mc_harness": (_count_replications, [
        ("ineqbridge.mc_harness", "run_scenario"),
        ("ineqbridge", "compare_i_vs_j"),
    ]),
    "cli": (None, [("ineqbridge.cli", "main")]),
}

# Boundaries each workload must cross at least once in a traced pass.
EXPECTED = {
    "bias_table": ("specfun.phi2", "specfun.regq", "quadrature", "distributions.ghypo_cdf",
                   "index_core.gamma_index", "bias_analysis.expected_i_hat"),
    "mc_grid": ("specfun.regq", "quadrature", "distributions.gamma_sample",
                "index_core.gamma_index", "estimators", "mc_harness"),
    "estimate_csv": ("estimators", "cli"),
    "index_grid": ("specfun.regq", "quadrature", "index_core.gamma_index",
                   "index_core.integral_index"),
}

# Per-layer metrics and their units.  A time named `.s` is inclusive (the
# layer has no wrapped children); `.self_s` excludes child spans.  The cli
# row counts are added to `counts` by the estimate_csv runner, and the
# tracing overhead by the caller that also ran an untraced pass.
LAYER_METRICS = {
    "specfun.phi2.calls": "count", "specfun.phi2.points": "count", "specfun.phi2.s": "s",
    "specfun.regq.calls": "count", "specfun.regq.points": "count", "specfun.regq.s": "s",
    "quadrature.calls": "count", "quadrature.evals": "count", "quadrature.self_s": "s",
    "distributions.ghypo_cdf.calls": "count", "distributions.ghypo_cdf.points": "count",
    "distributions.ghypo_cdf.self_s": "s",
    "distributions.gamma_sample.calls": "count", "distributions.gamma_sample.draws": "count",
    "distributions.gamma_sample.s": "s",
    "index_core.gamma_index.calls": "count", "index_core.gamma_index.self_s": "s",
    "index_core.integral_index.self_s": "s",
    "estimators.calls": "count", "estimators.elements": "count", "estimators.s": "s",
    "bias_analysis.expected_i_hat.calls": "count", "bias_analysis.expected_i_hat.self_s": "s",
    "mc_harness.replications": "count", "mc_harness.self_s": "s",
    "cli.rows_parsed": "count", "cli.rows_skipped": "count", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Span recorder for one traced pass; `install` before the pass, read after."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock        # seconds; the pass hands in one that stops during probe samples
        self.spans: list = []     # (layer, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.cli_usable = 0       # largest sample the CLI handed to an estimator
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        calls = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
                counts[calls] += 1
            if count is not None:
                count(counts, layer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for layer, (count, sites) in BOUNDARIES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise AttributeError(
                        f"trace boundary {module_name}.{attr} (layer {layer}) no longer exists")
                fn = getattr(module, attr)
                if module_name == "ineqbridge.cli" and layer == "estimators":
                    fn = self._note_cli_sample(fn)
                setattr(module, attr, self._wrap(layer, fn, count))

    def _note_cli_sample(self, fn):
        def noted(values, *args, **kwargs):
            self.cli_usable = max(self.cli_usable, _size(values))
            return fn(values, *args, **kwargs)
        return noted

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: inclusive time `s` and self time `self_s`, summed over spans."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (layer, start, end, _parent) in enumerate(self.spans):
            t = totals.setdefault(layer, {"s": 0.0, "self_s": 0.0})
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
        return totals

    def missing_layers(self, workload: str) -> list[str]:
        return [layer for layer in EXPECTED[workload] if self.counts[f"{layer}.calls"] == 0]

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        totals = self.layer_totals()
        out: dict[str, float] = {}
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_frac":
                continue
            layer, _, field = name.rpartition(".")
            out[name] = totals.get(layer, {}).get(field, 0.0) if unit == "s" else self.counts[name]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tstart_s\tend_s\tparent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for layer, start, end, parent in self.spans:
                fh.write(f"{layer}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
