"""Per-layer spans for a traced benchmark run.

The traced child replaces public wallcurve names with timing wrappers at the
place where the calling module looks them up (``wallcurve.cli.simulate_walk``,
``wallcurve.oracle.stream``, ...), so every layer is measured from outside
the package and nothing under ``src/`` changes.  Spans stay in memory and
are written out when the child exits; :func:`layer_metrics` turns the spans
of one pass into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter

# (span name, attribute, modules whose global the callers read).  Spans named
# with a trailing "." get the call's ``estimator`` argument appended.
LAYERS = (
    ("cli.main", "main", ("cli",)),
    ("walk.stream", "stream", ("walk", "oracle", "curve")),
    ("walk.simulate_walk", "simulate_walk", ("cli", "stats")),
    ("walk.discrete_brick_trace", "discrete_brick_trace", ("cli",)),
    ("scaling.local_time_profile.", "local_time_profile", ("cli", "stats")),
    ("scaling.band_local_time", "band_local_time", ("curve", "scaling")),
    ("curve.build_trace.", "build_trace", ("cli",)),
    ("curve.coverage_check", "coverage_check", ("stats",)),
    ("oracle.sample_identity_pair", "sample_identity_pair", ("oracle",)),
    ("stats.run_experiment", "run_experiment", ("cli",)),
    ("stats.chi2_gof_2d", "chi2_gof_2d", ("stats",)),
    ("stats.ks_two_sample", "ks_two_sample", ("stats",)),
    ("stats.estimator_agreement", "estimator_agreement", ("stats",)),
)

# Per-layer metrics: name -> unit.  Names ending in ".s" are summed span
# durations, ".self_s" span durations minus the cover of their child spans,
# ".calls" span counts; the rest are counts recorded by the wrappers or by
# the benchmark itself.
METRICS = {
    "walk.stream.calls": "count",
    "walk.stream.s": "s",
    "walk.simulate_walk.s": "s",
    "walk.discrete_brick_trace.s": "s",
    "scaling.local_time_profile.band.s": "s",
    "scaling.local_time_profile.occupation.s": "s",
    "scaling.band_local_time.s": "s",
    "scaling.band_local_time.calls": "count",
    "curve.build_trace.occupation.s": "s",
    "curve.build_trace.band.s": "s",
    "curve.coverage_check.s": "s",
    "curve.coverage_check.steps": "count",
    "oracle.sample_identity_pair.s": "s",
    "oracle.sample_identity_pair.self_s": "s",
    "oracle.sample_identity_pair.walk_steps": "count",
    "oracle.joint_density.calls": "count",
    "stats.run_experiment.s": "s",
    "stats.chi2_gof_2d.s": "s",
    "stats.ks_two_sample.s": "s",
    "stats.ks_two_sample.calls": "count",
    "stats.estimator_agreement.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
}

# Counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = (
    "walk.stream.calls",
    "oracle.joint_density.calls",
    "oracle.sample_identity_pair.walk_steps",
    "curve.coverage_check.steps",
    "cli.bytes_written",
)


class Recorder:
    """Spans ``[name, start, end, parent index]`` and counts of one child."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name: str, count=None):
        signature = inspect.signature(fn)
        per_estimator = name.endswith(".")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if per_estimator or count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            label = name + bound.arguments["estimator"] if per_estimator else name
            span = [label, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count:
                key, value = count(bound.arguments, result)
                self.counts[key] += value
            return result

        return wrapper

    def count_calls(self, fn, key: str):
        """Count-only wrapper, for functions too hot to give a span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _identity_walk_steps(a, result):
    # Each replicate walks ceil(n*t) steps, as sample_identity_pair documents.
    steps = max(1, math.ceil(a["t"] * a["n"] - 1e-9))
    return "oracle.sample_identity_pair.walk_steps", a["replicates"] * steps


_COUNTERS = {
    "curve.coverage_check": lambda a, report: ("curve.coverage_check.steps", report.steps_used),
    "oracle.sample_identity_pair": _identity_walk_steps,
}


def install() -> Recorder:
    """Replace the traced wallcurve names with recording wrappers."""
    recorder = Recorder()
    for name, attr, modules in LAYERS:
        for module_name in modules:
            module = importlib.import_module(f"wallcurve.{module_name}")
            fn = getattr(module, attr)
            setattr(module, attr, recorder.wrap(fn, name, _COUNTERS.get(name)))
    oracle = importlib.import_module("wallcurve.oracle")
    oracle.joint_density = recorder.count_calls(oracle.joint_density, "oracle.joint_density.calls")
    return recorder


def _cover(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    return [end - start - _cover(children.get(i, [])) for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from each op's spans and counts.

    A span nested inside a span of the same name (a recursive call) is not
    counted again.
    """
    totals: Counter[str] = Counter()
    for op in ops:
        spans = op["spans"]
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            totals[f"{name}.calls"] += 1
            if ancestor < 0:
                totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += own
        totals.update(op["counts"])
    totals["cli.self_s"] = totals["cli.main.self_s"]
    return {name: totals[name] for name in METRICS}
