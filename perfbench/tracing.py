"""Spans around the benchmark's calls into each layer, and the per-layer metrics.

A span is recorded in memory at each call the benchmark makes into a
layer's public function; the spans are written out when the run ends.
The benchmark's own spans ("bench": a pass, an item) hold the layer
spans as children, so a layer's self time is its spans' duration minus
the part their children cover.  Spans inside the program are not
recorded, so the layers reached only from inside others (linalg, perm)
have no span of their own.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class NullTracer:
    """Stands in for Tracer in untraced passes: calls go straight through."""

    _span = contextlib.nullcontext()

    def span(self, layer: str, op: str):
        return self._span

    def call(self, layer: str, op: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, **attrs):
        pass


NULL = NullTracer()


class Tracer:
    def __init__(self, source: str):
        self.source = source
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._last: dict | None = None

    @contextlib.contextmanager
    def span(self, layer: str, op: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "layer": layer,
            "op": op,
            "source": self.source,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            self._last = record

    def call(self, layer: str, op: str, fn, *args, **kwargs):
        with self.span(layer, op):
            return fn(*args, **kwargs)

    def note(self, **attrs):
        """Attach counts to the span that closed last."""
        self._last.update(attrs)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, tuple[int, float]]:
    """Layer -> (span count, self seconds)."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += _duration(s)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = out[s["layer"]]
        entry[0] += 1
        entry[1] += _duration(s) - covered[s["id"]]
    return {layer: (count, secs) for layer, (count, secs) in out.items()}


def _select(spans, layer, op, **match):
    return [
        s
        for s in spans
        if s["layer"] == layer
        and s["op"] == op
        and all(s.get(k) == v for k, v in match.items())
    ]


def mean_time(layer: str, op: str, scale: float, **match) -> Callable:
    def measure(spans):
        chosen = _select(spans, layer, op, **match)
        return sum(map(_duration, chosen)) / len(chosen) * scale if chosen else None

    return measure


def time_per(layer: str, op: str, unit_attr: str, scale: float) -> Callable:
    """Total span time divided by the units of work the spans report."""

    def measure(spans):
        chosen = _select(spans, layer, op)
        units = sum(s[unit_attr] for s in chosen)
        return sum(map(_duration, chosen)) / units * scale if units else None

    return measure


def mean_attr(layer: str, op: str, attr: str, **match) -> Callable:
    def measure(spans):
        chosen = _select(spans, layer, op, **match)
        return sum(s[attr] for s in chosen) / len(chosen) if chosen else None

    return measure


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    home: str  # workload whose traced pass measures it when the traced one does not
    measure: Callable
    moves: str  # the end-to-end metric and workload it should move


PER_LAYER = [
    LayerMetric("latin.enumerate_us_per_square", "us", "scan-n5",
                time_per("latin", "enumerate_with_first_row", "squares", 1e6),
                "wall_s on scan-n5 and scan-n5-jobs2"),
    LayerMetric("latin.sample_us_per_square", "us", "corpus-n6",
                time_per("latin", "sample_latin_squares", "squares", 1e6),
                "setup_s on corpus-n6"),
    LayerMetric("latin.memo_count_s", "s", "scan-n5",
                mean_time("latin", "count_latin_squares_memoized", 1.0),
                "wall_s on scan-n5"),
    LayerMetric("cayley.build_us_per_square", "us", "scan-n5",
                mean_time("cayley", "build", 1e6),
                "wall_s on scan-n5"),
    LayerMetric("identities.check_us_per_square", "us", "scan-n5",
                mean_time("identities", "check_identity", 1e6),
                "wall_s on scan-n5 (early exit) and on loops (full evaluation)"),
    LayerMetric("identities.assignments_per_check", "count", "scan-n5",
                mean_attr("identities", "check_identity", "assignments"),
                "which workload an evaluator change can move"),
    LayerMetric("identities.holds_frac", "frac", "scan-n5",
                mean_attr("identities", "check_identity", "holds"),
                "wall_s on scan-n5"),
    LayerMetric("identities.equivalence_us_per_square", "us", "corpus-n6",
                mean_time("identities", "n1_equivalence_report", 1e6),
                "wall_s on corpus-n6 and loops"),
    LayerMetric("permgroup.lmlt_ms", "ms", "corpus-n6",
                mean_time("permgroup", "lmlt", 1e3),
                "wall_s on corpus-n6 and loops"),
    LayerMetric("permgroup.mlt_ms", "ms", "corpus-n6",
                mean_time("permgroup", "mlt", 1e3),
                "wall_s on corpus-n6 and loops"),
    LayerMetric("permgroup.lmlt_order_mean", "count", "corpus-n6",
                mean_attr("permgroup", "lmlt", "order"),
                "wall_s on corpus-n6 and loops"),
    LayerMetric("measures.solve_ms", "ms", "corpus-n6",
                mean_time("measures", "solve_quasi_invariant", 1e3),
                "wall_s and item_ms_p50 on corpus-n6 and loops"),
    LayerMetric("characters.solve_ms", "ms", "corpus-n6",
                mean_time("characters", "solve_characters", 1e3),
                "wall_s on corpus-n6 and loops"),
    LayerMetric("characters.certificate_us", "us", "corpus-n6",
                mean_time("characters", "positive_sum_certificate", 1e6),
                "wall_s on corpus-n6 and loops"),
    LayerMetric("characters.audit_ms", "ms", "corpus-n6",
                mean_time("characters", "representation_well_defined", 1e3),
                "wall_s and item_ms_p99 on corpus-n6"),
    LayerMetric("characters.audit_group_order", "count", "corpus-n6",
                mean_attr("characters", "representation_well_defined", "group_order"),
                "wall_s and item_ms_p99 on corpus-n6"),
    LayerMetric("kunen.scan_s", "s", "scan-n5",
                mean_time("kunen", "scan", 1.0, jobs=1),
                "wall_s on scan-n5"),
    LayerMetric("kunen.scan_jobs2_s", "s", "scan-n5-jobs2",
                mean_time("kunen", "scan", 1.0, jobs=2),
                "wall_s on scan-n5-jobs2"),
    LayerMetric("kunen.checkpoint_bytes", "bytes", "scan-n5-jobs2",
                mean_attr("kunen", "scan", "checkpoint_bytes", jobs=2),
                "wall_s on scan-n5-jobs2"),
    LayerMetric("reports.validate_ms", "ms", "scan-n5",
                mean_time("reports", "validate_report", 1e3),
                "wall_s on scan-n5"),
    LayerMetric("axb.integrate_ms", "ms", "haar-axb",
                mean_time("axb", "integrate", 1e3),
                "wall_s and item_ms_p50 on haar-axb"),
    LayerMetric("axb.points_per_integral", "count", "haar-axb",
                mean_attr("axb", "integrate", "points"),
                "wall_s on haar-axb"),
]

# Not read from spans: kunen.speedup_jobs2 is the ratio of the two scan
# times, trace.overhead_s compares traced with untraced passes.
DERIVED = [
    ("kunen.speedup_jobs2", "x", "wall_s on scan-n5-jobs2"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s, this workload"),
]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every PER_LAYER metric the spans can measure."""
    out = {}
    for metric in PER_LAYER:
        value = metric.measure(spans)
        if value is not None:
            out[metric.name] = float(value)
    return out
