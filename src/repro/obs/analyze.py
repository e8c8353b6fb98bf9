"""Trace analytics: rollups, latency histograms, timelines, diffs.

The consumption half of the tracer (:mod:`repro.obs.trace`): where
``read_trace``/``build_span_tree`` reconstruct *what happened*, this
module answers *where did the time go* and *what changed*:

* :func:`rollup_spans` — per-span-name time rollups (count, cumulative
  and exclusive wall time) over a span forest;
* :func:`decision_latencies` / :func:`latency_histogram` — scheduler
  decision-latency distribution from ``engine.instance`` spans;
* :func:`utilization_timeline` — node-occupancy step series
  reconstructed from ``engine.allocate``/``engine.release`` events (in
  simulated time, so it is exact and machine-independent);
* :func:`diff_manifests` — field-level diff of two run manifests for
  regression triage (volatile fields excluded);
* :func:`summarize_trace` / :func:`format_trace_summary` — one-call
  triage of a trace file, also exposed as
  ``python -m repro trace summarize <path>``.

Everything here is read-only post-processing: it parses artifacts that
already exist and never touches simulator, RNG or network state.  All
trace parsing is lenient (``strict=False``) so the same entry points
work on traces from crashed runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.manifest import VOLATILE_FIELDS, RunManifest
from repro.obs.metrics import nearest_rank
from repro.obs.trace import Span, build_span_tree, read_trace


# -- span rollups --------------------------------------------------------------

@dataclass(frozen=True)
class SpanRollup:
    """Aggregate wall-time statistics of one span name.

    ``total_s`` is cumulative (includes child spans); ``self_s``
    excludes closed child spans.  ``unclosed`` counts spans the trace
    never ended — a crashed or truncated run.
    """

    name: str
    count: int
    total_s: float
    self_s: float
    unclosed: int

    @property
    def mean_s(self) -> float:
        """Mean cumulative seconds per closed span."""
        closed = self.count - self.unclosed
        return self.total_s / closed if closed > 0 else 0.0


def rollup_spans(roots: Iterable[Span]) -> list[SpanRollup]:
    """Per-span-name rollup over a span forest, longest total first."""
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    unclosed: dict[str, int] = {}
    for root in roots:
        for span in root.walk():
            count[span.name] = count.get(span.name, 0) + 1
            if span.wall_end is None:
                unclosed[span.name] = unclosed.get(span.name, 0) + 1
                continue
            child_time = sum(c.duration for c in span.children
                             if c.wall_end is not None)
            total[span.name] = total.get(span.name, 0.0) + span.duration
            self_s[span.name] = self_s.get(span.name, 0.0) + (
                span.duration - child_time
            )
    return sorted(
        (
            SpanRollup(
                name=name,
                count=count[name],
                total_s=total.get(name, 0.0),
                self_s=self_s.get(name, 0.0),
                unclosed=unclosed.get(name, 0),
            )
            for name in count
        ),
        key=lambda r: (-r.total_s, r.name),
    )


# -- latency histograms --------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    """A histogram plus the summary order statistics of its samples."""

    edges: tuple[float, ...]       #: ``len(counts) + 1`` bin boundaries
    counts: tuple[int, ...]
    n: int
    min: float
    max: float
    mean: float
    p50: float
    p90: float
    p99: float

    def as_dict(self) -> dict[str, Any]:
        """The histogram as a JSON-ready dict."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "n": self.n,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


def latency_histogram(values: Iterable[float], bins: int = 12) -> Histogram:
    """Log-spaced histogram of positive latency samples.

    Zero/negative samples are clamped into the smallest bin.  With no
    samples (or a degenerate single value) the histogram collapses to
    one bin so downstream rendering never divides by zero.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return Histogram((0.0, 1.0), (0,), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    lo, hi = ordered[0], ordered[-1]
    mean = sum(ordered) / len(ordered)
    stats = dict(
        n=len(ordered), min=lo, max=hi, mean=mean,
        p50=ordered[nearest_rank(0.50, len(ordered)) - 1],
        p90=ordered[nearest_rank(0.90, len(ordered)) - 1],
        p99=ordered[nearest_rank(0.99, len(ordered)) - 1],
    )
    pos_lo = max(lo, 1e-9)
    pos_hi = max(hi, pos_lo)
    if pos_hi <= pos_lo * (1.0 + 1e-12):
        return Histogram((pos_lo, pos_hi * 1.0000001), (len(ordered),), **stats)
    log_lo, log_hi = math.log(pos_lo), math.log(pos_hi)
    edges = tuple(
        math.exp(log_lo + (log_hi - log_lo) * i / bins) for i in range(bins + 1)
    )
    counts = [0] * bins
    for v in ordered:
        x = max(v, pos_lo)
        i = int((math.log(x) - log_lo) / (log_hi - log_lo) * bins)
        counts[min(max(i, 0), bins - 1)] += 1
    return Histogram(edges, tuple(counts), **stats)


def decision_latencies(roots: Iterable[Span]) -> list[float]:
    """Closed ``engine.instance`` span durations, in record order."""
    out = []
    for root in roots:
        for span in root.walk():
            if span.name == "engine.instance" and span.wall_end is not None:
                out.append(span.duration)
    return out


# -- utilization timeline ------------------------------------------------------

def utilization_timeline(
    records: Iterable[Mapping[str, Any]],
) -> list[tuple[float, int]]:
    """Busy-node step series from allocate/release events.

    Returns ``(t, busy_nodes)`` points in simulated time — one per
    engine timestamp at which occupancy changed.  A healthy complete
    run ends at 0 busy nodes; a truncated trace ends wherever the
    record stream stops (still useful for post-mortem).
    """
    busy = 0
    timeline: list[tuple[float, int]] = []
    for record in records:
        if not isinstance(record, Mapping) or record.get("type") != "event":
            continue
        name = record.get("name")
        size = record.get("size")
        t = record.get("t")
        if not isinstance(size, (int, float)) or not isinstance(t, (int, float)):
            continue
        if name == "engine.allocate":
            busy += int(size)
        elif name == "engine.release":
            busy -= int(size)
        else:
            continue
        if timeline and timeline[-1][0] == t:
            timeline[-1] = (float(t), busy)
        else:
            timeline.append((float(t), busy))
    return timeline


def mean_utilization(
    timeline: Sequence[tuple[float, int]], num_nodes: int
) -> float:
    """Time-weighted mean occupancy fraction of a step series."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if len(timeline) < 2:
        return 0.0
    node_seconds = 0.0
    for (t0, busy), (t1, _) in zip(timeline, timeline[1:]):
        node_seconds += busy * (t1 - t0)
    span = timeline[-1][0] - timeline[0][0]
    if span <= 0:
        return 0.0
    return node_seconds / (num_nodes * span)


# -- manifest diffing ----------------------------------------------------------

@dataclass(frozen=True)
class ManifestDiff:
    """One differing field between two manifests.

    ``path`` is the dotted location (e.g. ``"summary.avg_wait"``);
    missing sides are ``None``.  For numeric pairs :attr:`rel_change`
    is ``(current - baseline) / |baseline|``.
    """

    path: str
    baseline: Any
    current: Any

    @property
    def rel_change(self) -> float | None:
        """Relative numeric change, or ``None`` for non-numeric pairs."""
        a, b = self.baseline, self.current
        if (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool) and a != 0
        ):
            return (b - a) / abs(a)
        return None


def _flatten(value: Any, prefix: str, out: dict[str, Any]) -> None:
    if isinstance(value, Mapping):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    else:
        out[prefix] = value


def diff_manifests(
    baseline: RunManifest | Mapping[str, Any],
    current: RunManifest | Mapping[str, Any],
) -> list[ManifestDiff]:
    """Field-level diff of two manifests, volatile fields excluded.

    Accepts :class:`~repro.obs.manifest.RunManifest` objects or their
    ``as_dict()`` documents.  Returns one entry per dotted path whose
    value differs (including paths present on only one side), sorted by
    path — an empty list means the runs had identical inputs and
    summary metrics.
    """
    docs = []
    for m in (baseline, current):
        doc = m.as_dict() if isinstance(m, RunManifest) else dict(m)
        docs.append({k: v for k, v in doc.items() if k not in VOLATILE_FIELDS})
    flat_a: dict[str, Any] = {}
    flat_b: dict[str, Any] = {}
    _flatten(docs[0], "", flat_a)
    _flatten(docs[1], "", flat_b)
    diffs = []
    for path in sorted(set(flat_a) | set(flat_b)):
        a, b = flat_a.get(path), flat_b.get(path)
        if a != b:
            diffs.append(ManifestDiff(path=path, baseline=a, current=b))
    return diffs


# -- one-call trace triage -----------------------------------------------------

@dataclass(frozen=True)
class TraceSummary:
    """Everything ``repro trace summarize`` prints, as data."""

    path: str
    n_records: int
    n_spans: int
    n_unclosed: int
    n_events: int
    event_counts: dict[str, int] = field(default_factory=dict)
    rollups: list[SpanRollup] = field(default_factory=list)
    decision_histogram: Histogram | None = None
    sim_time_span: tuple[float, float] | None = None
    timeline: list[tuple[float, int]] = field(default_factory=list)
    peak_busy_nodes: int = 0


def summarize_trace(path: str | Path) -> TraceSummary:
    """Parse (leniently) and summarize one JSONL trace file."""
    records = read_trace(path, strict=False)
    roots = build_span_tree(records)
    rollups = rollup_spans(roots)
    n_spans = sum(r.count for r in rollups)
    n_unclosed = sum(r.unclosed for r in rollups)
    event_counts: dict[str, int] = {}
    sim_times: list[float] = []
    for record in records:
        if record.get("type") == "event":
            name = str(record.get("name"))
            event_counts[name] = event_counts.get(name, 0) + 1
        t = record.get("t")
        if isinstance(t, (int, float)):
            sim_times.append(float(t))
    latencies = decision_latencies(roots)
    timeline = utilization_timeline(records)
    return TraceSummary(
        path=str(path),
        n_records=len(records),
        n_spans=n_spans,
        n_unclosed=n_unclosed,
        n_events=sum(event_counts.values()),
        event_counts=dict(sorted(event_counts.items())),
        rollups=rollups,
        decision_histogram=latency_histogram(latencies) if latencies else None,
        sim_time_span=(min(sim_times), max(sim_times)) if sim_times else None,
        timeline=timeline,
        peak_busy_nodes=max((busy for _, busy in timeline), default=0),
    )


def format_trace_summary(summary: TraceSummary, top: int = 10) -> str:
    """Terminal-friendly rendering of a :class:`TraceSummary`."""
    lines = [
        f"trace {summary.path}",
        f"  records {summary.n_records:,}  spans {summary.n_spans:,} "
        f"({summary.n_unclosed} unclosed)  events {summary.n_events:,}",
    ]
    if summary.sim_time_span is not None:
        t0, t1 = summary.sim_time_span
        lines.append(
            f"  simulated time {t0:,.0f} .. {t1:,.0f} s "
            f"({(t1 - t0) / 3600:,.2f} h)"
        )
    if summary.peak_busy_nodes:
        lines.append(f"  peak busy nodes {summary.peak_busy_nodes}")
    if summary.rollups:
        lines.append(
            f"  {'span':<24} {'count':>8} {'total s':>10} "
            f"{'self s':>10} {'mean ms':>9}"
        )
        for r in summary.rollups[:top]:
            lines.append(
                f"  {r.name:<24} {r.count:>8,d} {r.total_s:>10.4f} "
                f"{r.self_s:>10.4f} {1e3 * r.mean_s:>9.4f}"
            )
    if summary.event_counts:
        joined = ", ".join(
            f"{name} x{n}" for name, n in summary.event_counts.items()
        )
        lines.append(f"  events: {joined}")
    hist = summary.decision_histogram
    if hist is not None and hist.n:
        lines.append(
            f"  decision latency: n={hist.n} mean={1e3 * hist.mean:.3f} ms "
            f"p50={1e3 * hist.p50:.3f} p90={1e3 * hist.p90:.3f} "
            f"p99={1e3 * hist.p99:.3f} max={1e3 * hist.max:.3f}"
        )
    return "\n".join(lines)
