"""Trace analytics: span profiles, latency histograms, timelines.

The consumption half of the tracer (:mod:`repro.obs.trace`): where
``read_trace``/``build_span_tree`` reconstruct *what happened*, this
module answers *where did the time go*:

* :func:`summarize_trace` folds the span forest into a
  :class:`~repro.obs.profile.Profiler` tree (:meth:`Profiler.fold
  <repro.obs.profile.Profiler.fold>`), so a trace's span table is the
  profile table: calls, cumulative and exclusive wall time per name;
* :func:`decision_latencies` — scheduler decision latencies from
  ``engine.instance`` spans, which :func:`summarize_trace` bins into a
  :class:`~repro.obs.metrics.Timer`;
* :class:`UtilizationTimeline` — the one node-occupancy step function:
  an engine observer, and what :func:`utilization_timeline` replays a
  trace's ``engine.allocate`` / ``engine.release`` / ``engine.job_kill``
  events into (in simulated time, so it is exact and
  machine-independent);
* :func:`summarize_trace` — one-call triage of a trace file, which
  ``python -m repro report DIR`` renders as its trace section.

Everything here is read-only post-processing: it parses artifacts that
already exist and never touches simulator, RNG or network state.  All
trace parsing is lenient (``strict=False``) so the same entry points
work on traces from crashed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterable, Mapping

import numpy as np

from repro.obs.metrics import Timer, nearest_rank
from repro.obs.profile import Profiler
from repro.obs.trace import Span, build_span_tree, read_trace


# -- decision latencies --------------------------------------------------------

def decision_latencies(roots: Iterable[Span]) -> list[float]:
    """Closed ``engine.instance`` span durations, in record order."""
    out = []
    for root in roots:
        for span in root.walk():
            if span.name == "engine.instance" and span.wall_end is not None:
                out.append(span.duration)
    return out


# -- utilization timeline ------------------------------------------------------

class UtilizationTimeline:
    """Piecewise-constant node-occupancy timeline.

    Records a ``(time, used_nodes)`` step whenever occupancy changes;
    :meth:`steps` is the exact step function, in simulated time.
    """

    def __init__(self) -> None:
        self._times: list[float] = [0.0]
        self._used: list[int] = [0]

    def _record(self, now: float, used: int) -> None:
        if now < self._times[-1]:
            raise ValueError("time went backwards")
        # same engine-clock float observed twice, never recomputed
        if now == self._times[-1]:  # repro: noqa[float-time-eq]
            self._used[-1] = used
        else:
            self._times.append(now)
            self._used.append(used)

    def on_start(self, job: Any, now: float) -> None:
        """Observer hook: occupancy step up by ``job.size``."""
        self._record(now, self._used[-1] + job.size)

    def on_finish(self, job: Any, now: float) -> None:
        """Observer hook: occupancy step down by ``job.size``."""
        self._record(now, self._used[-1] - job.size)

    def on_kill(self, job: Any, now: float) -> None:
        """Observer hook: a fault kill also releases the job's nodes."""
        self._record(now, self._used[-1] - job.size)

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, used_nodes)`` breakpoints of the step function."""
        return np.asarray(self._times), np.asarray(self._used, dtype=np.int64)


def utilization_timeline(
    records: Iterable[Mapping[str, Any]],
) -> list[tuple[float, int]]:
    """Replay a trace's occupancy events into :class:`UtilizationTimeline`.

    ``engine.allocate`` / ``engine.release`` / ``engine.job_kill`` drive
    the observer's ``on_start`` / ``on_finish`` / ``on_kill``.  A kill
    record carries no size: it frees what the job's latest allocate
    took.  Returns ``(t, busy_nodes)`` points in simulated time from the
    first occupancy change on — the observer's steps minus its
    ``(0.0, 0)`` origin.  A healthy complete run ends at 0 busy nodes; a
    truncated trace ends wherever the record stream stops.  The clock
    going back starts the next run of a trace several runs wrote; their
    series are concatenated.
    """
    sizes: dict[Any, int] = {}
    runs: list[tuple[float, UtilizationTimeline]] = []   # (first t, replay)
    last = 0.0
    for record in records:
        if not isinstance(record, Mapping) or record.get("type") != "event":
            continue
        name, t, job = record.get("name"), record.get("t"), record.get("job")
        size = sizes.get(job) if name == "engine.job_kill" else record.get("size")
        if not isinstance(size, (int, float)) or not isinstance(t, (int, float)) \
                or t < 0:
            continue
        if name == "engine.allocate":
            sizes[job] = int(size)
            hook = "on_start"
        elif name == "engine.release":
            hook = "on_finish"
        elif name == "engine.job_kill":
            hook = "on_kill"
        else:
            continue
        if not runs or t < last:
            runs.append((float(t), UtilizationTimeline()))
        last = float(t)
        getattr(runs[-1][1], hook)(SimpleNamespace(size=int(size)), last)
    return [
        (t, used)
        for first, replay in runs
        for t, used in zip(*(a.tolist() for a in replay.steps()))
        if t >= first
    ]


# -- one-call trace triage -----------------------------------------------------

@dataclass(frozen=True)
class TraceSummary:
    """One trace file's triage, as data (``repro report``'s trace section)."""

    path: str
    n_records: int
    n_spans: int
    n_unclosed: int
    n_events: int
    event_counts: dict[str, int] = field(default_factory=dict)
    #: the span forest folded into one profile tree
    profile: Profiler = field(default_factory=Profiler)
    #: every decision latency, observed into a timer's fixed bins
    decision_histogram: Timer = field(default_factory=Timer)
    #: the same samples ascending, for exact order statistics
    decision_latencies: list[float] = field(default_factory=list)
    sim_time_span: tuple[float, float] | None = None
    timeline: list[tuple[float, int]] = field(default_factory=list)
    peak_busy_nodes: int = 0

    def decision_latency(self, q: float) -> float:
        """Exact nearest-rank ``q``-quantile of the decision latencies."""
        ordered = self.decision_latencies
        return ordered[nearest_rank(q, len(ordered)) - 1]


def summarize_trace(path: str | Path) -> TraceSummary:
    """Parse (leniently) and summarize one JSONL trace file."""
    records = read_trace(path, strict=False)
    roots = build_span_tree(records)
    spans = [span for root in roots for span in root.walk()]
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
    histogram = Timer()
    for seconds in latencies:
        histogram.observe(seconds)
    timeline = utilization_timeline(records)
    return TraceSummary(
        path=str(path),
        n_records=len(records),
        n_spans=len(spans),
        n_unclosed=sum(span.wall_end is None for span in spans),
        n_events=sum(event_counts.values()),
        event_counts=dict(sorted(event_counts.items())),
        profile=Profiler().fold(roots),
        decision_histogram=histogram,
        decision_latencies=sorted(latencies),
        sim_time_span=(min(sim_times), max(sim_times)) if sim_times else None,
        timeline=timeline,
        peak_busy_nodes=max((busy for _, busy in timeline), default=0),
    )
