"""Observability layer: tracing, metrics, profiling, analytics, reports.

``repro.obs`` gives every long simulation and training run visibility,
all designed around the same contract as the PR 1 sanitizer:
**disabled-path cost is one boolean/None check**, and an instrumented
run is bit-identical to an uninstrumented one (the layer only ever
*observes* — it never touches simulation or RNG state).

* :mod:`repro.obs.trace` — a near-zero-overhead JSONL event tracer, and
  the one process-global channel set (:func:`~repro.obs.trace.channels`:
  the current tracer, profiler and live bus).  ``REPRO_TRACE=path``,
  ``REPRO_PROFILE=path`` and ``REPRO_LIVE`` switch a channel on for the
  process; ``Engine(trace=, profile=, live=)`` make explicit sinks
  current for one run (:func:`~repro.obs.trace.sinks`).  The engine
  emits scheduler-decision spans and allocate/release/backfill events;
  the agents, the NN stack and the trainer enter ``agent.*`` / ``nn.*``
  / ``train.*`` scopes through :func:`~repro.obs.trace.span`.  Traces
  survive crashes: the buffered tail is flushed on engine exit and at
  interpreter exit.
* :mod:`repro.obs.profile` — a deterministic hierarchical wall-time
  profiler (call counts + cumulative/self seconds per scope path).
* :mod:`repro.obs.metrics` — the fixed log-binned duration histogram
  (:class:`~repro.obs.metrics.Timer`) that trace summaries and reports
  bin latencies into, and the engine's two event counters
  (:class:`~repro.obs.metrics.MetricsRegistry`, ``Engine.metrics``).
* :mod:`repro.obs.manifest` — :class:`~repro.obs.manifest.RunManifest`
  records what produced a result file: seed, git SHA, configuration,
  workload-model parameters and summary metrics.  Manifests with the
  same inputs are identical minus timestamps.
* :mod:`repro.obs.analyze` — post-run trace analytics: the span
  forest folded into a profile tree, scheduler decision-latency
  histograms and node-utilization timeline reconstruction.
* :mod:`repro.obs.report` — a dependency-free self-contained HTML run
  report (inline SVG charts) behind ``python -m repro report DIR``.

See ``docs/observability.md`` for usage; what each instrument costs is
measured by the ``obs.*.overhead_ratio`` metrics of ``BENCHMARK.json``
(``docs/benchmarks.md``).
"""

from __future__ import annotations

from repro.obs.analyze import (
    TraceSummary,
    decision_latencies,
    summarize_trace,
    utilization_timeline,
)
from repro.obs.manifest import RunManifest, describe_workload, git_sha
from repro.obs.metrics import Counter, MetricsRegistry, Timer
from repro.obs.profile import Profiler
from repro.obs.report import render_report, write_report
from repro.obs.trace import (
    Span,
    Tracer,
    TraceWarning,
    build_span_tree,
    channels,
    read_trace,
    sinks,
    span,
)

__all__ = [
    "Counter",
    "MetricsRegistry",
    "Profiler",
    "RunManifest",
    "Span",
    "Timer",
    "TraceSummary",
    "TraceWarning",
    "Tracer",
    "build_span_tree",
    "channels",
    "decision_latencies",
    "describe_workload",
    "git_sha",
    "read_trace",
    "render_report",
    "sinks",
    "span",
    "summarize_trace",
    "utilization_timeline",
    "write_report",
]
