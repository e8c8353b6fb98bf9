"""Event-driven cluster-scheduling simulator (CQSim-style substrate).

This package re-implements the trace-based, event-driven scheduling
simulator that the DRAS paper uses for both training and evaluation
(section IV-B).  A real system takes jobs from user submission; the
simulator takes jobs by reading arrival information from a trace and
simulates execution by advancing a virtual clock according to the job
runtime information in the trace.

Layout
------
``job``
    The rigid-job model (size, walltime estimate, actual runtime,
    priority, dependencies) plus lifecycle state and derived metrics.
``cluster``
    The node pool: allocation, release, per-node estimated-available
    times, and the paper's node state encoding.
``events``
    Binary-heap event queue with deterministic tie-breaking.
``queue``
    The wait-queue manager with dependency gating and window extraction.
``backfill``
    EASY-backfilling machinery: shadow time, extra nodes, candidate
    filtering.
``faults``
    Seeded fault injection: node failure/repair processes, job kills,
    requeue policies, and resilience accounting.
``engine``
    The simulation engine that wires everything together and invokes a
    pluggable scheduling policy at every scheduling instance.
``metrics``
    Per-run metric recording (wait/response/slowdown/utilization and
    per-execution-mode breakdowns).
"""

from repro.sim.job import ExecMode, Job, JobState
from repro.sim.cluster import Cluster
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.queue import WaitQueue
from repro.sim.backfill import BackfillPlanner, Reservation
from repro.sim.faults import FaultConfig, FaultInjector, ResilienceMetrics
from repro.sim.engine import Engine, SchedulingView, SimulationResult
from repro.sim.metrics import RunMetrics
from repro.obs.analyze import UtilizationTimeline
from repro.sim.profile import ResourceProfile

__all__ = [
    "BackfillPlanner",
    "Cluster",
    "Engine",
    "Event",
    "EventKind",
    "EventQueue",
    "ExecMode",
    "FaultConfig",
    "FaultInjector",
    "Job",
    "JobState",
    "Reservation",
    "ResilienceMetrics",
    "ResourceProfile",
    "RunMetrics",
    "SchedulingView",
    "SimulationResult",
    "UtilizationTimeline",
    "WaitQueue",
]
