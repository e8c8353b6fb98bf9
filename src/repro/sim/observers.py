"""Reusable engine observers for instrumentation and analysis.

This module is the engine's one instrumentation seam: the
:class:`Observer` protocol, and everything that implements a subset of
its hooks (all optional).  The engine knows no other way to be watched.

* The *channel subscribers* — :class:`ProfileObserver`,
  :class:`TraceObserver`, :class:`LiveObserver` — turn the hooks into
  the ``engine.*`` profiler scopes, the ``engine.*`` trace records and
  the ``kind="sim"`` live snapshots.  They own those names and field
  sets; :func:`channel_observers` builds them for one run from the
  engine's ``trace`` / ``profile`` / ``live`` settings, each winning
  over its channel in the process-global set
  (:func:`repro.obs.trace.channels`, ``REPRO_TRACE`` / ``REPRO_PROFILE``
  / ``REPRO_LIVE``), and makes those sinks current for the run, so
  they also see the policy's ``agent.*`` and ``nn.*`` scopes.
* Everything else that watches a run implements the same hooks: the
  reward meter :class:`~repro.rl.meter.RewardMeter`, and the
  node-occupancy timeline :class:`~repro.obs.analyze.UtilizationTimeline`,
  which also replays a trace.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Protocol

from repro.obs import live as _live
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.sim.job import Job, JobState

if TYPE_CHECKING:
    from repro.sim.backfill import Reservation
    from repro.sim.engine import Engine, SchedulingView


class Observer(Protocol):
    """The engine's one subscriber interface.  All methods are optional.

    Everything that watches a run — metric recorders, reward meters and
    the tracer / profiler / live-bus subscribers of
    :mod:`repro.sim.observers` — implements a subset of these hooks.
    The engine resolves each hook to a tuple of bound handlers once per
    :meth:`Engine.run` and calls them in subscriber order; a hook no
    subscriber implements costs a loop over an empty tuple.  A
    subscriber with any other ``on_*`` attribute (bar a scheduler's
    ``on_simulation_start`` / ``_end``) is refused with ``TypeError``.
    Hooks observe only: they must not mutate simulation state.  They
    are declared in the order one scheduling instance fires them.
    """

    def on_run_begin(self, engine: "Engine") -> None:
        """The run is set up (events queued) and about to start."""

    def on_run_end(self, engine: "Engine", completed: bool) -> None:
        """The run is over.  Always fired (from the ``finally``);
        ``completed`` is False when an exception unwound the loop."""

    def on_instance_begin(self, now: float, n_events: int) -> None:
        """The clock moved to ``now``; ``n_events`` simultaneous events
        are about to be applied, then the policy runs once."""

    def on_abandon(self, job: Job, now: float, parent: int) -> None:
        """``job`` can never run: dependency ``parent`` just failed
        (``-1``: it had already failed when ``job`` was submitted)."""

    def on_finish(self, job: Job, now: float) -> None:
        """``job`` ran to completion and released its nodes."""

    def on_kill(self, job: Job, now: float) -> None:
        """A fault aborted the running ``job`` (requeued unless its
        state is ``FAILED``); :attr:`Engine.kill_cause` says which."""

    def on_node_fail(self, now: float, nodes: list[int],
                     killed: list[int]) -> None:
        """``nodes`` went down, after the ``killed`` jobs were evacuated."""

    def on_node_repair(self, now: float, node: int) -> None:
        """``node`` came back up."""

    def on_schedule_begin(self, view: "SchedulingView") -> None:
        """The policy is about to be invoked for this instance."""

    def on_start(self, job: Job, now: float) -> None:
        """The policy started ``job`` (``job.mode`` is set)."""

    def on_reserve(self, job: Job, now: float,
                   reservation: "Reservation") -> None:
        """The policy reserved nodes for the blocked ``job``."""

    def on_schedule_end(self, view: "SchedulingView") -> None:
        """The policy returned (not fired when it raised)."""

    def on_instance(self, view: "SchedulingView") -> None:
        """The scheduling instance is over."""


#: every hook of the protocol, in declaration order; the engine resolves
#: each to a tuple of bound handlers at the top of a run
HOOKS = tuple(name for name in vars(Observer) if name.startswith("on_"))

#: the ``on_*`` names a subscriber may define: the hooks, plus the
#: scheduler lifecycle pair (one object may be a run's scheduler and
#: one of its subscribers)
_ON_NAMES = frozenset(HOOKS) | {"on_simulation_start", "on_simulation_end"}

#: type -> its stray ``on_*`` names; weak, so it keeps no class alive
_STRAY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def stray_hooks(cls: type) -> tuple[str, ...]:
    """``cls``'s ``on_*`` attributes that are not hooks (memoised per type).

    The engine looks hooks up by name, so a misspelt one (``on_reserved``)
    or one the protocol does not have would silently never be called.
    """
    stray = _STRAY.get(cls)
    if stray is None:
        stray = _STRAY[cls] = tuple(
            name for name in dir(cls)
            if name.startswith("on_") and name not in _ON_NAMES)
    return stray


class ProfileObserver:
    """Times the run as ``engine.run`` > ``engine.instance`` > ``engine.schedule``."""

    __slots__ = ("profiler", "_depth")

    def __init__(self, profiler: "_profile.Profiler") -> None:
        self.profiler = profiler
        self._depth = 0

    def on_run_begin(self, engine: "Engine") -> None:
        """Remember the caller's scope depth, then open ``engine.run``."""
        self._depth = self.profiler.open_depth
        self.profiler.push("engine.run")

    def on_instance_begin(self, now: float, n_events: int) -> None:
        """Open the per-timestamp scope."""
        self.profiler.push("engine.instance")

    def on_schedule_begin(self, view: "SchedulingView") -> None:
        """Open the policy-call scope."""
        self.profiler.push("engine.schedule")

    def on_schedule_end(self, view: "SchedulingView") -> None:
        """Close ``engine.schedule``."""
        self.profiler.pop()

    def on_instance(self, view: "SchedulingView") -> None:
        """Close ``engine.instance``."""
        self.profiler.pop()

    def on_run_end(self, engine: "Engine", completed: bool) -> None:
        """Unwind to the caller's depth: a policy that raised mid-instance
        must not leak open scopes into the caller's profile."""
        self.profiler.pop_to(self._depth)


class TraceObserver:
    """Writes the ``engine.*`` trace records: one span per scheduling
    instance, one event per allocate / release / reserve / fault.

    The tracer is flushed when the run ends and closed by its owner.
    """

    __slots__ = ("tracer", "_engine", "_span", "_instance",
                 "_allocate", "_release", "_reserve")

    def __init__(self, tracer: "_trace.Tracer") -> None:
        self.tracer = tracer
        self._engine: "Engine | None" = None
        self._span = -1
        # the per-instance records, compiled once
        self._instance = tracer.begin_shape("engine.instance", t=float,
                                            batch=int)
        self._allocate = tracer.event_shape("engine.allocate", t=float,
                                            job=int, size=int, mode=str)
        self._release = tracer.event_shape("engine.release", t=float,
                                           job=int, size=int)
        self._reserve = tracer.event_shape(
            "engine.backfill_reserve", t=float, job=int, size=int,
            shadow_time=float, extra_nodes=int)

    def on_run_begin(self, engine: "Engine") -> None:
        """Keep the engine: ``on_kill`` reads its ``kill_cause``."""
        self._engine = engine

    def on_instance_begin(self, now: float, n_events: int) -> None:
        """Open the instance span; the events below nest under it."""
        self._span = self._instance(now, n_events)

    def on_abandon(self, job: Job, now: float, parent: int) -> None:
        """Record a dependency-cancelled job."""
        self.tracer.event("engine.job_abandon", t=now, job=job.job_id,
                          parent=parent)

    def on_finish(self, job: Job, now: float) -> None:
        """Record the node release of a completed job."""
        self._release(now, job.job_id, job.size)

    def on_kill(self, job: Job, now: float) -> None:
        """Record a fault kill and whether the job went back to the queue."""
        self.tracer.event(
            "engine.job_kill", t=now, job=job.job_id,
            cause=self._engine.kill_cause,
            requeued=job.state is not JobState.FAILED,
            wasted=job.wasted_node_seconds,
        )

    def on_node_fail(self, now: float, nodes: list[int],
                     killed: list[int]) -> None:
        """Record the downed nodes and the jobs evacuated from them."""
        self.tracer.event("engine.node_fail", t=now, nodes=nodes,
                          killed=killed)

    def on_node_repair(self, now: float, node: int) -> None:
        """Record a node coming back up."""
        self.tracer.event("engine.node_repair", t=now, node=node)

    def on_start(self, job: Job, now: float) -> None:
        """Record the allocation and the execution mode it was given."""
        self._allocate(now, job.job_id, job.size, job.mode.value)

    def on_reserve(self, job: Job, now: float,
                   reservation: "Reservation") -> None:
        """Record the reservation the backfill planner computed."""
        self._reserve(now, job.job_id, job.size, reservation.shadow_time,
                      reservation.extra_nodes)

    def on_instance(self, view: "SchedulingView") -> None:
        """Close the instance span (left open when the policy raised)."""
        self.tracer.end(self._span)

    def on_run_end(self, engine: "Engine", completed: bool) -> None:
        """Durability: never lose the buffered tail."""
        self.tracer.flush()


class LiveObserver:
    """Publishes ``kind="sim"`` snapshots of the run to a live bus.

    One snapshot every :data:`~repro.obs.live.LIVE_SIM_EVERY` processed
    events (read when built) plus a final one when the loop completes.
    The cadence is an event count — never a wall-clock timer — so the
    snapshot sequence is a pure function of the run.
    """

    __slots__ = ("bus", "every", "_engine", "_events", "_pending")

    def __init__(self, bus: "_live.LiveBus") -> None:
        self.bus = bus
        self.every = _live.LIVE_SIM_EVERY
        self._engine: "Engine | None" = None
        self._events = 0
        self._pending = 0

    def on_run_begin(self, engine: "Engine") -> None:
        """Remember the engine the snapshots read."""
        self._engine = engine

    def on_instance_begin(self, now: float, n_events: int) -> None:
        """Count the batch towards the cadence."""
        self._events += n_events
        self._pending += n_events

    def on_instance(self, view: "SchedulingView") -> None:
        """Publish when ``every`` events have passed since the last one."""
        if self._pending >= self.every:
            self._pending = 0
            self._publish(final=False)

    def on_run_end(self, engine: "Engine", completed: bool) -> None:
        """Publish the final snapshot of a run that was not cut short."""
        if completed:
            self._publish(final=True)

    def _publish(self, final: bool) -> None:
        engine = self._engine
        cluster = engine.cluster
        free = cluster.available_nodes
        fields: dict[str, Any] = {
            "t": engine.now,
            "events": self._events,
            "instances": engine.num_instances,
            "queue_depth": len(engine.queue),
            "running": engine.num_running,
            "free_nodes": free,
            "num_nodes": cluster.num_nodes,
            "utilization": (cluster.num_nodes - free) / cluster.num_nodes,
            "done": engine.num_done,
            "total": engine.num_jobs,
        }
        if engine.injector is not None:
            counters = engine.injector.counters
            fields["faults"] = counters.node_failures
            fields["requeues"] = counters.requeues
        if final:
            fields["final"] = True
        self.bus.publish("sim", fields)


@contextmanager
def channel_observers(
    trace: "_trace.Tracer | str | Path | None",
    profile: "_profile.Profiler | None",
    live: "_live.LiveBus | None",
) -> Iterator[list[Any]]:
    """Make one run's sinks current and yield their subscribers.

    Each explicit setting wins over its channel for the block
    (:func:`repro.obs.trace.sinks`), so every scope inside it reaches
    the run's sinks; a channel off either way contributes nothing.  A
    trace path is opened here and closed on exit.  The profiler goes
    first so its scopes enclose the other subscribers' work.
    """
    owned = None
    if trace is not None and not isinstance(trace, _trace.Tracer):
        owned = trace = _trace.Tracer(trace)
    try:
        with _trace.sinks(trace, profile, live) as current:
            tracer, profiler, bus = current
            yield [channel for channel in (
                profiler and ProfileObserver(profiler),
                tracer and TraceObserver(tracer),
                bus and LiveObserver(bus),
            ) if channel is not None]
    finally:
        if owned is not None:
            owned.close()
