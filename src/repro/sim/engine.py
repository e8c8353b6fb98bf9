"""The trace-driven simulation engine.

The engine replays a jobset: ``SUBMIT`` events come from the trace,
``FINISH`` events from actual job runtimes.  After draining all events
at a timestamp it invokes the pluggable scheduling policy once — that is
one *scheduling instance* in the paper's terminology.

The policy interacts with the engine through a :class:`SchedulingView`:
it inspects the queue and cluster state, then calls
:meth:`SchedulingView.start` / :meth:`SchedulingView.reserve` to take
actions.  Effects apply immediately, so a policy that starts jobs one at
a time (as DRAS does — one job selection per network invocation)
observes the exact intermediate state before each selection.

Execution-mode attribution follows section III-B:

* ``READY`` — started immediately by a level-1 selection;
* ``RESERVED`` — the job held the reservation at some point before it
  started;
* ``BACKFILLED`` — started while another job held the reservation.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Protocol, Sequence

import numpy as np

from repro.check import sanitize as _san
from repro.obs.metrics import MetricsRegistry
from repro.sim.backfill import BackfillPlanner, Reservation
from repro.sim.cluster import Cluster
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.faults import FaultConfig, FaultInjector, ResilienceMetrics
from repro.sim.job import ExecMode, Job, JobState
from repro.sim.observers import HOOKS, Observer, channel_observers, stray_hooks
from repro.sim.queue import WaitQueue

if TYPE_CHECKING:
    from repro.obs.live import LiveBus
    from repro.obs.profile import Profiler
    from repro.obs.trace import Tracer


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress."""


class SchedulingView:
    """The policy-facing interface of one scheduling instance."""

    __slots__ = ("_engine", "_selected", "_reservation", "_reserved_job")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        #: see :attr:`selected`
        self._selected: list[Job] = []
        self._reservation: Reservation | None = None
        #: job object currently holding the reservation, if any
        self._reserved_job: Job | None = None

    # -- observations ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._engine.now

    @property
    def cluster(self) -> Cluster:
        """The simulated machine (read access for state encoding)."""
        return self._engine.cluster

    @property
    def free_nodes(self) -> int:
        """Nodes free right now."""
        return self._engine.cluster.available_nodes

    @property
    def num_nodes(self) -> int:
        """Total system size."""
        return self._engine.cluster.num_nodes

    def waiting(self) -> list[Job]:
        """Eligible jobs in arrival order."""
        return self._engine.queue.waiting

    def window(self, size: int) -> list[Job]:
        """The ``size`` oldest eligible jobs."""
        return self._engine.queue.window(size)

    @property
    def queue_depth(self) -> int:
        """How many jobs are eligible right now (O(1), no copy)."""
        return len(self._engine.queue)

    @property
    def held_count(self) -> int:
        """How many submitted jobs still wait on dependencies (O(1))."""
        queue = self._engine.queue
        return queue.total_pending - len(queue)

    @property
    def reservation(self) -> Reservation | None:
        """The reservation made in this instance (at most one)."""
        return self._reservation

    @property
    def selected(self) -> list[Job]:
        """Jobs selected so far during this instance, in action order:
        each job started and the one reserved (once, if it then starts)."""
        return list(self._selected)

    def backfill_candidates(self, pool: list[Job] | None = None) -> list[Job]:
        """Waiting jobs that may legally backfill the active reservation."""
        if self._reservation is None:
            raise SimulationError("backfill_candidates requires a reservation")
        engine = self._engine
        if pool is None:
            if engine.cluster.available_nodes < engine.queue.min_size:
                return []  # no waiting job fits: nothing to scan for
            pool = engine.queue.waiting
        return engine.planner.candidates(pool, self._reservation, engine.now)

    def backfill_first(self) -> Job | None:
        """The first legal backfill candidate, or ``None``.

        Equivalent to ``backfill_candidates()[0]`` (with the empty case
        mapped to ``None``) but stops scanning at the first hit — the
        fast path for first-fit policies like FCFS/EASY.
        """
        if self._reservation is None:
            raise SimulationError("backfill_first requires a reservation")
        engine = self._engine
        if engine.cluster.available_nodes < engine.queue.min_size:
            return None  # no waiting job fits: nothing to scan for
        # the live list is safe here: first_candidate only scans, and
        # the scan completes before the caller can start anything
        return engine.planner.first_candidate(
            engine.queue.peek_waiting(), self._reservation, engine.now)

    # -- actions ----------------------------------------------------------------
    def start(self, job: Job) -> Job:
        """Start ``job`` now.

        Its mode is attributed automatically: ``RESERVED`` if the job
        ever held a reservation, ``BACKFILLED`` if another job holds the
        reservation right now, otherwise ``READY``.
        """
        if job.state is not JobState.WAITING:
            raise SimulationError(f"job {job.job_id} is not waiting")
        if job.size > self.free_nodes:
            raise SimulationError(
                f"job {job.job_id} (size {job.size}) does not fit in "
                f"{self.free_nodes} free nodes"
            )
        if self._reservation is not None and job.job_id != self._reservation.job_id:
            if not self._reservation.allows(job, self.now, self.free_nodes):
                raise SimulationError(
                    f"job {job.job_id} would delay the reservation for "
                    f"job {self._reservation.job_id}"
                )
        if job.ever_reserved:
            mode = ExecMode.RESERVED
        elif self._reservation is not None:
            mode = ExecMode.BACKFILLED
        else:
            mode = ExecMode.READY
        self._engine._start_job(job, mode)
        if self._reserved_job is job:  # selected when it was reserved
            self._reservation = None
            self._reserved_job = None
        else:
            self._selected.append(job)
        return job

    def reserve(self, job: Job) -> Reservation:
        """Reserve resources for a blocked job (one reservation at most)."""
        if self._reservation is not None:
            raise SimulationError("a reservation already exists in this instance")
        if job.state is not JobState.WAITING:
            raise SimulationError(f"job {job.job_id} is not waiting")
        if job.size <= self.free_nodes:
            raise SimulationError(
                f"job {job.job_id} fits right now; start it instead of reserving"
            )
        reservation = self._engine.planner.reserve(job, self.now)
        if _san.sanitizer_enabled():
            _san.check_reservation(job, reservation, self.now,
                                   self._engine._running,
                                   self._engine.cluster)
        job.ever_reserved = True
        self._reservation = reservation
        self._reserved_job = job
        self._selected.append(job)
        for handler in self._engine._on_reserve:
            handler(job, self.now, reservation)
        return reservation


class Scheduler(Protocol):
    """The pluggable policy interface.

    A scheduler is invoked once per scheduling instance and takes its
    actions by calling methods on the view.  Implementations live in
    :mod:`repro.schedulers` (heuristics) and :mod:`repro.core` (DRAS).
    """

    name: str

    def schedule(self, view: SchedulingView) -> None: ...


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one simulation run."""

    jobs: list[Job]
    makespan: float
    first_submit: float
    num_instances: int
    num_nodes: int
    #: fault-impact summary; ``None`` when no fault model was active
    resilience: ResilienceMetrics | None = None

    @property
    def finished_jobs(self) -> list[Job]:
        """The subset of jobs that ran to completion."""
        return [j for j in self.jobs if j.state is JobState.FINISHED]

    @property
    def elapsed(self) -> float:
        """Wall-clock span of the run (first submission to last finish)."""
        return max(0.0, self.makespan - self.first_submit)


class Engine:
    """Event-driven scheduling simulator.

    Parameters
    ----------
    cluster:
        The node pool.  It is reset to all-idle when the run starts
        (each training episode starts from the initial state, §III-C).
    scheduler:
        The policy invoked at every scheduling instance.
    jobs:
        The jobset to replay.  Jobs must be in the ``PENDING`` state.
    observers:
        Optional :class:`Observer` subscribers (reward meters, an
        :class:`~repro.obs.analyze.UtilizationTimeline`).
    sanitize:
        The sanitizer decision (:mod:`repro.check.sanitize`) for each
        whole :meth:`run`, the policy's network checks included;
        ``None`` (the default) keeps the current one.
    trace:
        Structured-event tracing (:mod:`repro.obs.trace`).  Pass a
        :class:`~repro.obs.trace.Tracer` (flushed when a run ends; the
        caller closes it), or a path: each :meth:`run` then opens the
        file afresh and closes it when the run ends, so it always holds
        exactly the latest run.  ``None`` (the default) follows the
        current tracer (:func:`repro.obs.trace.channels`, the
        ``REPRO_TRACE=path`` env var).  An explicit tracer is current
        for the run, so it also records the policy's ``agent.*`` and
        ``nn.*`` spans.  Tracing is observe-only: a traced run is
        bit-identical to an untraced one.
    profile:
        Hierarchical wall-time profiling (:mod:`repro.obs.profile`).
        Pass a :class:`~repro.obs.profile.Profiler`, current for the
        run like an explicit tracer; ``None`` (the default) follows the
        current profiler (``REPRO_PROFILE=path`` env var).  Profiling
        is observe-only and bit-identical in simulated time, like
        tracing.
    live:
        In-flight snapshot publishing (:mod:`repro.obs.live`).  Pass a
        :class:`~repro.obs.live.LiveBus`, current for the run; ``None``
        (the default) follows the current bus (``REPRO_LIVE`` env var).
        A ``kind="sim"`` snapshot is published every
        :data:`~repro.obs.live.LIVE_SIM_EVERY` processed events (a
        count, never a wall-clock timer) plus a final one at
        completion.  Publishing is observe-only: a live-enabled run is
        bit-identical to a dark one.
    faults:
        Optional :class:`~repro.sim.faults.FaultConfig` activating the
        seeded fault model (node failures/repairs, job kills, requeue).
        The result then carries a
        :class:`~repro.sim.faults.ResilienceMetrics` summary.
    max_events:
        Runaway guard: raise :class:`SimulationError` (with queue/clock
        diagnostics) after processing this many events.  ``None``
        disables the cap.
    max_wall_s:
        Runaway guard: raise :class:`SimulationError` once the run has
        consumed this much wall-clock time.  ``None`` disables it.

    ``trace`` / ``profile`` / ``live`` (or their current channels) each
    append one subscriber from :mod:`repro.sim.observers` after
    ``observers`` at the top of :meth:`run`; the loop itself only ever
    speaks the :class:`Observer` protocol.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        jobs: Iterable[Job],
        observers: Sequence[Observer] = (),
        sanitize: bool | None = None,
        trace: "Tracer | str | Path | None" = None,
        profile: "Profiler | None" = None,
        live: "LiveBus | None" = None,
        faults: FaultConfig | None = None,
        max_events: int | None = None,
        max_wall_s: float | None = None,
    ) -> None:
        self.cluster = cluster
        self.sanitize = sanitize
        self._trace = trace
        self._profile = profile
        self._live = live
        self.scheduler = scheduler
        self.queue = WaitQueue()
        self.planner = BackfillPlanner(cluster, self.queue)
        self.events = EventQueue()
        self.observers = list(observers)
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        if max_wall_s is not None and max_wall_s <= 0:
            raise ValueError(f"max_wall_s must be positive, got {max_wall_s}")
        self.max_events = max_events
        self.max_wall_s = max_wall_s
        self.fault_config = faults
        self.injector: FaultInjector | None = None
        if faults is not None and faults.active:
            self.injector = FaultInjector(faults)
        self.now = 0.0
        self.num_instances = 0
        self._jobs: dict[int, Job] = {}
        self._running: dict[int, Job] = {}
        #: live FINISH event per running job, for fault cancellation
        self._finish_events: dict[int, Event] = {}
        #: jobs not yet FINISHED or FAILED; run loop termination under
        #: recurring fault events (which never drain the event queue)
        self._jobs_remaining = 0
        #: why the job being delivered to ``on_kill`` died:
        #: ``"node_fail"`` or ``"job_kill"``
        self.kill_cause = ""
        #: SUBMIT / FINISH events processed, summed over every run
        self.metrics = MetricsRegistry()
        self._m_submits = self.metrics.counter("engine.events_submit")
        self._m_finishes = self.metrics.counter("engine.events_finish")

        for job in jobs:
            if job.state is not JobState.PENDING:
                raise ValueError(
                    f"job {job.job_id} must be PENDING (got {job.state}); "
                    "use Job.copy_fresh() to reuse a jobset"
                )
            if job.size > cluster.num_nodes:
                raise ValueError(
                    f"job {job.job_id} (size {job.size}) can never fit on a "
                    f"{cluster.num_nodes}-node cluster"
                )
            if job.job_id in self._jobs:
                raise ValueError(f"duplicate job id {job.job_id}")
            self._jobs[job.job_id] = job
        # so a hand-made SchedulingView outside run() still notifies
        self._bind(self.observers)

    def _bind(self, subscribers: Sequence[Observer]) -> None:
        """Resolve every hook to its tuple of bound handlers.

        ``self._on_start`` and friends: one attribute per hook, holding
        the handlers of the subscribers that implement it, in order.  A
        subscriber with an ``on_*`` attribute that is no hook raises
        ``TypeError``: the engine would never call it.
        """
        for sub in subscribers:
            stray = stray_hooks(type(sub))
            if stray:
                raise TypeError(
                    f"{type(sub).__qualname__}.{stray[0]} is not a hook of "
                    "the Observer protocol (misspelt?); the engine would "
                    "never call it")
        for hook in HOOKS:
            setattr(self, "_" + hook, tuple(
                getattr(sub, hook) for sub in subscribers
                if hasattr(sub, hook)))

    # -- internal hooks used by the view ----------------------------------------
    def _start_job(self, job: Job, mode: ExecMode) -> None:
        if _san.sanitizer_enabled():
            _san.check_job_start(job, self.now, self._running)
        self.queue.remove(job)
        self.cluster.allocate(job, self.now)
        job.mark_started(self.now, mode)
        self._running[job.job_id] = job
        self._finish_events[job.job_id] = self.events.push(
            self.now + job.runtime, EventKind.FINISH, job.job_id
        )
        for handler in self._on_start:
            handler(job, self.now)

    def _finish_job(self, job: Job) -> None:
        self.cluster.release(job)
        job.mark_finished(self.now)
        del self._running[job.job_id]
        self._finish_events.pop(job.job_id, None)
        self._jobs_remaining -= 1
        self.queue.notify_finished(job)
        for handler in self._on_finish:
            handler(job, self.now)

    @property
    def num_running(self) -> int:
        """How many jobs are running right now (O(1), no copy)."""
        return len(self._running)

    @property
    def num_jobs(self) -> int:
        """How many jobs the replayed jobset holds."""
        return len(self._jobs)

    @property
    def num_done(self) -> int:
        """How many jobs are FINISHED or FAILED so far."""
        return len(self._jobs) - self._jobs_remaining

    # -- fault handling ----------------------------------------------------------
    def _kill_job(self, job: Job, cause: str) -> None:
        """Abort a running job because of a fault; requeue or abandon it."""
        inj = self.injector
        assert inj is not None
        self.events.cancel(self._finish_events.pop(job.job_id))
        self.cluster.release_killed(job, self.now)
        del self._running[job.job_id]
        cfg = inj.config
        requeue = cfg.requeue != "abandon" and (
            cfg.max_requeues is None or job.times_killed < cfg.max_requeues
        )
        job.mark_killed(self.now, requeue=requeue)
        inj.counters.jobs_killed += 1
        if requeue:
            self.queue.requeue(job, front=cfg.requeue == "requeue-front")
            inj.counters.requeues += 1
        else:
            inj.counters.abandons += 1
            self._jobs_remaining -= 1
            for doomed in self.queue.notify_failed(job):
                doomed.mark_abandoned()
                inj.counters.abandons += 1
                self._jobs_remaining -= 1
                for handler in self._on_abandon:
                    handler(doomed, self.now, job.job_id)
        self.kill_cause = cause
        for handler in self._on_kill:
            handler(job, self.now)

    def _handle_node_fail(self) -> None:
        """One failure event: pick victims, evacuate, mark down, reschedule."""
        inj = self.injector
        assert inj is not None
        n_nodes, repairs = inj.sample_failure()
        up = np.flatnonzero(~self.cluster.down_mask)
        victims = inj.choose_failed_nodes(up, n_nodes)
        killed = self.cluster.jobs_on(victims)
        for job_id in killed:
            self._kill_job(self._jobs[job_id], cause="node_fail")
        inj.counters.node_failures += 1
        nodes = victims.tolist()
        n_victims = len(nodes)
        if n_victims:
            # one vectorized down-transition for the whole blade; the
            # repair events keep per-victim push order (stable seq ids)
            up_ats = self.now + np.asarray(repairs[:n_victims], dtype=np.float64)
            self.cluster.fail_nodes(victims, self.now, up_ats)
            for node, up_at in zip(nodes, up_ats.tolist()):
                self.events.push(up_at, EventKind.NODE_REPAIR, node=node)
            inj.counters.nodes_failed += n_victims
        for handler in self._on_node_fail:
            handler(self.now, nodes, killed)
        self.events.push(self.now + inj.next_failure_gap(), EventKind.NODE_FAIL)

    def _handle_node_repair(self, event: Event) -> None:
        """Bring one node back up at its scheduled repair time."""
        inj = self.injector
        assert inj is not None
        self.cluster.repair_nodes([event.node], self.now)
        inj.counters.node_repairs += 1
        for handler in self._on_node_repair:
            handler(self.now, event.node)

    def _handle_job_kill(self) -> None:
        """One job-kill fault: abort a uniformly-chosen running job."""
        inj = self.injector
        assert inj is not None
        running = sorted(self._running)
        if running:
            victim = inj.choose_victim(running)
            self._kill_job(self._jobs[victim], cause="job_kill")
        self.events.push(self.now + inj.next_kill_gap(), EventKind.JOB_KILL)

    # -- main loop -----------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Replay the jobset to completion and return the result.

        The engine's ``trace`` / ``profile`` / ``live`` sinks are the
        current channels, and its ``sanitize`` the sanitizer decision,
        for the whole run: the policy's ``agent.*`` and ``nn.*`` follow
        them too.
        """
        with _san.sanitizing(self.sanitize), channel_observers(
                self._trace, self._profile, self._live) as channels:
            return self._replay(channels)

    def _replay(self, channels: list[Observer]) -> SimulationResult:
        """:meth:`run` with its channel subscribers built."""
        self.cluster.reset()
        self.queue.clear()
        self.events.clear()
        self.now = 0.0
        self.num_instances = 0
        self._finish_events = {}
        self._jobs_remaining = len(self._jobs)

        first_submit = 0.0
        if self._jobs:
            first_submit = min(j.submit_time for j in self._jobs.values())
        for job in self._jobs.values():
            self.events.push(job.submit_time, EventKind.SUBMIT, job.job_id)

        inj = self.injector
        if inj is not None and self._jobs:
            inj.reset()
            if inj.config.mtbf > 0:
                self.events.push(first_submit + inj.next_failure_gap(),
                                 EventKind.NODE_FAIL)
            if inj.config.job_kill_mtbf > 0:
                self.events.push(first_submit + inj.next_kill_gap(),
                                 EventKind.JOB_KILL)

        hook = getattr(self.scheduler, "on_simulation_start", None)
        if hook is not None:
            hook(self)

        sanitized = _san.sanitizer_enabled()
        # the one seam: the channels join the caller's observers as
        # ordinary subscribers, and every hook's handlers resolve here
        self._bind([*self.observers, *channels])
        on_instance_begin = self._on_instance_begin
        # loop-invariant reads hoisted out of the event loop (each is
        # consulted once or more per batch)
        events = self.events
        max_events = self.max_events
        max_wall_s = self.max_wall_s
        events_seen = 0
        wall_start = _perf_counter() if max_wall_s is not None else 0.0
        completed = False
        try:
            for handler in self._on_run_begin:
                handler(self)
            while events and self._jobs_remaining > 0:
                batch = events.pop_simultaneous()
                events_seen += len(batch)
                if max_events is not None and events_seen > max_events:
                    raise SimulationError(self._runaway_diagnostics(
                        f"processed {events_seen} events "
                        f"(max_events={max_events})", batch[0].time,
                    ))
                if max_wall_s is not None \
                        and _perf_counter() - wall_start > max_wall_s:
                    raise SimulationError(self._runaway_diagnostics(
                        f"exceeded the {max_wall_s}s wall-clock "
                        f"deadline after {events_seen} events", batch[0].time,
                    ))
                if sanitized:
                    _san.check_monotonic_time(self.now, batch[0].time)
                self.now = batch[0].time
                for handler in on_instance_begin:
                    handler(self.now, len(batch))
                for event in batch:
                    kind = event.kind
                    if kind is EventKind.FINISH:
                        self._m_finishes.value += 1
                        self._finish_job(self._jobs[event.job_id])
                    elif kind is EventKind.SUBMIT:
                        self._m_submits.value += 1
                        job = self._jobs[event.job_id]
                        if not self.queue.submit(job):
                            # a dependency already FAILED: the job can
                            # never run
                            job.mark_abandoned()
                            self._jobs_remaining -= 1
                            if self.injector is not None:
                                self.injector.counters.abandons += 1
                            for handler in self._on_abandon:
                                handler(job, self.now, -1)
                    elif kind is EventKind.NODE_REPAIR:
                        self._handle_node_repair(event)
                    elif kind is EventKind.NODE_FAIL:
                        self._handle_node_fail()
                    else:  # EventKind.JOB_KILL
                        self._handle_job_kill()
                self._run_instance()
            completed = True

            if len(self.queue) > 0 and not self._running:
                stuck = [j.job_id for j in self.queue.waiting]
                raise SimulationError(
                    f"simulation stalled with waiting jobs {stuck[:5]} and an "
                    "idle cluster; the policy failed to start any runnable job"
                )
        finally:
            # durability: subscribers flush buffered tails and unwind
            # open scopes here, even when the policy raised
            for handler in self._on_run_end:
                handler(self, completed)
            # the channel subscribers lived for this run only; some hold
            # the engine, and that cycle would keep the whole run (jobs,
            # cluster arrays) alive until the garbage collector finds it
            self._bind(self.observers)

        hook = getattr(self.scheduler, "on_simulation_end", None)
        if hook is not None:
            hook(self)

        resilience = None
        if self.injector is not None:
            resilience = self._summarize_resilience(first_submit)

        return SimulationResult(
            jobs=list(self._jobs.values()),
            makespan=self.now,
            first_submit=first_submit,
            num_instances=self.num_instances,
            num_nodes=self.cluster.num_nodes,
            resilience=resilience,
        )

    def _runaway_diagnostics(self, what: str, event_time: float) -> str:
        """Build the runaway-guard error message with loop diagnostics."""
        return (
            f"runaway simulation: {what}; clock at t={event_time}, "
            f"{len(self.queue)} waiting / {self.queue.total_pending} pending "
            f"jobs, {len(self._running)} running, {self._jobs_remaining} "
            f"jobs unfinished, {len(self.events)} events still queued"
        )

    def _summarize_resilience(self, first_submit: float) -> ResilienceMetrics:
        """Fold the fault counters and cluster accounting into a summary."""
        assert self.injector is not None
        c = self.injector.counters
        elapsed = max(0.0, self.now - first_submit)
        lost = self.cluster.lost_node_seconds(until=self.now)
        capacity = self.cluster.num_nodes * elapsed - lost
        used = self.cluster.used_node_seconds()
        return ResilienceMetrics(
            node_failures=c.node_failures,
            nodes_failed=c.nodes_failed,
            node_repairs=c.node_repairs,
            jobs_killed=c.jobs_killed,
            requeues=c.requeues,
            abandoned=c.abandons,
            lost_node_seconds=lost,
            wasted_node_seconds=self.cluster.wasted_node_seconds,
            degraded_utilization=used / capacity if capacity > 0 else 0.0,
        )

    def _run_instance(self) -> None:
        """Invoke the policy once (one scheduling instance)."""
        self.num_instances += 1
        view = SchedulingView(self)
        for handler in self._on_schedule_begin:
            handler(view)
        self.scheduler.schedule(view)
        for handler in self._on_schedule_end:
            handler(view)
        for handler in self._on_instance:
            handler(view)


def run_simulation(
    num_nodes: int,
    scheduler: Scheduler,
    jobs: Iterable[Job],
    *,
    sanitize: bool | None = None,
    **engine_options: Any,
) -> SimulationResult:
    """Convenience wrapper: build a cluster + engine and run it.

    Every keyword (``sanitize``, ``observers``, ``trace``, ``faults``,
    ...) is an :class:`Engine` parameter.
    """
    return Engine(Cluster(num_nodes), scheduler, jobs, sanitize=sanitize,
                  **engine_options).run()
