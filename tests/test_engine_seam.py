"""The engine's one subscriber seam: goldens, hook order, structure, leaks.

The goldens in :class:`TestInstrumentedGoldens` were recorded at the
commit *before* the tracer, profiler, live bus and action log became
:class:`~repro.sim.engine.Observer` subscribers, and must hold
unchanged after: the refactor moves where the records are produced, not
what they say.
"""

import ast
import gc
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.obs import live as live_mod
from repro.obs.analyze import UtilizationTimeline
from repro.obs.live import LiveBus
from repro.obs.profile import Profiler
from repro.obs.trace import SPAN_NAMES, Tracer, read_trace, set_global_tracer
from repro.rl.trainer import Trainer
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine, run_simulation
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.job import JobState, reset_job_id_counter
from repro.workload.models import ThetaModel
from tests.conftest import EventLog, make_job

REPO = Path(__file__).resolve().parents[1]
ENGINE_SRC = REPO / "src" / "repro" / "sim" / "engine.py"

GOLDEN_FAULTS = FaultConfig(mtbf=2500.0, mttr=1500.0, seed=7,
                            job_kill_mtbf=9000.0, max_requeues=1)


def golden_jobs():
    """160 seeded Theta-shaped jobs on 64 nodes, a few with dependencies."""
    reset_job_id_counter(1000)   # the ids are part of the trace bytes
    jobs = ThetaModel.scaled(64).generate(160, np.random.default_rng(5))
    for child, parent in ((20, 3), (21, 3), (60, 41), (61, 60), (120, 97)):
        jobs[child].dependencies = (jobs[parent].job_id,)
    return jobs


def sha(obj) -> str:
    """Digest of ``obj`` as JSON, key order preserved (it is part of the bytes)."""
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


def schedule_of(result):
    return [(j.job_id, j.state.value, j.start_time, j.end_time,
             j.mode.value if j.mode else None, j.times_killed)
            for j in result.jobs]


class SnapshotSink:
    def __init__(self):
        self.records = []

    def on_snapshot(self, record):
        self.records.append(dict(record))


class TestInstrumentedGoldens:
    """Trace + profile + live + sanitize all on, against the dark run."""

    TRACE_SHA = "5173f0b1b075753f81710f753d1e4a962b93ff38edceaac550af679107e9c26f"
    LIVE_SHA = "906be36d7cb14e38e4fa6d29ba34fb42adc6aff84dec7f9f2290eb45db1ba51e"
    PROFILE_SHA = "f72443bda36af9e425ffeff97d23d6c7e74872d1a990bc84d204f7c62365458f"

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("seam") / "trace.jsonl"
        prof = Profiler()
        bus = LiveBus()
        sink = bus.attach(SnapshotSink())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(live_mod, "LIVE_SIM_EVERY", 50)
            lit = run_simulation(
                64, FCFSEasy(), golden_jobs(), faults=GOLDEN_FAULTS,
                trace=path, profile=prof, live=bus, sanitize=True,
            )
        dark = run_simulation(64, FCFSEasy(), golden_jobs(),
                              faults=GOLDEN_FAULTS, sanitize=False)
        return (lit, dark, read_trace(path), sink.records, prof,
                path.read_text(encoding="utf-8").splitlines())

    def test_schedule_equals_dark_run(self, runs):
        lit, dark, *_ = runs
        assert schedule_of(lit) == schedule_of(dark)
        assert lit.makespan == dark.makespan
        assert lit.num_instances == dark.num_instances
        assert lit.resilience == dark.resilience

    def test_scenario_exercises_every_record(self, runs):
        _, _, records, snapshots, *_ = runs
        names = {r.get("name") for r in records}
        assert names >= {n for n in SPAN_NAMES if n.startswith("engine.")}
        assert len(snapshots) > 3 and snapshots[-1].get("final") is True

    def test_record_names_are_the_registry(self, runs, tmp_path):
        """This run plus a traced training run (validation, checkpoint)
        emit every registered name and nothing outside the registry."""
        cfg = DRASConfig.scaled(32, window=4, hidden1=16, hidden2=8,
                                time_scale=ThetaModel.MAX_RUNTIME, seed=0)
        model = ThetaModel.scaled(32)
        rng = np.random.default_rng(0)
        jobset, validation = model.generate(20, rng), model.generate(20, rng)
        path = tmp_path / "train.jsonl"
        with Tracer(path) as tracer:
            previous = set_global_tracer(tracer)
            try:
                Trainer(DRASPG(cfg), 32, validation_jobs=validation,
                        checkpoint_path=tmp_path / "ckpt.npz",
                        ).train([("phase", jobset)])
            finally:
                set_global_tracer(previous)
        names = {r.get("name") for r in runs[2] + read_trace(path)
                 if r["type"] in ("begin", "event")}
        assert names == SPAN_NAMES

    def test_trace_record_sequence(self, runs):
        records = [{k: v for k, v in r.items() if k != "wall"}
                   for r in runs[2]]
        assert sha(records) == self.TRACE_SHA

    def test_trace_lines_are_json_dumps_bytes(self, runs):
        """The hash above is over parsed records; this holds the bytes:
        compiled shapes and the fallback (the fault records' lists and
        bools) both write exactly what ``json.dumps`` writes."""
        lines = runs[5]
        assert len(lines) == len(runs[2])
        for line in lines:
            assert line == json.dumps(json.loads(line))

    def test_live_snapshot_sequence(self, runs):
        snapshots = [{k: v for k, v in r.items() if k != "wall"}
                     for r in runs[3]]
        assert sha(snapshots) == self.LIVE_SHA

    def test_profile_call_counts(self, runs):
        prof = runs[4]
        assert prof.open_depth == 0
        table = sorted((e.name, e.calls) for e in prof.flat())
        assert sha(table) == self.PROFILE_SHA


# -- the hook-order contract ---------------------------------------------------

class ScriptedFaults(FaultInjector):
    """A fault stream written out by hand instead of drawn from the RNG.

    Node 3 fails at t=30 and is repaired 20 s later; one job-kill fault
    fires at t=70 and picks job 3 when it is running.
    """

    def __init__(self):
        super().__init__(FaultConfig(mtbf=1.0, job_kill_mtbf=1.0,
                                     max_requeues=1))
        self.reset()

    def reset(self):
        super().reset()
        self._fail_gaps = [30.0]
        self._kill_gaps = [70.0]

    def next_failure_gap(self):
        return self._fail_gaps.pop(0) if self._fail_gaps else float("inf")

    def next_kill_gap(self):
        return self._kill_gaps.pop(0) if self._kill_gaps else float("inf")

    def sample_failure(self):
        return 1, [20.0]

    def choose_failed_nodes(self, up, n):
        return np.array([3], dtype=np.int64)

    def choose_victim(self, running_ids):
        return 3 if 3 in running_ids else running_ids[0]


class Recorder:
    """Implements every hook; logs ``(hook, *what identifies the call)``."""

    def __init__(self):
        self.calls = []

    def on_run_begin(self, engine):
        self.calls.append(("run_begin",))

    def on_run_end(self, engine, completed):
        self.calls.append(("run_end", completed))

    def on_instance_begin(self, now, n_events):
        self.calls.append(("instance_begin", now, n_events))

    def on_abandon(self, job, now, parent):
        self.calls.append(("abandon", job.job_id, now, parent))

    def on_finish(self, job, now):
        self.calls.append(("finish", job.job_id, now))

    def on_kill(self, job, now):
        self.calls.append(("kill", job.job_id, now, self.engine.kill_cause,
                           job.state.value))

    def on_node_fail(self, now, nodes, killed):
        self.calls.append(("node_fail", now, nodes, killed))

    def on_node_repair(self, now, node):
        self.calls.append(("node_repair", now, node))

    def on_schedule_begin(self, view):
        self.calls.append(("schedule_begin", view.queue_depth,
                           view.held_count))

    def on_start(self, job, now):
        self.calls.append(("start", job.job_id, now, job.mode.value))

    def on_reserve(self, job, now, reservation):
        self.calls.append(("reserve", job.job_id, now,
                           reservation.shadow_time))

    def on_schedule_end(self, view):
        self.calls.append(("schedule_end",))

    def on_instance(self, view, started):
        self.calls.append(("instance", [j.job_id for j in started]))


def scripted_engine(observers, scheduler=None):
    """Five hand-made jobs on four nodes under :class:`ScriptedFaults`."""
    jobs = [
        make_job(size=3, walltime=100.0, job_id=1),
        make_job(size=4, walltime=100.0, job_id=2),
        make_job(size=1, walltime=50.0, job_id=3),
        make_job(size=1, walltime=10.0, deps=(3,), job_id=4),
        make_job(size=1, walltime=10.0, submit=150.0, deps=(3,), job_id=5),
    ]
    engine = Engine(Cluster(4), scheduler or FCFSEasy(), jobs,
                    observers=observers, faults=FaultConfig(mtbf=1.0),
                    sanitize=True)
    engine.injector = ScriptedFaults()
    return engine


class TestHookOrder:
    def test_recorder_implements_the_whole_protocol(self):
        from repro.sim.observers import HOOKS

        implemented = {n for n in vars(Recorder) if n.startswith("on_")}
        assert implemented == set(HOOKS)

    def test_misspelt_hook_is_refused_at_bind(self):
        """The engine calls hooks by name: a misspelt one would never run."""
        class Misspelt:
            def on_start(self, job, now):
                pass

            def on_reserved(self, job, now, reservation):
                pass

        with pytest.raises(TypeError, match=r"Misspelt\.on_reserved"):
            Engine(Cluster(4), FCFSEasy(), _small_jobs(),
                   observers=[Misspelt()])

    def test_every_hook_in_order(self):
        rec = Recorder()
        rec.engine = engine = scripted_engine([rec])
        result = engine.run()
        assert rec.calls == [
            ("run_begin",),
            # t=0: submit 1-4; job 4 is held on job 3
            ("instance_begin", 0.0, 4),
            ("schedule_begin", 3, 1),
            ("start", 1, 0.0, "ready"),
            ("reserve", 2, 0.0, 100.0),
            ("start", 3, 0.0, "backfilled"),
            ("schedule_end",),
            ("instance", [1, 3]),
            # t=30: node 3 fails under job 3 -> killed, requeued in front
            ("instance_begin", 30.0, 1),
            ("kill", 3, 30.0, "node_fail", "waiting"),
            ("node_fail", 30.0, [3], [3]),
            ("schedule_begin", 2, 1),
            ("reserve", 3, 30.0, 50.0),     # the repair frees the one node
            ("schedule_end",),
            ("instance", []),
            # t=50: the node is back; job 3 restarts
            ("instance_begin", 50.0, 1),
            ("node_repair", 50.0, 3),
            ("schedule_begin", 2, 1),
            ("start", 3, 50.0, "reserved"),
            ("reserve", 2, 50.0, 100.0),
            ("schedule_end",),
            ("instance", [3]),
            # t=70: the kill fault hits job 3 a second time -> FAILED,
            # and its held dependent goes with it (abandon before kill)
            ("instance_begin", 70.0, 1),
            ("abandon", 4, 70.0, 3),
            ("kill", 3, 70.0, "job_kill", "failed"),
            ("schedule_begin", 1, 0),
            ("reserve", 2, 70.0, 100.0),
            ("schedule_end",),
            ("instance", []),
            ("instance_begin", 100.0, 1),
            ("finish", 1, 100.0),
            ("schedule_begin", 1, 0),
            ("start", 2, 100.0, "reserved"),
            ("schedule_end",),
            ("instance", [2]),
            # t=150: job 5 arrives after its dependency failed
            ("instance_begin", 150.0, 1),
            ("abandon", 5, 150.0, -1),
            ("schedule_begin", 0, 0),
            ("schedule_end",),
            ("instance", []),
            ("instance_begin", 200.0, 1),
            ("finish", 2, 200.0),
            ("schedule_begin", 0, 0),
            ("schedule_end",),
            ("instance", []),
            ("run_end", True),
        ]
        assert result.resilience.jobs_killed == 2
        assert result.resilience.abandoned == 3

    def test_run_end_fires_when_the_policy_raises(self):
        class Exploding(FCFSEasy):
            def schedule(self, view):
                if view.now >= 30.0:
                    raise RuntimeError("mid-instance")
                super().schedule(view)

        rec = Recorder()
        rec.engine = engine = scripted_engine([rec], scheduler=Exploding())
        with pytest.raises(RuntimeError, match="mid-instance"):
            engine.run()
        tail = rec.calls[-5:]
        assert tail == [
            ("instance_begin", 30.0, 1),
            ("kill", 3, 30.0, "node_fail", "waiting"),
            ("node_fail", 30.0, [3], [3]),
            ("schedule_begin", 2, 1),
            ("run_end", False),     # no schedule_end, no instance
        ]

    def test_subset_observers_and_recorders_share_one_dispatch(self):
        """Observers implementing any subset of the hooks ride along."""
        class OnlyReserve:
            seen = 0

            def on_reserve(self, job, now, reservation):
                OnlyReserve.seen += 1

        class OnlyInstance:
            def __init__(self):
                self.held = []

            def on_instance(self, view, started):
                self.held.append(view.held_count)

        instances, log = OnlyInstance(), EventLog()
        timeline = UtilizationTimeline(4)
        engine = scripted_engine([OnlyReserve(), instances, log, timeline])
        result = engine.run()
        assert OnlyReserve.seen == 4
        assert len(instances.held) == result.num_instances
        assert max(instances.held) == 1
        assert [(e.kind, e.job_id) for e in log.events] == [
            ("start", 1), ("reserve", 2), ("start", 3), ("kill", 3),
            ("reserve", 3), ("start", 3), ("reserve", 2), ("kill", 3),
            ("reserve", 2), ("finish", 1), ("start", 2), ("finish", 2),
        ]
        times, used = timeline.steps()
        assert used.tolist()[-1] == 0
        assert float(np.sum(np.diff(times) * used[:-1])) == \
            pytest.approx(3 * 100 + 30 + 20 + 400)


# -- structure: the loop speaks only the Observer protocol ---------------------

class TestEngineSpeaksOneProtocol:
    CHANNEL_METHODS = {
        # Tracer
        "begin", "end", "event", "span", "counter", "flush",
        # Profiler
        "push", "pop", "pop_to", "scope",
        # LiveBus
        "publish",
        # the process-global lookups
        "global_tracer", "global_profiler", "global_live_bus",
    }

    @pytest.fixture(scope="class")
    def tree(self):
        return ast.parse(ENGINE_SRC.read_text(encoding="utf-8"))

    def test_no_span_name_literal(self, tree):
        literals = [n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and n.value.startswith("engine.")]
        # the two event counters stay (engine state)
        registry_names = [
            n.args[0].value for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("counter", "gauge", "timer")
            and n.args and isinstance(n.args[0], ast.Constant)
        ]
        assert sorted(literals) == sorted(registry_names)
        assert not set(literals) & SPAN_NAMES

    def test_no_channel_method_call(self, tree):
        lookalikes = {
            (ast.unparse(n.func.value), n.func.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in self.CHANNEL_METHODS}
        # same names on other objects: the registry, the event heap, a dict
        assert lookalikes == {("self.metrics", "counter"),
                              ("self.events", "push"),
                              ("self._finish_events", "pop")}

    def test_no_per_event_getattr_dispatch(self, tree):
        """Hooks are resolved in ``_bind`` only, never looked up per event."""
        lookups = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id in ("getattr", "hasattr")
            and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)
            and str(n.args[1].value).startswith("on_")
            and not str(n.args[1].value).startswith("on_simulation_")
        ]
        assert lookups == []

    def test_engine_is_visibly_shorter(self):
        assert len(ENGINE_SRC.read_text(encoding="utf-8").splitlines()) <= 775


# -- the path-owned trace sink -------------------------------------------------

def _small_jobs():
    return [make_job(size=2, walltime=10.0, submit=float(i)) for i in range(6)]


class TestOwnedTraceSink:
    def test_path_traced_run_leaves_no_open_handle(self, tmp_path):
        """``trace="path"`` used to open a Tracer that was only ever
        flushed: the file object leaked until garbage collection."""
        path = tmp_path / "t.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_simulation(4, FCFSEasy(), _small_jobs(), trace=str(path))
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]
        records = read_trace(path)      # closed => complete and parseable
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "end"

    def test_sink_closed_when_the_policy_raises(self, tmp_path):
        class Exploding(FCFSEasy):
            def schedule(self, view):
                raise RuntimeError("boom")

        path = tmp_path / "t.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(RuntimeError, match="boom"):
                run_simulation(4, Exploding(), _small_jobs(), trace=path)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        # the span the policy raised inside is on disk, unclosed
        assert [r["type"] for r in read_trace(path)] == ["meta", "begin"]

    def test_caller_supplied_tracer_is_flushed_not_closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        result = run_simulation(4, FCFSEasy(), _small_jobs(), trace=tracer)
        flushed = read_trace(path)
        assert sum(r.get("name") == "engine.instance" and r["type"] == "begin"
                   for r in flushed) == result.num_instances
        tracer.event("engine.release", t=0.0, job=-1, size=0)  # still open
        tracer.close()
        assert len(read_trace(path)) == len(flushed) + 1

    def test_second_run_rewrites_the_path(self, tmp_path):
        """Each ``run()`` of a path-traced engine opens the file afresh:
        it holds exactly the latest run, starting with its own header."""
        path = tmp_path / "t.jsonl"
        engine = Engine(Cluster(4), FCFSEasy(), _small_jobs(), trace=path)
        engine.run()
        first = [{k: v for k, v in r.items() if k != "wall"}
                 for r in read_trace(path)]
        for job in engine._jobs.values():   # replay the same jobset
            job.state, job.start_time, job.end_time = JobState.PENDING, None, None
            job.mode, job.ever_reserved = None, False
        engine.run()
        second = [{k: v for k, v in r.items() if k != "wall"}
                  for r in read_trace(path)]
        assert second == first
        assert sum(r["type"] == "meta" for r in second) == 1

    def test_second_run_appends_to_a_caller_supplied_tracer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(path) as tracer:
            for _ in range(2):
                run_simulation(4, FCFSEasy(), _small_jobs(), trace=tracer)
        records = read_trace(path)
        assert sum(r["type"] == "meta" for r in records) == 1
        begins = [r for r in records if r["type"] == "begin"]
        assert len(begins) == 2 * 12     # 6 arrivals + 6 completions, twice


class TestSubscribersLiveForOneRun:
    def test_engine_is_freed_without_the_garbage_collector(self):
        """The trace and live subscribers hold the engine while it holds
        their handlers; left in place after the run, that cycle keeps
        every finished run (jobs, cluster arrays) alive until a GC pass
        — measurable as peak RSS on a traced paper-scale workload."""
        import io
        import weakref

        gc.collect()
        gc.disable()
        try:
            engine = Engine(Cluster(4), FCFSEasy(), _small_jobs(),
                            trace=Tracer(io.StringIO()), live=LiveBus(),
                            profile=Profiler())
            ref = weakref.ref(engine)
            engine.run()
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_channel_handlers_are_dropped_after_the_run(self):
        log = EventLog()
        engine = Engine(Cluster(4), FCFSEasy(), _small_jobs(),
                        observers=[log], profile=Profiler())
        engine.run()
        assert engine._on_schedule_begin == ()       # the profiler's, gone
        assert engine._on_start == (log.on_start,)   # the caller's, kept
