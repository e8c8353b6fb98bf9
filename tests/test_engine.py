"""Integration tests for the simulation engine with hand-crafted scenarios."""

import pytest

from repro.schedulers.fcfs import FCFSEasy
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine, SimulationError, run_simulation
from repro.sim.job import ExecMode, Job, JobState
from tests.conftest import EventLog, make_job


def run_fcfs(num_nodes: int, jobs: list[Job], **kwargs):
    return run_simulation(num_nodes, FCFSEasy(), jobs, **kwargs)


class TestBasicExecution:
    def test_single_job(self):
        job = make_job(size=2, walltime=100.0, submit=5.0)
        result = run_fcfs(4, [job])
        assert job.state is JobState.FINISHED
        assert job.start_time == 5.0
        assert job.end_time == 105.0
        assert job.mode is ExecMode.READY
        assert result.makespan == 105.0

    def test_jobs_run_concurrently_when_fitting(self):
        a = make_job(size=2, walltime=100.0, submit=0.0)
        b = make_job(size=2, walltime=100.0, submit=0.0)
        run_fcfs(4, [a, b])
        assert a.start_time == 0.0 and b.start_time == 0.0

    def test_job_queues_when_full(self):
        a = make_job(size=4, walltime=100.0, submit=0.0)
        b = make_job(size=4, walltime=50.0, submit=1.0)
        run_fcfs(4, [a, b])
        assert b.start_time == 100.0  # waits for a to finish

    def test_early_finish_frees_nodes_sooner(self):
        a = make_job(size=4, walltime=100.0, runtime=30.0, submit=0.0)
        b = make_job(size=4, walltime=50.0, submit=1.0)
        run_fcfs(4, [a, b])
        assert b.start_time == 30.0

    def test_oversized_job_rejected_at_construction(self):
        job = make_job(size=10)
        with pytest.raises(ValueError, match="never fit"):
            Engine(Cluster(4), FCFSEasy(), [job])

    def test_duplicate_ids_rejected(self):
        a = make_job(job_id=5)
        b = make_job(job_id=5)
        with pytest.raises(ValueError, match="duplicate"):
            Engine(Cluster(4), FCFSEasy(), [a, b])

    def test_non_pending_job_rejected(self):
        job = make_job()
        job.state = JobState.WAITING
        with pytest.raises(ValueError, match="PENDING"):
            Engine(Cluster(4), FCFSEasy(), [job])

    def test_empty_jobset(self):
        result = run_fcfs(4, [])
        assert result.makespan == 0.0
        assert result.jobs == []


class TestModes:
    def test_reserved_mode_attribution(self):
        # a fills the system; big cannot fit -> reserved; starts later
        a = make_job(size=4, walltime=100.0, submit=0.0)
        big = make_job(size=4, walltime=50.0, submit=1.0)
        run_fcfs(4, [a, big])
        assert big.mode is ExecMode.RESERVED
        assert big.ever_reserved

    def test_backfilled_mode_attribution(self):
        # blocker holds 3/4 nodes until 100; big (4) reserves; tiny (1 node,
        # 50 s) fits the hole before the shadow time
        blocker = make_job(size=3, walltime=100.0, submit=0.0)
        big = make_job(size=4, walltime=10.0, submit=1.0)
        tiny = make_job(size=1, walltime=50.0, submit=2.0)
        run_fcfs(4, [blocker, big, tiny])
        assert tiny.mode is ExecMode.BACKFILLED
        assert tiny.start_time == 2.0
        assert big.mode is ExecMode.RESERVED
        assert big.start_time == 100.0

    def test_backfill_never_delays_reservation(self):
        blocker = make_job(size=3, walltime=100.0, submit=0.0)
        big = make_job(size=4, walltime=10.0, submit=1.0)
        long_narrow = make_job(size=1, walltime=500.0, submit=2.0)
        run_fcfs(4, [blocker, big, long_narrow])
        # long_narrow (1 node, 500 s) would delay the size-4 reservation at
        # t=100 and there are no extra nodes -> it must wait for big
        assert big.start_time == 100.0
        assert long_narrow.start_time >= 110.0


class TestDependencies:
    def test_dependency_holds_child(self):
        parent = make_job(size=1, walltime=100.0, submit=0.0, job_id=1)
        child = make_job(size=1, walltime=10.0, submit=0.0, deps=(1,), job_id=2)
        run_fcfs(4, [parent, child])
        assert child.start_time == pytest.approx(100.0)

    def test_dependency_chain(self):
        a = make_job(size=1, walltime=10.0, submit=0.0, job_id=1)
        b = make_job(size=1, walltime=10.0, submit=0.0, deps=(1,), job_id=2)
        c = make_job(size=1, walltime=10.0, submit=0.0, deps=(2,), job_id=3)
        run_fcfs(4, [a, b, c])
        assert b.start_time == pytest.approx(10.0)
        assert c.start_time == pytest.approx(20.0)


class TestEngineControls:
    def test_observer_callbacks_fire(self):
        events = []

        class Spy:
            def on_schedule_begin(self, view):
                self.started = 0

            def on_start(self, job, now):
                self.started += 1
                events.append(("start", job.job_id, now))

            def on_finish(self, job, now):
                events.append(("finish", job.job_id, now))

            def on_instance(self, view):
                events.append(("instance", self.started))

        job = make_job(size=1, walltime=10.0, job_id=9)
        run_simulation(4, FCFSEasy(), [job], observers=[Spy()])
        assert ("start", 9, 0.0) in events
        assert ("finish", 9, 10.0) in events
        assert any(e[0] == "instance" for e in events)

    def test_num_instances_counted(self):
        jobs = [make_job(size=1, walltime=10.0, submit=float(i)) for i in range(3)]
        result = run_fcfs(4, jobs)
        # 3 arrivals + 3 completions at distinct times = 6 instances
        assert result.num_instances == 6

    def test_stalled_policy_raises(self):
        class DoNothing:
            name = "noop"

            def schedule(self, view):
                pass

        job = make_job(size=1, walltime=10.0)
        with pytest.raises(SimulationError, match="stalled"):
            run_simulation(4, DoNothing(), [job])

    def test_action_recording(self):
        """The action log is an observer: every start and reservation."""
        log = EventLog()
        wide = make_job(size=4, walltime=10.0)
        blocked = make_job(size=4, walltime=10.0)
        run_fcfs(4, [wide, blocked], observers=[log])
        actions = [(e.kind, e.job_id, e.time, e.mode) for e in log.events
                   if e.kind in ("start", "reserve")]
        assert actions == [
            ("start", wide.job_id, 0.0, "ready"),
            ("reserve", blocked.job_id, 0.0, None),
            ("start", blocked.job_id, 10.0, "reserved"),
        ]


class TestViewValidation:
    def test_start_oversized_raises(self):
        class BadPolicy:
            name = "bad"

            def schedule(self, view):
                for job in view.waiting():
                    view.start(job)  # ignores capacity

        a = make_job(size=3, walltime=100.0, submit=0.0)
        b = make_job(size=3, walltime=100.0, submit=0.0)
        with pytest.raises(SimulationError, match="does not fit"):
            run_simulation(4, BadPolicy(), [a, b])

    def test_double_reservation_raises(self):
        class DoubleReserve:
            name = "bad"

            def schedule(self, view):
                waiting = view.waiting()
                blockers = [j for j in waiting if j.size > view.free_nodes]
                for job in blockers[:2]:
                    view.reserve(job)

        filler = make_job(size=4, walltime=100.0, submit=0.0)
        b1 = make_job(size=3, walltime=10.0, submit=1.0)
        b2 = make_job(size=3, walltime=10.0, submit=1.0)

        class FillThenBad(DoubleReserve):
            def schedule(self, view):
                for job in list(view.waiting()):
                    if job.size <= view.free_nodes:
                        view.start(job)
                super().schedule(view)

        with pytest.raises(SimulationError, match="already exists"):
            run_simulation(4, FillThenBad(), [filler, b1, b2])

    def test_reserve_fitting_job_raises(self):
        class BadReserve:
            name = "bad"

            def schedule(self, view):
                waiting = view.waiting()
                if waiting:
                    view.reserve(waiting[0])

        job = make_job(size=1, walltime=10.0)
        with pytest.raises(SimulationError, match="fits right now"):
            run_simulation(4, BadReserve(), [job])

    def test_elapsed_property(self):
        job = make_job(size=1, walltime=10.0, submit=5.0)
        result = run_fcfs(4, [job])
        assert result.elapsed == pytest.approx(10.0)
        assert result.first_submit == 5.0
