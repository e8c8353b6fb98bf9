"""Unit tests for the reusable engine observers."""

import numpy as np
import pytest

from repro.obs.analyze import UtilizationTimeline
from repro.schedulers import FCFSEasy
from repro.sim.engine import run_simulation
from tests.conftest import EventLog, make_job


def _jobs():
    return [make_job(size=4, walltime=100.0, submit=float(i * 10)) for i in range(4)]


def busy_node_seconds(tl: UtilizationTimeline) -> float:
    """The integral of the timeline's step function."""
    times, used = tl.steps()
    return float(np.sum(np.diff(times) * used[:-1]))


class TestUtilizationTimeline:
    def test_exact_utilization_single_job(self):
        tl = UtilizationTimeline()
        job = make_job(size=2, walltime=100.0)
        run_simulation(4, FCFSEasy(), [job], observers=[tl])
        # 2 of 4 nodes busy over [0, 100]
        assert busy_node_seconds(tl) == pytest.approx(200.0)

    def test_utilization_sub_interval(self):
        tl = UtilizationTimeline()
        job = make_job(size=4, walltime=50.0)
        run_simulation(4, FCFSEasy(), [job], observers=[tl])
        times, used = tl.steps()
        assert times.tolist() == [0.0, 50.0]
        assert used.tolist() == [4, 0]

    def test_matches_job_accounting(self):
        tl = UtilizationTimeline()
        jobs = _jobs()
        run_simulation(4, FCFSEasy(), jobs, observers=[tl])
        expected = sum(j.node_seconds for j in jobs)
        assert busy_node_seconds(tl) == pytest.approx(expected)

    def test_steps_monotone(self):
        tl = UtilizationTimeline()
        run_simulation(4, FCFSEasy(), _jobs(), observers=[tl])
        times, used = tl.steps()
        assert np.all(np.diff(times) > 0)
        assert used[-1] == 0  # all jobs done


class TestEventLog:
    def test_start_finish_pairs(self):
        log = EventLog()
        jobs = _jobs()
        run_simulation(4, FCFSEasy(), jobs, observers=[log])
        assert len(log.starts()) == 4
        assert len(log.finishes()) == 4
        started = {e.job_id for e in log.starts()}
        assert started == {j.job_id for j in jobs}

    def test_modes_recorded(self):
        log = EventLog()
        run_simulation(4, FCFSEasy(), _jobs(), observers=[log])
        modes = {e.mode for e in log.starts()}
        assert "ready" in modes or "reserved" in modes

    def test_chronological(self):
        log = EventLog()
        run_simulation(4, FCFSEasy(), _jobs(), observers=[log])
        times = [e.time for e in log.events]
        assert times == sorted(times)

    def test_reservations_recorded(self):
        """The log is the action log: reservations sit between the starts."""
        log = EventLog()
        jobs = _jobs()
        run_simulation(4, FCFSEasy(), jobs, observers=[log])
        reserves = [e for e in log.events if e.kind == "reserve"]
        assert reserves, "whole-system jobs arriving 10 s apart must block"
        assert all(e.mode is None and e.size == 4 for e in reserves)
        # a reserved job is reserved before it starts, never after
        first_reserve = {}
        for e in reserves:
            first_reserve.setdefault(e.job_id, e.time)
        starts = {e.job_id: e.time for e in log.starts()}
        assert all(t <= starts[job_id] for job_id, t in first_reserve.items())


class TestViewReads:
    def test_depth_recorder_never_copies_the_queue(self, monkeypatch):
        """``queue_depth`` / ``held_count`` are O(1): no ``waiting`` copy."""
        from repro.sim.queue import WaitQueue

        copies = []
        original = WaitQueue.waiting.fget
        monkeypatch.setattr(
            WaitQueue, "waiting",
            property(lambda self: copies.append(1) or original(self)))

        class Quiet(FCFSEasy):
            """FCFS that reads the queue through the no-copy window."""

            def schedule(self, view):
                while True:
                    head = view.window(1)
                    if not head or head[0].size > view.free_nodes:
                        return
                    view.start(head[0])

        class Depths:
            def __init__(self):
                self.seen = []

            def on_instance(self, view):
                self.seen.append((view.queue_depth, view.held_count))

        rec = Depths()
        run_simulation(4, Quiet(), _jobs(), observers=[rec])
        assert copies == []
        # four whole-system jobs arriving within 30 s: depth reaches 3
        assert max(depth for depth, _ in rec.seen) == 3

    def test_view_counts_match_the_queue(self):
        seen = []

        class Probe:
            def on_instance(self, view):
                seen.append((view.queue_depth, len(view.waiting()),
                             view.held_count))

        parent = make_job(size=1, walltime=50.0, submit=0.0, job_id=1)
        child = make_job(size=1, walltime=10.0, submit=0.0, deps=(1,), job_id=2)
        run_simulation(4, FCFSEasy(), [parent, child], observers=[Probe()])
        assert all(depth == copied for depth, copied, _ in seen)
        assert [held for _, _, held in seen] == [1, 0, 0]
