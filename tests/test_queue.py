"""Unit tests for the wait queue and dependency gating."""

import copy

import pytest

from repro.sim.job import JobState
from repro.sim.queue import WaitQueue
from tests.conftest import make_job


class TestSubmission:
    def test_submit_makes_waiting(self):
        q = WaitQueue()
        job = make_job()
        q.submit(job)
        assert job.state is JobState.WAITING
        assert len(q) == 1

    def test_resubmit_raises(self):
        q = WaitQueue()
        job = make_job()
        q.submit(job)
        with pytest.raises(RuntimeError, match="resubmitted"):
            q.submit(job)

    def test_arrival_order_preserved(self):
        q = WaitQueue()
        jobs = [make_job(submit=float(i)) for i in range(5)]
        for j in jobs:
            q.submit(j)
        assert q.waiting == jobs


class TestDependencies:
    def test_open_dependency_holds_job(self):
        q = WaitQueue()
        child = make_job(deps=(42,))
        q.submit(child)
        assert child.state is JobState.HELD
        assert len(q) == 0
        assert q.held == [child]
        assert q.total_pending == 1

    def test_satisfied_dependency_waits_immediately(self):
        q = WaitQueue()
        parent = make_job(job_id=42)
        q.submit(parent)
        q.remove(parent)
        parent.state = JobState.RUNNING
        parent.state = JobState.FINISHED
        q.notify_finished(parent)
        child = make_job(deps=(42,))
        q.submit(child)
        assert child.state is JobState.WAITING

    def test_finish_releases_dependents(self):
        q = WaitQueue()
        parent = make_job(job_id=7)
        child = make_job(deps=(7,), submit=5.0)
        q.submit(parent)
        q.submit(child)
        assert child.state is JobState.HELD
        q.remove(parent)
        parent.state = JobState.FINISHED
        q.notify_finished(parent)
        assert child.state is JobState.WAITING
        assert q.waiting == [child]

    def test_multi_parent_requires_all(self):
        q = WaitQueue()
        p1, p2 = make_job(job_id=1), make_job(job_id=2)
        child = make_job(deps=(1, 2))
        for j in (p1, p2, child):
            q.submit(j)
        for p in (p1, p2):
            q.remove(p)
            p.state = JobState.FINISHED
        q.notify_finished(p1)
        assert child.state is JobState.HELD
        q.notify_finished(p2)
        assert child.state is JobState.WAITING

    def test_duplicate_dependency_counts_once(self):
        q = WaitQueue()
        parent = make_job(job_id=1)
        child = make_job(deps=(1, 1))
        q.submit(parent)
        q.submit(child)
        q.remove(parent)
        q.notify_finished(parent)
        assert q.waiting == [child] and q.held == []

    def test_unknown_dependency_never_releases(self):
        q = WaitQueue()
        parent = make_job(job_id=1)
        child = make_job(deps=(1, 10**9))
        q.submit(parent)
        q.submit(child)
        q.remove(parent)
        q.notify_finished(parent)
        assert q.held == [child] and len(q) == 0

    def test_released_jobs_sorted_by_submit_time(self):
        q = WaitQueue()
        parent = make_job(job_id=1)
        late = make_job(deps=(1,), submit=20.0)
        early = make_job(deps=(1,), submit=10.0)
        q.submit(parent)
        q.submit(late)
        q.submit(early)
        q.remove(parent)
        parent.state = JobState.FINISHED
        q.notify_finished(parent)
        assert q.waiting == [early, late]


class TestWindow:
    def test_window_prefix(self):
        q = WaitQueue()
        jobs = [make_job(submit=float(i)) for i in range(5)]
        for j in jobs:
            q.submit(j)
        assert q.window(3) == jobs[:3]

    def test_window_larger_than_queue(self):
        q = WaitQueue()
        job = make_job()
        q.submit(job)
        assert q.window(10) == [job]

    def test_window_requires_positive(self):
        with pytest.raises(ValueError):
            WaitQueue().window(0)


class TestRemoval:
    def test_remove(self):
        q = WaitQueue()
        job = make_job()
        q.submit(job)
        q.remove(job)
        assert len(q) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(RuntimeError, match="not waiting"):
            WaitQueue().remove(make_job())

    def test_contains(self):
        q = WaitQueue()
        job = make_job()
        q.submit(job)
        assert job in q
        q.remove(job)
        assert job not in q

    def test_contains_is_by_identity(self):
        q = WaitQueue()
        job = make_job(job_id=5)
        q.submit(job)
        twin = copy.copy(job)
        assert twin == job and twin is not job
        assert job in q and twin not in q
        with pytest.raises(RuntimeError, match="not waiting"):
            q.remove(twin)
        assert q.waiting == [job]

    def test_remove_from_the_middle_keeps_order(self):
        q = WaitQueue()
        jobs = [make_job(submit=float(i)) for i in range(5)]
        for j in jobs:
            q.submit(j)
        q.remove(jobs[2])
        q.remove(jobs[0])
        assert q.waiting == [jobs[1], jobs[3], jobs[4]]
        assert jobs[2] not in q and jobs[3] in q


class TestMinSize:
    def test_tracks_the_smallest_waiting_job(self):
        q = WaitQueue()
        assert q.min_size == float("inf")
        big, small, small2 = make_job(size=8), make_job(size=2), make_job(size=2)
        for j in (big, small, small2):
            q.submit(j)
        assert q.min_size == 2
        q.remove(small)
        assert q.min_size == 2
        q.remove(small2)
        assert q.min_size == 8
        q.remove(big)
        assert q.min_size == float("inf")

    def test_held_jobs_do_not_count_until_released(self):
        q = WaitQueue()
        parent = make_job(size=8, job_id=1)
        child = make_job(size=2, deps=(1,))
        q.submit(parent)
        q.submit(child)
        assert q.min_size == 8
        q.remove(parent)
        q.notify_finished(parent)
        assert q.min_size == 2

    def test_clear_resets(self):
        q = WaitQueue()
        q.submit(make_job(size=3))
        q.clear()
        assert q.min_size == float("inf") and len(q) == 0


class TestRequeue:
    def test_front_and_back(self):
        q = WaitQueue()
        jobs = [make_job(submit=float(i), size=i + 2) for i in range(3)]
        for j in jobs:
            q.submit(j)
        q.remove(jobs[1])
        q.requeue(jobs[1], front=True)
        assert q.waiting == [jobs[1], jobs[0], jobs[2]]
        q.remove(jobs[0])
        q.requeue(jobs[0], front=False)
        assert q.waiting == [jobs[1], jobs[2], jobs[0]]
        assert all(j in q for j in jobs) and q.min_size == 2

    def test_front_of_empty_queue(self):
        q = WaitQueue()
        job = make_job()
        q.submit(job)
        q.remove(job)
        q.requeue(job, front=True)
        assert q.waiting == [job] and job in q


class TestFailureCascade:
    def test_doomed_dependents_leave_in_arrival_order(self):
        q = WaitQueue()
        root = make_job(job_id=1)
        other = make_job(job_id=2)
        late = make_job(deps=(1,), submit=20.0)
        early = make_job(deps=(1, 2), submit=10.0)
        grandchild = make_job(deps=(early.job_id,), submit=30.0)
        # doomed twice over: by the root itself and through ``late``
        both = make_job(deps=(1, late.job_id), submit=40.0)
        survivor = make_job(deps=(2,), submit=5.0)
        for j in (root, other, late, early, grandchild, both, survivor):
            q.submit(j)
        q.remove(root)
        assert q.notify_failed(root) == [early, late, grandchild, both]
        assert q.held == [survivor]
        q.remove(other)
        q.notify_finished(other)   # the doomed ``early`` must not resurface
        assert q.waiting == [survivor]

    def test_submit_after_failed_dependency_is_refused(self):
        q = WaitQueue()
        root = make_job(job_id=1)
        q.submit(root)
        q.remove(root)
        q.notify_failed(root)
        orphan = make_job(deps=(1,))
        assert q.submit(orphan) is False
        assert orphan not in q and q.total_pending == 0
        # whatever depends on the refused job is refused as well
        assert q.submit(make_job(deps=(orphan.job_id,))) is False
