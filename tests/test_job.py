"""Unit tests for the rigid-job model."""

from math import inf, nan

import pytest

from repro.sim.job import ExecMode, Job, JobState
from tests.conftest import make_job


class TestValidation:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size"):
            make_job(size=0)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="size"):
            make_job(size=-4)

    def test_rejects_nonpositive_walltime(self):
        with pytest.raises(ValueError, match="walltime"):
            make_job(walltime=0.0)

    def test_rejects_nonpositive_runtime(self):
        with pytest.raises(ValueError, match="runtime"):
            make_job(runtime=-1.0)

    def test_rejects_negative_submit(self):
        with pytest.raises(ValueError, match="submit_time"):
            make_job(submit=-5.0)

    def test_rejects_bad_priority(self):
        with pytest.raises(ValueError, match="priority"):
            make_job(priority=2)

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    @pytest.mark.parametrize("field", ["walltime", "runtime", "submit_time"])
    def test_rejects_non_finite_times(self, field, value):
        # NaN passes every ``<= 0`` / ``< 0`` guard
        times = dict(size=2, walltime=10.0, runtime=5.0, submit_time=0.0)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Job(**{**times, field: value})

    def test_runtime_clamped_to_walltime(self):
        # the scheduler kills jobs exceeding their estimate
        job = make_job(walltime=100.0, runtime=500.0)
        assert job.runtime == 100.0

    def test_runtime_below_walltime_kept(self):
        job = make_job(walltime=100.0, runtime=40.0)
        assert job.runtime == 40.0


class TestLifecycle:
    def test_initial_state_pending(self):
        assert make_job().state is JobState.PENDING

    def test_start_sets_fields(self):
        job = make_job(submit=10.0)
        job.state = JobState.WAITING
        job.mark_started(25.0, ExecMode.READY)
        assert job.state is JobState.RUNNING
        assert job.start_time == 25.0
        assert job.mode is ExecMode.READY

    def test_cannot_start_before_submission(self):
        job = make_job(submit=100.0)
        job.state = JobState.WAITING
        with pytest.raises(RuntimeError, match="before submission"):
            job.mark_started(50.0, ExecMode.READY)

    def test_cannot_start_twice(self):
        job = make_job()
        job.state = JobState.WAITING
        job.mark_started(0.0, ExecMode.READY)
        with pytest.raises(RuntimeError, match="cannot start"):
            job.mark_started(1.0, ExecMode.READY)

    def test_finish_requires_running(self):
        job = make_job()
        with pytest.raises(RuntimeError, match="cannot finish"):
            job.mark_finished(10.0)

    def test_finish_sets_end_time(self):
        job = make_job()
        job.state = JobState.WAITING
        job.mark_started(0.0, ExecMode.READY)
        job.mark_finished(100.0)
        assert job.state is JobState.FINISHED
        assert job.end_time == 100.0


class TestMetrics:
    def _finished(self, submit=0.0, start=50.0, runtime=100.0) -> Job:
        job = make_job(submit=submit, walltime=runtime, runtime=runtime)
        job.state = JobState.WAITING
        job.mark_started(start, ExecMode.READY)
        job.mark_finished(start + runtime)
        return job

    def test_wait_time(self):
        assert self._finished(submit=10.0, start=60.0).wait_time == 50.0

    def test_wait_time_requires_start(self):
        with pytest.raises(ValueError, match="not started"):
            _ = make_job().wait_time

    def test_response_time(self):
        job = self._finished(submit=0.0, start=50.0, runtime=100.0)
        assert job.response_time == 150.0

    def test_response_requires_finish(self):
        with pytest.raises(ValueError, match="not finished"):
            _ = make_job().response_time

    def test_slowdown(self):
        job = self._finished(submit=0.0, start=100.0, runtime=100.0)
        assert job.slowdown() == pytest.approx(2.0)
        # unbounded: a short job's slowdown is not limited
        short = self._finished(submit=0.0, start=100.0, runtime=1.0)
        assert short.slowdown() == pytest.approx(101.0)

    def test_queued_time(self):
        job = make_job(submit=100.0)
        assert job.queued_time(150.0) == 50.0
        assert job.queued_time(50.0) == 0.0  # clock before submission

    def test_node_seconds_and_core_hours(self):
        job = make_job(size=4, walltime=7200.0)
        assert job.node_seconds == 4 * 7200.0
        assert job.core_hours == pytest.approx(8.0)


class TestCopyFresh:
    def test_resets_lifecycle(self):
        job = make_job(size=3, submit=7.0)
        job.state = JobState.WAITING
        job.mark_started(10.0, ExecMode.BACKFILLED)
        job.ever_reserved = True
        fresh = job.copy_fresh()
        assert fresh.state is JobState.PENDING
        assert fresh.start_time is None
        assert fresh.mode is None
        assert not fresh.ever_reserved

    def test_preserves_identity_fields(self):
        job = make_job(size=3, walltime=60.0, runtime=30.0, submit=7.0, priority=1)
        fresh = job.copy_fresh()
        assert fresh.job_id == job.job_id
        assert fresh.size == 3
        assert fresh.walltime == 60.0
        assert fresh.runtime == 30.0
        assert fresh.submit_time == 7.0
        assert fresh.priority == 1
