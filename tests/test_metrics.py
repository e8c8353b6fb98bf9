"""Unit tests for metrics (RunMetrics, ModeBreakdown, series)."""

import numpy as np
import pytest

from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.sim.job import ExecMode, JobState
from repro.sim.metrics import (
    ModeBreakdown,
    RunMetrics,
    weekly_series,
)
from tests.conftest import make_job


def _run(jobs, nodes=4):
    return run_simulation(nodes, FCFSEasy(), jobs)


class TestRunMetrics:
    def test_known_values(self):
        # two jobs in sequence on a full cluster
        a = make_job(size=4, walltime=100.0, submit=0.0)
        b = make_job(size=4, walltime=100.0, submit=0.0)
        result = _run([a, b])
        m = RunMetrics.from_result(result)
        assert m.num_jobs == 2
        assert m.avg_wait == pytest.approx(50.0)   # 0 and 100
        assert m.max_wait == pytest.approx(100.0)
        assert m.avg_response == pytest.approx(150.0)
        assert m.avg_slowdown == pytest.approx(1.5)
        # 2 * 4 * 100 node-seconds over 4 nodes * 200 s
        assert m.utilization == pytest.approx(1.0)
        assert m.total_core_hours == pytest.approx(800.0 / 3600.0)

    def test_empty_result(self):
        result = _run([])
        m = RunMetrics.from_result(result)
        assert m.num_jobs == 0
        assert m.avg_wait == 0.0
        assert m.utilization == 0.0

    def test_as_dict_keys(self):
        m = RunMetrics.from_result(_run([make_job()]))
        d = m.as_dict()
        assert set(d) == {
            "num_jobs", "avg_wait", "max_wait", "p99_wait", "avg_response",
            "avg_slowdown", "utilization", "makespan", "total_core_hours",
        }


class TestModeBreakdown:
    def test_shares_sum_to_one(self):
        blocker = make_job(size=3, walltime=100.0, submit=0.0)
        big = make_job(size=4, walltime=10.0, submit=1.0)
        tiny = make_job(size=1, walltime=50.0, submit=2.0)
        result = _run([blocker, big, tiny])
        mb = ModeBreakdown.from_jobs(result.jobs)
        assert sum(mb.job_share.values()) == pytest.approx(1.0)
        assert sum(mb.core_hour_share.values()) == pytest.approx(1.0)
        assert mb.job_share[ExecMode.READY] == pytest.approx(1 / 3)
        assert mb.job_share[ExecMode.RESERVED] == pytest.approx(1 / 3)
        assert mb.job_share[ExecMode.BACKFILLED] == pytest.approx(1 / 3)

    def test_empty(self):
        mb = ModeBreakdown.from_jobs([])
        assert all(v == 0.0 for v in mb.job_share.values())


class TestGroupings:
    def test_weekly_series(self):
        week = 7 * 24 * 3600.0
        jobs = []
        for wk, wait in ((0, 100.0), (0, 300.0), (2, 60.0)):
            j = make_job(size=2, walltime=3600.0, submit=wk * week)
            j.state = JobState.WAITING
            j.mark_started(wk * week + wait, ExecMode.READY)
            j.mark_finished(wk * week + wait + 3600.0)
            jobs.append(j)
        series = weekly_series(jobs)
        assert list(series["week"]) == [0, 1, 2]
        assert series["avg_wait"][0] == pytest.approx(200.0)
        assert series["avg_wait"][1] == 0.0  # empty week
        assert series["avg_wait"][2] == pytest.approx(60.0)
        assert series["core_hours"][0] == pytest.approx(4.0)

    def test_weekly_series_empty(self):
        series = weekly_series([])
        assert series["week"].size == 0

