"""Cross-scheduler integration tests on realistic workloads.

Every policy in the repository replays the same Theta-like trace; the
tests assert system-wide conservation laws and the qualitative
relationships that must hold regardless of tuning.
"""

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.decima import DecimaPG
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.obs.analyze import UtilizationTimeline
from repro.schedulers import (
    BinPacking,
    ConservativeBackfill,
    FCFSEasy,
    KnapsackOptimization,
    RandomScheduler,
    sjf,
)
from repro.sim.engine import run_simulation
from repro.sim.job import ExecMode, JobState
from repro.sim.metrics import RunMetrics
from repro.workload.models import ThetaModel

NODES = 64


@pytest.fixture(scope="module")
def trace():
    model = ThetaModel.scaled(NODES)
    return model.generate(300, np.random.default_rng(11))


def _all_schedulers():
    cfg = DRASConfig.scaled(NODES, window=8, time_scale=ThetaModel.MAX_RUNTIME)
    return [
        FCFSEasy(),
        BinPacking(),
        RandomScheduler(seed=1),
        KnapsackOptimization("capability"),
        ConservativeBackfill(),
        sjf(),
        DRASPG(cfg),
        DRASDQL(cfg),
        DecimaPG(cfg),
    ]


@pytest.fixture(scope="module")
def all_results(trace):
    out = {}
    for scheduler in _all_schedulers():
        jobs = [j.copy_fresh() for j in trace]
        timeline = UtilizationTimeline()
        result = run_simulation(NODES, scheduler, jobs, observers=[timeline])
        out[scheduler.name] = (result, timeline)
    return out


class TestConservation:
    def test_every_policy_finishes_every_job(self, all_results, trace):
        for name, (result, _) in all_results.items():
            finished = result.finished_jobs
            assert len(finished) == len(trace), name

    def test_total_work_identical_across_policies(self, all_results):
        """Scheduling reorders work; it cannot create or destroy it."""
        totals = {
            name: sum(j.node_seconds for j in result.finished_jobs)
            for name, (result, _) in all_results.items()
        }
        values = set(round(v, 6) for v in totals.values())
        assert len(values) == 1

    def test_per_job_runtimes_unchanged(self, all_results, trace):
        expected = {j.job_id: j.runtime for j in trace}
        for name, (result, _) in all_results.items():
            for job in result.finished_jobs:
                assert job.runtime == expected[job.job_id], name

    def test_capacity_never_exceeded(self, all_results):
        for name, (_, timeline) in all_results.items():
            _, used = timeline.steps()
            assert used.max() <= NODES, name

    def test_makespan_lower_bound(self, all_results, trace):
        """No schedule beats the critical-path/volume lower bounds."""
        volume_bound = sum(j.size * j.runtime for j in trace) / NODES
        longest_job = max(j.runtime for j in trace)
        first_submit = min(j.submit_time for j in trace)
        for name, (result, _) in all_results.items():
            span = result.makespan - first_submit
            assert span >= volume_bound * 0.999 - 1e-6 or span >= longest_job, name
            assert span + 1e-6 >= longest_job, name


class TestQualitativeRelationships:
    def test_reservation_policies_bound_max_wait(self, all_results):
        fcfs = RunMetrics.from_result(all_results["FCFS"][0])
        random_m = RunMetrics.from_result(all_results["Random"][0])
        # the no-reservation random packer cannot beat FCFS's max wait
        # on a capability trace with whole-system jobs
        assert random_m.max_wait >= fcfs.max_wait * 0.9

    def test_conservative_not_more_aggressive_than_easy(self, all_results):
        easy = RunMetrics.from_result(all_results["FCFS"][0])
        conservative = RunMetrics.from_result(all_results["Conservative"][0])
        # conservative can only backfill a subset of EASY's choices
        assert conservative.avg_wait >= easy.avg_wait * 0.75

    def test_sjf_improves_average_wait_over_fcfs(self, all_results):
        fcfs = RunMetrics.from_result(all_results["FCFS"][0])
        sjf_m = RunMetrics.from_result(all_results["SJF"][0])
        assert sjf_m.avg_wait <= fcfs.avg_wait

    def test_modes_consistent_with_policy_class(self, all_results):
        reservation_free = {"BinPacking", "Random", "Optimization", "Decima-PG"}
        for name, (result, _) in all_results.items():
            modes = {j.mode for j in result.finished_jobs}
            if name in reservation_free:
                assert modes == {ExecMode.READY}, name
            else:
                assert ExecMode.READY in modes or ExecMode.RESERVED in modes


class TestDeterminism:
    @pytest.mark.parametrize("factory", [
        FCFSEasy, BinPacking, ConservativeBackfill, sjf,
        lambda: KnapsackOptimization("capability"),
    ], ids=["fcfs", "binpacking", "conservative", "sjf", "knapsack"])
    def test_deterministic_policies_reproduce_exactly(self, factory, trace):
        def run():
            jobs = [j.copy_fresh() for j in trace]
            run_simulation(NODES, factory(), jobs)
            return [(j.job_id, j.start_time, j.mode) for j in jobs]

        assert run() == run()

    def test_seeded_agents_reproduce_exactly(self, trace):
        def run():
            cfg = DRASConfig.scaled(NODES, window=8, seed=123,
                                    time_scale=ThetaModel.MAX_RUNTIME)
            agent = DRASPG(cfg)
            jobs = [j.copy_fresh() for j in trace]
            run_simulation(NODES, agent, jobs)
            return [(j.job_id, j.start_time) for j in jobs]

        assert run() == run()
