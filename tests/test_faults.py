"""Fault injection: deterministic failures, requeue policies, resilience.

The tentpole property: fault schedules come from their own seeded
generator, so the same seed + config reproduces bit-identical runs —
traces, job outcomes and resilience summaries — for every scheduler,
and the sanitizer's node-conservation invariant (used + free + down ==
total) holds through every failure and repair.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import POLICIES, make_policy
from repro.core import DRASPG
from repro.core.config import DRASConfig
from repro.schedulers import FCFSEasy
from repro.sim.cluster import Cluster
from repro.sim.engine import run_simulation
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.job import JobState
from repro.sim.metrics import RunMetrics
from repro.workload import ThetaModel
from tests.conftest import make_job

FAULTS = FaultConfig(mtbf=2500.0, mttr=1500.0, seed=7)


def theta_trace(n_jobs=80, nodes=64, seed=5):
    model = ThetaModel.scaled(nodes)
    return model.generate(n_jobs, np.random.default_rng(seed))


class TestFaultConfig:
    def test_defaults_inactive(self):
        assert not FaultConfig().active
        assert FaultConfig(mtbf=100.0).active
        assert FaultConfig(job_kill_mtbf=5000.0).active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(mtbf=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(mtbf=1.0, mttr=0.0)
        with pytest.raises(ValueError):
            FaultConfig(requeue="bogus")
        with pytest.raises(ValueError):
            FaultConfig(blade_size=0)
        with pytest.raises(ValueError):
            FaultConfig(max_requeues=-1)

    def test_from_spec(self):
        cfg = FaultConfig.from_spec(
            "mtbf=5000,mttr=1800,seed=3,requeue=abandon,"
            "blade_prob=0.5,max_requeues=2"
        )
        assert cfg.mtbf == 5000.0
        assert cfg.mttr == 1800.0
        assert cfg.seed == 3
        assert cfg.requeue == "abandon"
        assert cfg.blade_prob == 0.5
        assert cfg.max_requeues == 2

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown --faults key"):
            FaultConfig.from_spec("mtbf=100,bogus=1")

    def test_from_spec_rejects_bad_syntax(self):
        with pytest.raises(ValueError):
            FaultConfig.from_spec("mtbf")

    def test_dict_round_trip(self):
        cfg = FaultConfig(mtbf=1000.0, mttr=600.0, seed=9,
                          requeue="requeue-back", max_requeues=3)
        assert FaultConfig.from_dict(cfg.as_dict()) == cfg
        # and through JSON, as a manifest would store it
        assert FaultConfig.from_dict(json.loads(json.dumps(cfg.as_dict()))) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            FaultConfig.from_dict({"mtbf": 1.0, "nope": 2})


class TestFaultInjector:
    def test_requires_active_config(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultConfig())

    def test_same_seed_same_stream(self):
        a, b = FaultInjector(FAULTS), FaultInjector(FAULTS)
        assert [a.next_failure_gap() for _ in range(5)] \
            == [b.next_failure_gap() for _ in range(5)]
        assert a.sample_failure() == b.sample_failure()
        pool = np.arange(32)
        assert a.choose_failed_nodes(pool, 3).tolist() \
            == b.choose_failed_nodes(pool, 3).tolist()

    def test_reset_replays_stream(self):
        inj = FaultInjector(FAULTS)
        first = [inj.next_failure_gap() for _ in range(4)]
        inj.reset()
        assert [inj.next_failure_gap() for _ in range(4)] == first

    def test_repair_times_respect_min_repair(self):
        inj = FaultInjector(FaultConfig(mtbf=100.0, mttr=1.0,
                                        min_repair=500.0, seed=0))
        for _ in range(20):
            _, repairs = inj.sample_failure()
            assert all(r >= 500.0 for r in repairs)


class TestClusterFailures:
    def test_fail_and_repair_accounting(self):
        cluster = Cluster(8, sanitize=True)
        cluster.fail_nodes([1, 2], now=10.0, expected_up_at=110.0)
        assert cluster.down_nodes == 2
        assert cluster.up_nodes == 6
        assert cluster.down_mask.tolist() == [
            False, True, True, False, False, False, False, False]
        assert cluster.lost_node_seconds(until=60.0) == pytest.approx(100.0)
        cluster.repair_nodes([1, 2], now=110.0)
        assert cluster.down_nodes == 0
        assert cluster.lost_node_seconds() == pytest.approx(200.0)

    def test_cannot_fail_occupied_node(self):
        cluster = Cluster(4, sanitize=True)
        job = make_job(size=4, walltime=10.0)
        cluster.allocate(job, 0.0)
        with pytest.raises(RuntimeError, match="non-free"):
            cluster.fail_nodes([0], now=1.0, expected_up_at=2.0)

    def test_cannot_repair_healthy_node(self):
        cluster = Cluster(4, sanitize=True)
        with pytest.raises(RuntimeError, match="not down"):
            cluster.repair_nodes([0], now=1.0)

    def test_allocate_avoids_down_nodes(self):
        cluster = Cluster(4, sanitize=True)
        cluster.fail_nodes([0, 1], now=0.0, expected_up_at=100.0)
        assert not cluster.can_fit(3)
        job = make_job(size=2, walltime=10.0)
        nodes = cluster.allocate(job, 0.0)
        assert set(nodes.tolist()) == {2, 3}

    def test_release_killed_wastes_partial_work(self):
        cluster = Cluster(4, sanitize=True)
        job = make_job(size=2, walltime=100.0)
        job.state = JobState.WAITING
        from repro.sim.job import ExecMode

        cluster.allocate(job, 0.0)
        job.mark_started(0.0, ExecMode.READY)
        cluster.release_killed(job, now=30.0)
        assert cluster.wasted_node_seconds == pytest.approx(60.0)
        assert cluster.used_node_seconds() == 0.0

    def test_reset_clears_fault_state(self):
        cluster = Cluster(4, sanitize=True)
        cluster.fail_nodes([0], now=0.0, expected_up_at=10.0)
        cluster.reset()
        assert cluster.down_nodes == 0
        assert cluster.lost_node_seconds() == 0.0
        assert cluster.wasted_node_seconds == 0.0


def _normalized_trace(path):
    """Trace lines as parsed records with the volatile wall field removed."""
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("wall", None)
        records.append(record)
    return records


class TestDeterminism:
    def test_bit_identical_runs(self, tmp_path):
        jobs = theta_trace()
        outcomes = []
        for run in range(2):
            trace_path = tmp_path / f"run{run}.jsonl"
            result = run_simulation(
                64, make_policy("fcfs"),
                [j.copy_fresh() for j in jobs],
                trace=str(trace_path), faults=FAULTS, sanitize=True,
            )
            outcomes.append((
                RunMetrics.from_result(result).as_dict(),
                result.resilience.as_dict(),
                [(j.job_id, j.state.name, j.end_time, j.times_killed)
                 for j in result.jobs],
                _normalized_trace(trace_path),
            ))
        assert outcomes[0] == outcomes[1]

    def test_different_fault_seed_differs(self):
        jobs = theta_trace()
        results = []
        for seed in (7, 8):
            cfg = dataclasses.replace(FAULTS, seed=seed)
            result = run_simulation(64, make_policy("fcfs"),
                                    [j.copy_fresh() for j in jobs],
                                    faults=cfg)
            results.append(result.resilience.as_dict())
        assert results[0] != results[1]

    @staticmethod
    def _failure_schedule(policy, path):
        """The (time, failed nodes) stream a faulted run under ``policy`` saw."""
        run_simulation(64, policy, [j.copy_fresh() for j in theta_trace()],
                       trace=str(path), faults=FAULTS)
        return [(r["t"], tuple(r["nodes"])) for r in _normalized_trace(path)
                if r.get("name") == "engine.node_fail"]

    @pytest.mark.parametrize("policy", ["fcfs", "binpacking", "random",
                                        "dras-pg"])
    def test_faults_independent_of_policy_decisions(self, policy, tmp_path):
        """Every policy sees the failure schedule an FCFS run sees.

        Makespans differ, so the *number* of failures consumed differs;
        but the sequence of (time, failed nodes) pairs must be a shared
        prefix of the FCFS run's — the injector stream never depends on
        policy decisions (for ``fcfs`` itself this is run-to-run
        determinism).  Random and DRAS-PG draw from their own
        generators on every decision, so a policy that reached the
        injector's generator would shift the stream here.
        """
        if policy == "dras-pg":
            scheduler = DRASPG(DRASConfig(num_nodes=64, window=10,
                                          hidden1=32, hidden2=16))
        else:
            scheduler = make_policy(policy)
        seen = self._failure_schedule(scheduler, tmp_path / "run.jsonl")
        reference = self._failure_schedule(FCFSEasy(), tmp_path / "ref.jsonl")
        n = min(len(seen), len(reference))
        assert n >= 10
        assert seen[:n] == reference[:n]


class TestAllSchedulersUnderFaults:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_completes_faulted_run(self, policy):
        jobs = theta_trace()
        result = run_simulation(
            64, make_policy(policy), [j.copy_fresh() for j in jobs],
            faults=FAULTS, sanitize=True,
        )
        r = result.resilience
        assert r is not None
        assert r.node_failures >= 10
        assert r.node_repairs > 0
        assert r.lost_node_seconds > 0
        assert 0.0 < r.degraded_utilization <= 1.0
        # requeue-front default: every kill is requeued, every job finishes
        assert r.jobs_killed == r.requeues
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_rl_agent_completes_faulted_run(self):
        from repro.core.config import DRASConfig
        from repro.core.dras_pg import DRASPG

        cfg = DRASConfig.scaled(64, objective="capability", window=8,
                                time_scale=ThetaModel.MAX_RUNTIME, seed=0)
        agent = DRASPG(cfg)
        result = run_simulation(64, agent, theta_trace(60),
                                faults=FAULTS, sanitize=True)
        assert result.resilience.node_failures >= 10
        for p in agent.network.parameters():
            assert np.all(np.isfinite(p.value)), p.name


class TestRequeuePolicies:
    def test_abandon_marks_jobs_failed(self):
        cfg = dataclasses.replace(FAULTS, requeue="abandon")
        jobs = theta_trace()
        result = run_simulation(64, make_policy("fcfs"),
                                [j.copy_fresh() for j in jobs],
                                faults=cfg, sanitize=True)
        r = result.resilience
        assert r.jobs_killed > 0
        assert r.requeues == 0
        assert r.abandoned == r.jobs_killed
        failed = [j for j in result.jobs if j.state is JobState.FAILED]
        assert len(failed) == r.abandoned
        assert all(j.end_time is not None for j in failed)

    def test_max_requeues_caps_retries(self):
        cfg = dataclasses.replace(FAULTS, max_requeues=1)
        jobs = theta_trace()
        result = run_simulation(64, make_policy("fcfs"),
                                [j.copy_fresh() for j in jobs],
                                faults=cfg, sanitize=True)
        assert all(j.times_killed <= 2 for j in result.jobs)
        over = [j for j in result.jobs if j.times_killed == 2]
        assert all(j.state is JobState.FAILED for j in over)

    def test_requeue_back_still_finishes_everything(self):
        cfg = dataclasses.replace(FAULTS, requeue="requeue-back")
        jobs = theta_trace()
        result = run_simulation(64, make_policy("fcfs"),
                                [j.copy_fresh() for j in jobs],
                                faults=cfg, sanitize=True)
        assert all(j.state is JobState.FINISHED for j in result.jobs)
        assert result.resilience.requeues == result.resilience.jobs_killed

    def test_requeue_front_and_back_diverge(self):
        jobs = theta_trace()
        ends = []
        for requeue in ("requeue-front", "requeue-back"):
            cfg = dataclasses.replace(FAULTS, requeue=requeue)
            result = run_simulation(64, make_policy("fcfs"),
                                    [j.copy_fresh() for j in jobs],
                                    faults=cfg)
            ends.append([j.end_time for j in result.jobs])
        assert ends[0] != ends[1]


class TestDependencyCascade:
    def test_abandoned_parent_dooms_dependent(self):
        # the parent is large and long: under aggressive faults with the
        # abandon policy it is very likely to be killed; its dependent
        # must then be abandoned too, never started
        cfg = FaultConfig(mtbf=300.0, mttr=600.0, seed=1, requeue="abandon")
        parent = make_job(size=8, walltime=50_000.0, submit=0.0, job_id=1)
        child = make_job(size=1, walltime=10.0, submit=1.0, deps=(1,),
                         job_id=2)
        filler = [make_job(size=1, walltime=100.0, submit=float(i),
                           job_id=10 + i) for i in range(5)]
        result = run_simulation(8, make_policy("fcfs"),
                                [parent, child] + filler,
                                faults=cfg, sanitize=True)
        by_id = {j.job_id: j for j in result.jobs}
        if by_id[1].state is JobState.FAILED:
            assert by_id[2].state is JobState.FAILED
            assert by_id[2].start_time is None

    def test_job_kill_mtbf_without_node_faults(self):
        cfg = FaultConfig(job_kill_mtbf=5000.0, seed=3)
        jobs = theta_trace()
        result = run_simulation(64, make_policy("fcfs"),
                                [j.copy_fresh() for j in jobs],
                                faults=cfg, sanitize=True)
        r = result.resilience
        assert r.node_failures == 0
        assert r.jobs_killed > 0
        assert r.wasted_node_seconds > 0
        assert all(j.state is JobState.FINISHED for j in result.jobs)


class TestNoFaultEquivalence:
    def test_inactive_config_matches_plain_run(self):
        jobs = theta_trace()
        plain = run_simulation(64, make_policy("fcfs"),
                               [j.copy_fresh() for j in jobs])
        inactive = run_simulation(64, make_policy("fcfs"),
                                  [j.copy_fresh() for j in jobs],
                                  faults=FaultConfig())
        assert inactive.resilience is None
        assert RunMetrics.from_result(plain).as_dict() \
            == RunMetrics.from_result(inactive).as_dict()
