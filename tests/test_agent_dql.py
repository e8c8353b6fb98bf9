"""Unit tests for DRAS-DQL: ε-greedy, TD transitions, updates."""

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_dql import DRASDQL
from repro.sim.engine import run_simulation
from repro.sim.job import ExecMode, JobState
from tests.conftest import make_job


def small_config(**overrides):
    base = dict(num_nodes=8, window=3, hidden1=12, hidden2=6, seed=0,
                objective="capability", time_scale=100.0)
    base.update(overrides)
    return DRASConfig(**base)


class TestScheduling:
    def test_runs_full_jobset(self):
        agent = DRASDQL(small_config())
        jobs = [make_job(size=s, walltime=50.0, submit=float(i * 5))
                for i, s in enumerate((2, 4, 8, 1, 2, 4))]
        result = run_simulation(8, agent, jobs)
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_hierarchy_reserves_blocked_job(self):
        agent = DRASDQL(small_config())
        blocker = make_job(size=7, walltime=100.0, submit=0.0)
        big = make_job(size=8, walltime=10.0, submit=1.0)
        tiny = make_job(size=1, walltime=20.0, submit=2.0)
        run_simulation(8, agent, [blocker, big, tiny])
        # the whole-system job can only start via reservation...
        assert big.mode is ExecMode.RESERVED
        assert big.start_time == pytest.approx(100.0)
        # ...while the 1-node job slips ahead (READY if level-1 picked it
        # before the reservation existed, BACKFILLED otherwise)
        assert tiny.mode in (ExecMode.READY, ExecMode.BACKFILLED)
        assert tiny.start_time < big.start_time

    def test_q_values_shape(self):
        agent = DRASDQL(small_config())
        from repro.sim.cluster import Cluster
        from repro.sim.engine import Engine, SchedulingView

        engine = Engine(Cluster(8), agent, [])
        view = SchedulingView(engine)
        jobs = [make_job(size=1), make_job(size=2)]
        heads, nodes, q = agent.q_values(jobs, view)
        assert heads.shape == (2, 2, 2)
        assert nodes.expand(8).shape == (agent.encoder.dql_rows - 2, 2)
        assert q.shape == (2,)


class TestEpsilon:
    def test_decays_per_update(self):
        agent = DRASDQL(small_config(update_every=1))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 30))
                for i in range(10)]
        run_simulation(8, agent, jobs)
        assert agent.updates_done > 0
        expected = max(
            agent.config.epsilon_min,
            agent.config.epsilon_start * agent.config.epsilon_decay ** agent.updates_done,
        )
        assert agent.epsilon == pytest.approx(expected)

    def test_floor_respected(self):
        agent = DRASDQL(small_config(epsilon_start=0.05, epsilon_min=0.04,
                                     epsilon_decay=0.5, update_every=1))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 30))
                for i in range(10)]
        run_simulation(8, agent, jobs)
        assert agent.epsilon == pytest.approx(0.04)

    def test_eval_mode_greedy(self):
        """With learning off, identical Q inputs give a deterministic pick."""
        agent = DRASDQL(small_config())
        agent.eval(online_learning=False)

        def run_once():
            jobs = [make_job(size=s, walltime=20.0, submit=0.0)
                    for s in (1, 2, 4)]
            run_simulation(8, agent, jobs)
            return [j.start_time for j in jobs]

        assert run_once() == run_once()


class TestTransitions:
    def test_updates_and_memory_flush(self):
        agent = DRASDQL(small_config(update_every=2))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 30))
                for i in range(12)]
        run_simulation(8, agent, jobs)
        assert agent.updates_done >= 2
        assert agent._pending == []

    def test_parameters_move_when_learning(self):
        agent = DRASDQL(small_config(update_every=2))
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 3))
                for i in range(12)]
        run_simulation(8, agent, jobs)
        after = agent.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_frozen_eval_keeps_parameters(self):
        agent = DRASDQL(small_config())
        agent.eval(online_learning=False)
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 3))
                for i in range(12)]
        run_simulation(8, agent, jobs)
        after = agent.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)
        assert agent.epsilon == agent.config.epsilon_start

    def test_terminal_transition_bootstraps_zero(self):
        agent = DRASDQL(small_config(update_every=10_000))
        jobs = [make_job(size=2, walltime=20.0, submit=0.0)]
        run_simulation(8, agent, jobs)
        # single selection: flushed at episode end with next_max_q = 0
        assert agent.updates_done == 1
        assert agent._pending == []

    def test_losses_recorded(self):
        agent = DRASDQL(small_config(update_every=1))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 30))
                for i in range(6)]
        run_simulation(8, agent, jobs)
        assert len(agent.losses) == agent.updates_done
        assert all(np.isfinite(l) for l in agent.losses)


class TestLearning:
    def test_q_learns_reward_preference(self):
        """DQL learns to Q-rank the reward-bearing job above the other."""
        cfg = small_config(update_every=1, learning_rate=0.05,
                           epsilon_start=1.0, epsilon_decay=0.9,
                           epsilon_min=0.0,
                           reward_kwargs={"w1": 0.0, "w2": 1.0, "w3": 0.0})
        agent = DRASDQL(cfg)
        for _ in range(60):
            jobs = [
                make_job(size=1, walltime=10.0, submit=0.0),
                make_job(size=8, walltime=10.0, submit=0.0),
            ]
            run_simulation(8, agent, jobs)
        agent.eval(online_learning=False)
        from repro.sim.cluster import Cluster
        from repro.sim.engine import Engine

        chosen = []

        class Spy:
            def on_start(self, job, now):
                chosen.append(job.size)

        probe = [
            make_job(size=1, walltime=10.0, submit=0.0),
            make_job(size=8, walltime=10.0, submit=0.0),
        ]
        Engine(Cluster(8), agent, probe, observers=[Spy()]).run()
        assert chosen[0] == 8
