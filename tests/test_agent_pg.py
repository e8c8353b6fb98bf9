"""Unit tests for DRAS-PG: selection, baseline, updates, hierarchy."""

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_pg import BaselineTracker, DRASPG
from repro.sim.engine import run_simulation
from repro.sim.job import ExecMode, JobState
from tests.conftest import make_job


def small_config(**overrides):
    base = dict(num_nodes=8, window=3, hidden1=12, hidden2=6, seed=0,
                objective="capability", time_scale=100.0)
    base.update(overrides)
    return DRASConfig(**base)


class TestBaselineTracker:
    def test_empty_baselines_zero(self):
        tracker = BaselineTracker()
        assert np.allclose(tracker.baselines(3), 0.0)

    def test_running_average(self):
        tracker = BaselineTracker()
        tracker.observe(np.array([1.0, 2.0]))
        tracker.observe(np.array([3.0, 4.0]))
        assert tracker.baselines(2) == pytest.approx([2.0, 3.0])

    def test_variable_lengths(self):
        tracker = BaselineTracker()
        tracker.observe(np.array([1.0]))
        tracker.observe(np.array([3.0, 5.0]))
        base = tracker.baselines(3)
        assert base[0] == pytest.approx(2.0)   # two observations
        assert base[1] == pytest.approx(5.0)   # one observation
        assert base[2] == 0.0                  # unseen position


class TestSchedulingBehaviour:
    def test_runs_full_jobset(self):
        agent = DRASPG(small_config())
        jobs = [make_job(size=s, walltime=50.0, submit=float(i * 5))
                for i, s in enumerate((2, 4, 8, 1, 2, 4))]
        result = run_simulation(8, agent, jobs)
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_reserves_when_selection_does_not_fit(self):
        agent = DRASPG(small_config())
        blocker = make_job(size=8, walltime=100.0, submit=0.0)
        big = make_job(size=8, walltime=10.0, submit=1.0)
        run_simulation(8, agent, [blocker, big])
        assert big.mode is ExecMode.RESERVED

    def test_small_job_slips_ahead_of_reservation(self):
        agent = DRASPG(small_config())
        blocker = make_job(size=7, walltime=100.0, submit=0.0)
        big = make_job(size=8, walltime=10.0, submit=1.0)
        tiny = make_job(size=1, walltime=20.0, submit=2.0)
        run_simulation(8, agent, [blocker, big, tiny])
        # tiny runs ahead of the reserved whole-system job without
        # delaying it (READY or BACKFILLED depending on selection order)
        assert tiny.mode in (ExecMode.READY, ExecMode.BACKFILLED)
        assert tiny.start_time < big.start_time
        assert big.start_time == pytest.approx(100.0)

    def test_updates_happen_during_training(self):
        agent = DRASPG(small_config(update_every=2))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 3))
                for i in range(12)]
        run_simulation(8, agent, jobs)
        assert agent.updates_done >= 2

    def test_parameters_change_when_learning(self):
        agent = DRASPG(small_config(update_every=2))
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 3))
                for i in range(12)]
        run_simulation(8, agent, jobs)
        after = agent.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_frozen_eval_keeps_parameters(self):
        agent = DRASPG(small_config())
        agent.eval(online_learning=False)
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 3))
                for i in range(12)]
        run_simulation(8, agent, jobs)
        after = agent.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)
        assert agent.updates_done == 0

    def test_eval_records_no_transitions(self):
        agent = DRASPG(small_config())
        agent.eval(online_learning=False)
        jobs = [make_job(size=2, walltime=20.0, submit=float(i)) for i in range(5)]
        run_simulation(8, agent, jobs)
        assert agent.core.pending == []

    def test_episode_end_flushes_pending(self):
        agent = DRASPG(small_config(update_every=1000))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i)) for i in range(6)]
        run_simulation(8, agent, jobs)
        # update_every never reached, but the episode-end hook must flush
        assert agent.updates_done == 1
        assert agent.core.pending == []


class TestFirstFitBackfillAblation:
    def test_first_fit_backfill_matches_easy_choice(self):
        """With learned_backfill=False, level-2 picks candidates[0]."""
        agent = DRASPG(small_config(learned_backfill=False))
        blocker = make_job(size=7, walltime=100.0, submit=0.0)
        big = make_job(size=8, walltime=10.0, submit=0.5)
        bf1 = make_job(size=1, walltime=40.0, submit=1.0)
        bf2 = make_job(size=1, walltime=40.0, submit=1.0)
        run_simulation(8, agent, [blocker, big, bf1, bf2])
        # exactly one 1-node hole: first-fit must take the earlier job
        assert bf1.start_time < bf2.start_time

    def test_first_fit_backfill_records_no_level2_transitions(self):
        agent = DRASPG(small_config(learned_backfill=False, update_every=10**6))
        blocker = make_job(size=7, walltime=100.0, submit=0.0)
        big = make_job(size=8, walltime=10.0, submit=0.5)
        tiny = make_job(size=1, walltime=40.0, submit=1.0)
        run_simulation(8, agent, [blocker, big, tiny])
        # pending transitions only come from level-1 selections, which
        # are all singleton windows here (forced choices)
        assert all(t.mask.sum() == 1 for t in agent.core.pending)

    def test_runs_cleanly_end_to_end(self):
        agent = DRASPG(small_config(learned_backfill=False))
        jobs = [make_job(size=s, walltime=30.0, submit=float(i * 4))
                for i, s in enumerate((2, 8, 1, 4, 2, 8, 1))]
        result = run_simulation(8, agent, jobs)
        assert all(j.state is JobState.FINISHED for j in result.jobs)


class TestLearningMechanics:
    def test_update_clears_memory(self):
        agent = DRASPG(small_config(update_every=1))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 30))
                for i in range(4)]
        run_simulation(8, agent, jobs)
        assert agent.core.pending == []

    def test_policy_learns_reward_preference(self):
        """On a bandit-like task, PG shifts probability to the rewarded job.

        Two jobs are repeatedly offered; reward is the capability size
        term, so selecting the larger job first yields more reward.
        """
        cfg = small_config(update_every=1, learning_rate=0.05,
                           reward_kwargs={"w1": 0.0, "w2": 1.0, "w3": 0.0})
        agent = DRASPG(cfg)
        probs_before = None
        for episode in range(60):
            jobs = [
                make_job(size=1, walltime=10.0, submit=0.0),
                make_job(size=8, walltime=10.0, submit=0.0),
            ]
            result = run_simulation(8, agent, jobs)
            del result
        # probe the learned policy on a fresh instance
        from repro.sim.cluster import Cluster
        from repro.sim.engine import Engine

        probe = [
            make_job(size=1, walltime=10.0, submit=0.0),
            make_job(size=8, walltime=10.0, submit=0.0),
        ]
        agent.eval(online_learning=False)
        chosen_sizes = []

        class Spy:
            def on_start(self, job, now):
                chosen_sizes.append(job.size)

        Engine(Cluster(8), agent, probe, observers=[Spy()]).run()
        # a learned policy should pick the 8-node job first far more often;
        # here we just require the big job to come first on this probe
        assert chosen_sizes[0] == 8
