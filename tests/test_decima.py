"""Unit tests for the Decima-PG baseline (flat agent, no reservations)."""

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.decima import DecimaPG
from repro.sim.engine import run_simulation
from repro.sim.job import ExecMode, JobState
from tests.conftest import make_job


def small_config(**overrides):
    base = dict(num_nodes=8, window=3, hidden1=12, hidden2=6, seed=0,
                objective="capability", time_scale=100.0)
    base.update(overrides)
    return DRASConfig(**base)


class TestBehaviour:
    def test_never_reserves(self):
        agent = DecimaPG(small_config())
        jobs = [make_job(size=8, walltime=20.0, submit=float(i)) for i in range(4)]
        result = run_simulation(8, agent, jobs)
        assert all(j.mode is ExecMode.READY for j in result.jobs)
        assert all(not j.ever_reserved for j in result.jobs)

    def test_all_jobs_finish(self):
        agent = DecimaPG(small_config())
        jobs = [make_job(size=s, walltime=30.0, submit=float(i * 4))
                for i, s in enumerate((1, 2, 8, 4, 2, 1))]
        result = run_simulation(8, agent, jobs)
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_skips_unrunnable_jobs(self):
        """Unlike DRAS, a too-large head job is skipped, not reserved."""
        agent = DecimaPG(small_config())
        blocker = make_job(size=6, walltime=100.0, submit=0.0)
        big = make_job(size=8, walltime=10.0, submit=1.0)
        small = make_job(size=2, walltime=10.0, submit=2.0)
        run_simulation(8, agent, [blocker, big, small])
        # small runs ahead of big even though big arrived earlier
        assert small.start_time < big.start_time

    def test_large_jobs_can_starve(self):
        """A stream of small jobs overtakes the whole-system job."""
        agent = DecimaPG(small_config())
        smalls = [make_job(size=4, walltime=100.0, submit=float(i * 50))
                  for i in range(8)]
        big = make_job(size=8, walltime=10.0, submit=1.0)
        run_simulation(8, agent, smalls + [big])
        assert big.start_time > smalls[-1].submit_time

    def test_updates_during_training(self):
        agent = DecimaPG(small_config(update_every=2))
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 30))
                for i in range(12)]
        run_simulation(8, agent, jobs)
        assert agent.updates_done >= 2

    def test_frozen_eval(self):
        agent = DecimaPG(small_config())
        agent.eval(online_learning=False)
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        jobs = [make_job(size=2, walltime=20.0, submit=float(i)) for i in range(8)]
        run_simulation(8, agent, jobs)
        after = agent.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    def test_state_dict_roundtrip(self):
        a = DecimaPG(small_config(seed=1))
        b = DecimaPG(small_config(seed=2))
        b.load_state_dict(a.state_dict())
        ka = a.state_dict()
        kb = b.state_dict()
        assert all(np.allclose(ka[k], kb[k]) for k in ka)
