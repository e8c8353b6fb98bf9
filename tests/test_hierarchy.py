"""White-box tests of the hierarchical decision loop (§III-B).

A scripted agent with a deterministic ``select`` replaces the neural
network, so every branch of the level-1 / level-2 flow can be asserted
exactly: who is offered in each window, when the reservation happens,
and when level-2 engages.
"""

import pytest

from repro.core.agent import HierarchicalAgent
from repro.core.config import DRASConfig
from repro.core.decima import DecimaPG
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.sim.engine import run_simulation
from repro.sim.job import ExecMode, JobState
from tests.conftest import make_job


class ScriptedAgent(HierarchicalAgent):
    """Selects by a scripted preference; records every window offered."""

    name = "scripted"

    def __init__(self, config, prefer=None):
        super().__init__(config)
        self.learning = False
        #: (level, [job ids offered]) per selection
        self.offers: list[tuple[int, list[int]]] = []
        self._prefer = prefer or (lambda window: window[0])

    def select(self, window, view, level):
        self.offers.append((level, [j.job_id for j in window]))
        return self._prefer(window)

    def record_reward(self, reward):  # pragma: no cover - learning off
        raise AssertionError("no rewards should be recorded with learning off")

    def update(self):  # pragma: no cover - learning off
        raise AssertionError("no updates should run with learning off")

    def _has_observations(self):
        return False


def config(**overrides):
    base = dict(num_nodes=8, window=3, hidden1=4, hidden2=2, seed=0,
                time_scale=100.0)
    base.update(overrides)
    return DRASConfig(**base)


class TestLevelOne:
    def test_window_is_queue_prefix(self):
        agent = ScriptedAgent(config())
        jobs = [make_job(size=8, walltime=10.0, submit=0.0, job_id=i)
                for i in (1, 2, 3, 4)]
        run_simulation(8, agent, jobs)
        # first instance: all four queued, window of 3 offered
        first_offer = agent.offers[0]
        assert first_offer == (1, [1, 2, 3])

    def test_repeats_until_misfit_then_reserves(self):
        agent = ScriptedAgent(config())
        a = make_job(size=3, walltime=50.0, submit=0.0, job_id=1)
        b = make_job(size=3, walltime=50.0, submit=0.0, job_id=2)
        c = make_job(size=4, walltime=50.0, submit=0.0, job_id=3)
        run_simulation(8, agent, [a, b, c])
        # level-1 starts a (fits), b (fits), then c misfits -> reserved
        levels = [lvl for lvl, _ in agent.offers[:3]]
        assert levels == [1, 1, 1]
        assert a.mode is ExecMode.READY
        assert b.mode is ExecMode.READY
        assert c.mode is ExecMode.RESERVED

    def test_no_level2_when_queue_drains(self):
        agent = ScriptedAgent(config())
        jobs = [make_job(size=2, walltime=10.0, submit=0.0, job_id=i)
                for i in (1, 2)]
        run_simulation(8, agent, jobs)
        assert all(level == 1 for level, _ in agent.offers)


class TestLevelTwo:
    def _contended(self):
        blocker = make_job(size=6, walltime=100.0, submit=0.0, job_id=1)
        big = make_job(size=8, walltime=10.0, submit=1.0, job_id=2)
        fit1 = make_job(size=1, walltime=30.0, submit=1.0, job_id=3)
        fit2 = make_job(size=1, walltime=30.0, submit=1.0, job_id=4)
        return [blocker, big, fit1, fit2]

    def test_level2_offers_only_candidates(self):
        # prefer the blocked big job first so level-1 reserves immediately
        agent = ScriptedAgent(
            config(),
            prefer=lambda window: max(window, key=lambda j: j.size),
        )
        jobs = self._contended()
        run_simulation(8, agent, jobs)
        level2_offers = [ids for lvl, ids in agent.offers if lvl == 2]
        assert level2_offers, "level-2 must engage after the reservation"
        for ids in level2_offers:
            assert 2 not in ids          # the reserved job is never offered
            assert set(ids) <= {3, 4}

    def test_level2_jobs_marked_backfilled(self):
        agent = ScriptedAgent(
            config(),
            prefer=lambda window: max(window, key=lambda j: j.size),
        )
        jobs = self._contended()
        run_simulation(8, agent, jobs)
        assert jobs[2].mode is ExecMode.BACKFILLED
        assert jobs[3].mode is ExecMode.BACKFILLED

    def test_reserved_job_keeps_mode_on_later_start(self):
        agent = ScriptedAgent(
            config(),
            prefer=lambda window: max(window, key=lambda j: j.size),
        )
        jobs = self._contended()
        run_simulation(8, agent, jobs)
        big = jobs[1]
        assert big.mode is ExecMode.RESERVED
        assert big.start_time == pytest.approx(100.0)


def _no_reward(selected, waiting, cluster, now):
    raise AssertionError("a frozen agent computes no reward")


class TestFrozenAgents:
    @pytest.mark.parametrize("agent_cls, learned_backfill", [
        (DRASPG, True), (DRASPG, False), (DRASDQL, True), (DecimaPG, True),
    ], ids=["pg", "pg-first-fit", "dql", "decima"])
    def test_computes_no_reward(self, agent_cls, learned_backfill):
        """Rewards only feed learning, so a frozen agent never asks."""
        agent = agent_cls(config(learned_backfill=learned_backfill),
                          reward=_no_reward).eval(online_learning=False)
        blocker = make_job(size=6, walltime=100.0, submit=0.0, job_id=1)
        big = make_job(size=8, walltime=10.0, submit=1.0, job_id=2)
        smalls = [make_job(size=2, walltime=20.0, runtime=10.0,
                           submit=2.0 + i, job_id=3 + i) for i in range(4)]
        result = run_simulation(8, agent, [blocker, big, *smalls])
        assert [j.state for j in result.jobs] == [JobState.FINISHED] * 6
        # alone in its window and too big, ``big`` is reserved at t = 1
        assert big.ever_reserved is (agent_cls is not DecimaPG)
