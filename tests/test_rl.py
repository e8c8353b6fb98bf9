"""Unit tests for the training infrastructure (meter, trainer, curriculum)."""

import math

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.core.rewards import CapabilityReward
from repro.rl.curriculum import compare_phase_orders, train_with_curriculum
from repro.rl.meter import RewardMeter
from repro.rl.trainer import EpisodeStats, Trainer, TrainingHistory
from repro.schedulers import FCFSEasy
from repro.sim.engine import run_simulation
from repro.workload.models import ThetaModel
from tests.conftest import make_job


def small_config(**overrides):
    base = dict(num_nodes=16, window=4, hidden1=16, hidden2=8, seed=0,
                objective="capability", time_scale=1000.0)
    base.update(overrides)
    return DRASConfig(**base)


def tiny_jobs(n=8, size=4, walltime=50.0):
    return [make_job(size=size, walltime=walltime, submit=float(i * 10))
            for i in range(n)]


def contended_jobs(seed, n=16):
    """Mixed sizes arriving faster than they drain: the order matters."""
    rng = np.random.default_rng(seed)
    return [make_job(size=int(rng.integers(1, 13)),
                     walltime=float(rng.integers(20, 200)), submit=float(i))
            for i in range(n)]


class TestRewardMeter:
    def test_counts_instances(self):
        # the reward is called once per scheduling instance, and the
        # total adds the rewards in the order the instances ran
        capability, rewards = CapabilityReward(), []

        def reward_fn(*args):
            rewards.append(capability(*args))
            return rewards[-1]

        meter = RewardMeter(reward_fn)
        result = run_simulation(16, FCFSEasy(), tiny_jobs(), observers=[meter])
        assert len(rewards) == result.num_instances > 0
        assert meter.total == sum(rewards)

    def test_meter_reward_is_the_agents_last_of_each_instance(self):
        # the meter and a learning agent read one selection list: where
        # an instance selected anything, the meter's reward for it is
        # the reward the agent recorded after its last action
        agent = DRASPG(small_config())
        metered, last, pairs = [], [None], []

        def reward_fn(*args):
            metered.append(agent.reward_fn(*args))
            return metered[-1]

        record = agent.record_reward

        def record_reward(reward):
            last[0] = reward
            record(reward)

        agent.record_reward = record_reward

        class Pairs:
            def on_instance(self, view):
                if view.selected:
                    pairs.append((metered[-1], last[0]))
                last[0] = None

        result = run_simulation(16, agent, contended_jobs(3, n=24),
                                observers=[RewardMeter(reward_fn), Pairs()])
        assert agent.learning and len(metered) == result.num_instances
        assert len(pairs) > 5 and None not in {got for _, got in pairs}
        assert all(meter == got for meter, got in pairs)


class TestTrainingHistory:
    def _history(self, curve):
        h = TrainingHistory()
        for i, v in enumerate(curve):
            h.episodes.append(EpisodeStats(i, "p", 10, 0.0, v, i))
        return h

    def test_validation_curve(self):
        h = self._history([1.0, 2.0, 3.0])
        assert list(h.validation_curve) == [1.0, 2.0, 3.0]

    def test_convergence_detection(self):
        flat = self._history([1.0, 10.0, 10.1, 10.05, 10.0, 10.02, 10.01])
        assert flat.converged_at() == 5

    def test_non_convergent(self):
        rising = self._history([float(i * i) for i in range(10)])
        assert rising.converged_at() is None


class TestTrainer:
    def _trainer(self):
        agent = DRASPG(small_config())
        val = tiny_jobs(n=6)
        return Trainer(agent, 16, validation_jobs=val), agent

    def test_run_episode_returns_reward(self):
        trainer, _ = self._trainer()
        reward = trainer.run_episode(tiny_jobs())
        assert math.isfinite(reward)

    def test_episode_does_not_mutate_jobset(self):
        trainer, _ = self._trainer()
        jobset = tiny_jobs()
        trainer.run_episode(jobset)
        from repro.sim.job import JobState

        assert all(j.state is JobState.PENDING for j in jobset)

    def test_validate_restores_learning_flag(self):
        trainer, agent = self._trainer()
        agent.train()
        trainer.validate()
        assert agent.learning is True
        agent.eval(online_learning=False)
        trainer.validate()
        assert agent.learning is False

    def test_validate_without_jobs_is_nan(self):
        agent = DRASPG(small_config())
        trainer = Trainer(agent, 16)
        assert math.isnan(trainer.validate())

    def test_train_builds_history(self):
        trainer, _ = self._trainer()
        history = trainer.train([("a", tiny_jobs()), ("b", tiny_jobs())])
        assert len(history.episodes) == 2
        assert [e.phase for e in history.episodes] == ["a", "b"]

    @staticmethod
    def _count_snapshots(agent):
        """Keep every ``state_dict()`` the agent hands out, in order."""
        taken = []
        state_dict = agent.state_dict

        def recording():
            taken.append(state_dict())
            return taken[-1]

        agent.state_dict = recording
        return taken

    def test_train_takes_no_snapshot(self):
        """Memory is constant in episodes: the history keeps statistics
        only, and the trained weights are the agent's own, writable.
        The best-validating episode can be named, but no copy of its
        weights is kept.
        """
        agent = DRASPG(small_config())
        taken = self._count_snapshots(agent)
        trainer = Trainer(agent, 16, validation_jobs=contended_jobs(42))
        history = trainer.train(
            [("p", contended_jobs(seed)) for seed in range(6)])
        assert len(history.episodes) == 6
        assert taken == []
        best = int(np.argmax(history.validation_curve))
        assert 0 < best < 5, "the recipe should peak mid-run"
        assert list(vars(history)) == ["episodes"]
        assert all(p.value.flags.writeable
                   for p in agent.network.parameters())
        assert not hasattr(trainer, "snapshot_every")

    def test_finished_history_runs_nothing(self):
        """Resuming a history with no jobsets left runs no episode and
        leaves the agent's weights as they were."""
        agent = DRASPG(small_config())
        trainer = Trainer(agent, 16)
        jobsets = [("p", contended_jobs(seed)) for seed in range(2)]
        history = trainer.train(jobsets)
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        updates = agent.updates_done
        assert trainer.train(jobsets, history=history) is history
        assert len(history.episodes) == 2
        assert agent.updates_done == updates
        after = agent.state_dict()
        for key, value in before.items():
            assert after[key].tobytes() == value.tobytes()

    def test_disk_writers_lend_nothing(self, tmp_path):
        """``save_agent`` and a training checkpoint, the one agent file,
        read the live weights without lending them: every value stays
        writable (the next step updates in place), and the file holds
        what ``np.savez`` writes, member for member, byte for byte."""
        import zipfile

        from repro.core.persistence import agent_arrays, save_agent

        agent = DRASPG(small_config())
        history = Trainer(agent, 16, checkpoint_path=tmp_path / "ck.npz") \
            .train([("p", contended_jobs(0))])
        assert agent.updates_done > 0
        params = agent.network.parameters()
        assert all(p.value.flags.writeable for p in params)
        save_agent(agent, tmp_path / "agent.npz", history)
        assert all(p.value.flags.writeable for p in params)

        def members(path):
            with zipfile.ZipFile(path) as archive:
                return {n: archive.read(n) for n in archive.namelist()}

        with np.load(tmp_path / "agent.npz") as data:
            meta = data["__meta__"]
        np.savez(tmp_path / "agent_ref.npz", **agent_arrays(agent),
                 __meta__=meta)
        assert members(tmp_path / "agent.npz") \
            == members(tmp_path / "agent_ref.npz") \
            == members(tmp_path / "ck.npz")


class TestCurriculumTraining:
    def test_train_with_curriculum(self, rng):
        model = ThetaModel.scaled(16)
        base = model.generate(120, rng)
        val = model.generate(40, np.random.default_rng(5))
        agent = DRASPG(small_config())
        history = train_with_curriculum(
            agent, model, base, val, rng,
            n_sampled=1, n_real=1, n_synthetic=1, jobs_per_set=30,
        )
        assert len(history.episodes) == 3
        assert [e.phase for e in history.episodes] == [
            "sampled", "real", "synthetic",
        ]

    def test_compare_phase_orders_trains_fresh_agents(self, rng):
        model = ThetaModel.scaled(16)
        base = model.generate(120, rng)
        val = model.generate(40, np.random.default_rng(5))
        histories = compare_phase_orders(
            lambda: DRASPG(small_config()),
            model, base, val, seed=3,
            orders=(("sampled", "real", "synthetic"),
                    ("synthetic", "sampled", "real")),
            n_sampled=1, n_real=1, n_synthetic=1, jobs_per_set=30,
        )
        assert len(histories) == 2
        for history in histories.values():
            assert len(history.episodes) == 3
