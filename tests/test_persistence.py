"""Unit tests for the one agent file (``core.persistence``)."""

import copy
import json

import numpy as np
import pytest

from repro.check.sanitize import sanitizing
from repro.core.config import DRASConfig
from repro.core.decima import DecimaPG
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.core.persistence import (
    CheckpointError,
    agent_arrays,
    load_agent,
    load_checkpoint,
    save_agent,
)
from repro.obs.live import SnapshotWriter
from repro.rl.trainer import Trainer
from repro.sim.engine import run_simulation
from tests.conftest import float64_agent, make_job


def small_config(**overrides):
    base = dict(num_nodes=8, window=3, hidden1=12, hidden2=6, seed=0,
                objective="capability", time_scale=100.0)
    base.update(overrides)
    return DRASConfig(**base)


def train_a_little(agent):
    jobs = [make_job(size=2, walltime=20.0, submit=float(i * 5)) for i in range(12)]
    run_simulation(8, agent, jobs)
    return agent


@pytest.mark.parametrize("cls,kind", [(DRASPG, "pg"), (DRASDQL, "dql"),
                                      (DecimaPG, "decima")])
class TestRoundTrip:
    def test_weights_roundtrip(self, cls, kind, tmp_path):
        agent = train_a_little(cls(small_config()))
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        restored = load_agent(path)
        assert type(restored) is cls
        a, b = agent.state_dict(), restored.state_dict()
        assert all(np.allclose(a[k], b[k]) for k in a)

    def test_config_roundtrip(self, cls, kind, tmp_path):
        agent = cls(small_config(window=3, update_every=4))
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        restored = load_agent(path)
        assert restored.config == agent.config

    def test_optimizer_state_roundtrip(self, cls, kind, tmp_path):
        agent = train_a_little(cls(small_config()))
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        restored = load_agent(path)
        assert restored.optimizer._t == agent.optimizer._t
        assert restored.optimizer._t > 0  # training actually stepped Adam
        for m1, m2 in zip(agent.optimizer._m, restored.optimizer._m):
            assert np.allclose(m1, m2)
        # Adam sweeps flat views: what a restore installs must allow them
        opt = restored.optimizer
        installed = [*opt._m, *opt._v, *(p.value for p in opt.params)]
        assert all(a.flags.c_contiguous for a in installed)
        # a restore installs no gradient: the next backward makes it
        assert all(p.grad is None for p in opt.params)
        train_a_little(restored)
        assert opt._t > agent.optimizer._t

    def test_untrained_agent_roundtrips_to_no_moments(self, cls, kind,
                                                      tmp_path):
        """Zeros are written for a never-stepped optimizer, and not kept."""
        agent = cls(small_config())
        save_agent(agent, tmp_path / "agent.npz")
        assert agent.optimizer._m is None and agent.optimizer._v is None
        with np.load(tmp_path / "agent.npz") as data:
            assert data["adam.t"][0] == 0
            for i, p in enumerate(agent.optimizer.params):
                for k in "mv":
                    moment = data[f"adam.{k}.{i}"]
                    assert moment.shape == p.value.shape
                    assert moment.dtype == np.float32 and not moment.any()
        restored = load_agent(tmp_path / "agent.npz")
        opt = restored.optimizer
        assert opt._m is None and opt._v is None
        train_a_little(restored)
        assert opt._t > 0 and len(opt._m) == len(opt._v) == len(opt.params)


class TestKindSpecificState:
    def test_pg_baseline_restored(self, tmp_path):
        agent = train_a_little(DRASPG(small_config()))
        path = tmp_path / "a.npz"
        save_agent(agent, path)
        restored = load_agent(path)
        assert np.allclose(agent.core.baseline._sums,
                           restored.core.baseline._sums)
        assert np.allclose(agent.core.baseline._counts,
                           restored.core.baseline._counts)
        assert restored.core.baseline._counts.sum() > 0

    def test_dql_epsilon_restored(self, tmp_path):
        agent = train_a_little(DRASDQL(small_config(update_every=1)))
        assert agent.epsilon < 1.0
        path = tmp_path / "a.npz"
        save_agent(agent, path)
        restored = load_agent(path)
        assert restored.epsilon == pytest.approx(agent.epsilon)


class TestResumedTrainingEquivalence:
    @pytest.mark.parametrize("online", [False, True],
                             ids=["frozen", "online"])
    @pytest.mark.parametrize("cls", [DRASPG, DRASDQL, DecimaPG],
                             ids=["pg", "dql", "decima"])
    def test_restored_agent_schedules_identically(self, cls, online,
                                                  tmp_path):
        """A loaded agent is the saved one: it schedules as a deep copy
        of the saved agent does, frozen or learning online, and leaves
        the same state behind."""
        agent = train_a_little(cls(small_config(update_every=1)))
        path = tmp_path / "a.npz"
        save_agent(agent, path)
        twin, restored = copy.deepcopy(agent), load_agent(path)

        def run(a):
            a.eval(online_learning=online)
            jobs = [make_job(size=s, walltime=20.0, submit=float(t))
                    for t, s in enumerate((1, 2, 4, 2, 3, 1, 4, 2))]
            run_simulation(8, a, jobs)
            return [j.start_time for j in jobs]

        assert run(restored) == run(twin)
        assert restored.rng.bit_generator.state \
            == twin.rng.bit_generator.state
        assert restored.updates_done == twin.updates_done
        assert getattr(restored, "epsilon", None) \
            == getattr(twin, "epsilon", None)
        held, kept = agent_arrays(restored), agent_arrays(twin)
        assert held.keys() == kept.keys()
        for key, value in kept.items():
            assert np.array_equal(held[key], value), key


@pytest.mark.parametrize("cls", [DRASPG, DRASDQL, DecimaPG])
class TestPrecision:
    """Checkpoints hold the network's dtype and load into the loader's."""

    def test_float32_roundtrip_is_bit_exact(self, cls, tmp_path):
        agent = train_a_little(cls(small_config()))
        save_agent(agent, tmp_path / "a.npz")
        restored = load_agent(tmp_path / "a.npz")
        saved, loaded = agent.state_dict(), restored.state_dict()
        for key, value in saved.items():
            assert value.dtype == loaded[key].dtype == np.float32
            assert np.array_equal(value, loaded[key]), key
        before, after = agent.optimizer, restored.optimizer
        for old, new in zip(before._m + before._v, after._m + after._v):
            assert new.dtype == np.float32 and np.array_equal(old, new)

    def test_float64_checkpoint_loads_by_rounding(self, cls, tmp_path):
        """A file from before float32 never leaves float64 moments behind.

        The agent-file reader used to install the file's arrays as they
        were, so every later Adam step ran float32 weights against
        float64 moments.
        """
        wide = train_a_little(float64_agent(cls, small_config()))
        save_agent(wide, tmp_path / "wide.npz")
        with np.load(tmp_path / "wide.npz") as data:
            assert data["net.1.fc1.weight"].dtype == np.float64
            assert data["adam.m.0"].dtype == np.float64
        restored = load_agent(tmp_path / "wide.npz")
        for key, value in wide.state_dict().items():
            assert np.array_equal(restored.state_dict()[key],
                                  value.astype(np.float32)), key
        opt = restored.optimizer
        for old, new in zip(wide.optimizer._m + wide.optimizer._v,
                            opt._m + opt._v):
            assert new.dtype == np.float32
            assert np.array_equal(new, old.astype(np.float32))
        # and it trains on, pure, from there
        with sanitizing(True):
            train_a_little(restored.train())
        assert restored.optimizer._t > wide.optimizer._t

    def test_file_is_about_half_the_float64_size(self, cls, tmp_path):
        config = small_config(num_nodes=64, hidden1=64, hidden2=32)
        save_agent(cls(config), tmp_path / "narrow.npz")
        save_agent(float64_agent(cls, config), tmp_path / "wide.npz")
        ratio = (tmp_path / "narrow.npz").stat().st_size \
            / (tmp_path / "wide.npz").stat().st_size
        assert 0.5 <= ratio < 0.6  # zip headers and metadata do not shrink


def rewrite_meta(path, edit):
    """Rewrite an agent file with ``edit`` applied to its ``__meta__``."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    edit(meta, arrays)
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


class TestWatchedRunBytes:
    def test_checkpoint_bytes_do_not_depend_on_the_log(self, tmp_path,
                                                       monkeypatch):
        """The same training, logged with wall stamps of different
        lengths, writes the same agent file: nothing about the log is
        stored in it."""
        from repro.rl import trainer as _trainer

        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 5))
                for i in range(6)]
        blobs, sizes = [], []
        for run, clock in enumerate((0.5, 1234.56789012345)):
            monkeypatch.setattr(_trainer, "_perf_counter", lambda: clock)
            log = tmp_path / f"log{run}.jsonl"
            ckpt = tmp_path / f"ck{run}.npz"
            trainer = Trainer(DRASPG(small_config()), 8,
                              telemetry=SnapshotWriter(log, source="train"),
                              checkpoint_path=ckpt)
            trainer.train([("p", jobs)])
            trainer.telemetry.close()
            blobs.append(ckpt.read_bytes())
            sizes.append(log.stat().st_size)
        assert sizes[0] != sizes[1]
        assert blobs[0] == blobs[1]


class TestErrors:
    def test_unsupported_type(self, tmp_path):
        from repro.schedulers import FCFSEasy

        with pytest.raises(TypeError):
            save_agent(FCFSEasy(), tmp_path / "x.npz")

    def test_bad_format_version(self, tmp_path):
        path = tmp_path / "bad.npz"
        save_agent(DRASPG(small_config()), path)
        rewrite_meta(path, lambda meta, _: meta.update(format_version=99))
        with pytest.raises(ValueError, match="format"):
            load_agent(path)


class TestDurability:
    """The one reader refuses every file it cannot fully restore."""

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_agent(tmp_path / "nope.npz")

    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        """A clipped checkpoint (simulated torn write) must fail loudly."""
        path = tmp_path / "a.npz"
        jobs = [make_job(size=2, walltime=20.0, submit=float(i * 5))
                for i in range(6)]
        Trainer(DRASPG(small_config()), 8, checkpoint_path=path).train(
            [("p", jobs)])
        assert load_checkpoint(path).episodes_done == 1
        blob = path.read_bytes()
        for cut in (len(blob) // 2, len(blob) - 10, 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError,
                               match="truncated or corrupted|incomplete"):
                load_checkpoint(path)

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "a.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(CheckpointError):
            load_agent(path)

    def test_non_checkpoint_npz_raises_checkpoint_error(self, tmp_path):
        """A valid npz missing the checkpoint keys is rejected, not KeyError."""
        path = tmp_path / "a.npz"
        np.savez(path, unrelated=np.zeros(3))
        with pytest.raises(CheckpointError, match="incomplete or corrupted"):
            load_agent(path)

    @pytest.mark.parametrize("member", [
        "format_version", "kind", "config", "rng_state", "updates_done",
        "episodes", "faults", "adam.t",
        "baseline.counts",
    ])
    def test_incomplete_file_names_what_is_missing(self, member, tmp_path):
        """No part of the agent is rebuilt from defaults: a file without
        it is refused by name."""
        path = tmp_path / "a.npz"
        save_agent(train_a_little(DRASPG(small_config())), path)

        rewrite_meta(path, lambda meta, arrays: (
            meta if member in meta else arrays).pop(member))
        with pytest.raises(CheckpointError, match=member):
            load_checkpoint(path)

    def test_file_from_before_the_log_cut_moved_still_loads(self, tmp_path):
        """Agent files once stored the training log's byte offset; the
        key is ignored now, not refused."""
        path = tmp_path / "a.npz"
        save_agent(train_a_little(DRASPG(small_config())), path)
        rewrite_meta(path, lambda meta, _: meta.update(telemetry_offset=1249))
        assert load_checkpoint(path).episodes_done == 0

    def test_file_with_the_retired_config_keys_still_loads(self, tmp_path):
        """Agent files once stored ``normalize_state`` and ``greedy_eval``,
        always at the one behaviour the agent has now: such a file loads
        as the agent it saved, and any other value is refused."""
        path = tmp_path / "a.npz"
        agent = train_a_little(DRASPG(small_config()))
        save_agent(agent, path)
        rewrite_meta(path, lambda meta, _: meta["config"].update(
            normalize_state=True, greedy_eval=False))
        loaded = load_agent(path)
        assert loaded.config == agent.config
        saved, got = agent.state_dict(), loaded.state_dict()
        assert all(np.array_equal(saved[k], got[k]) for k in saved)
        for key, value in (("normalize_state", False), ("greedy_eval", True)):
            rewrite_meta(path, lambda meta, _: meta["config"].update(
                {key: value}))
            with pytest.raises(CheckpointError, match=f"{key}={value}"):
                load_agent(path)
            rewrite_meta(path, lambda meta, _: meta["config"].pop(key))

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "a.npz"   # parents are made
        save_agent(DRASPG(small_config()), path)
        assert path.exists()
        leftovers = [p for p in path.parent.iterdir() if p.name != "a.npz"]
        assert leftovers == []

    def test_overwrite_preserves_old_on_save_failure(self, tmp_path):
        """A failed re-save must leave the previous checkpoint readable."""
        from repro.obs.jsonl import atomic_write

        path = tmp_path / "a.npz"
        agent = DRASPG(small_config())
        save_agent(agent, path)
        before = path.read_bytes()

        class Boom:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("boom")

        bad = {"x": Boom()}
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(path, binary=True) as fh:
                np.savez(fh, **bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]
        load_agent(path)  # still a valid checkpoint
