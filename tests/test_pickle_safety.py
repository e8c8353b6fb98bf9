"""Runtime pickle round-trips of every checkpoint-crossing object type.

No class reachable from :mod:`repro.rl.checkpoint` may capture an
open file handle, lock, lambda or live iterator.  These tests are
that guard, checked by running it: every object type the checkpoint
module names — the three agents of the
:data:`repro.core.persistence._KINDS` registry,
:class:`~repro.sim.faults.FaultConfig`,
:class:`~repro.rl.checkpoint.LoadedCheckpoint` and the episode
records — survives ``pickle.dumps``/``loads`` (the exact transport a
``multiprocessing`` sweep pool and fork-based workers rely on), with
behaviour preserved across the boundary.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.persistence import _KINDS
from repro.rl.checkpoint import LoadedCheckpoint
from repro.rl.trainer import EpisodeStats
from repro.sim.faults import FaultConfig


def small_config() -> DRASConfig:
    return DRASConfig(num_nodes=4, window=5, hidden1=8, hidden2=4)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_registered_agent_roundtrips(kind):
    agent = _KINDS[kind](small_config())
    clone = roundtrip(agent)
    assert type(clone) is type(agent)
    assert clone.config == agent.config
    # the full parameter state crosses the boundary bit-identically
    original = agent.network.state_dict()
    copied = clone.network.state_dict()
    assert sorted(copied) == sorted(original)
    for name, array in original.items():
        np.testing.assert_array_equal(copied[name], array)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_agent_rng_stream_continues_after_roundtrip(kind):
    agent = _KINDS[kind](small_config())
    clone = roundtrip(agent)
    # both generators continue the *same* stream: a worker resuming
    # from a pickled agent samples exactly what the parent would have
    assert clone.rng.bit_generator.state == agent.rng.bit_generator.state
    np.testing.assert_array_equal(clone.rng.random(8), agent.rng.random(8))


def test_fault_config_roundtrips():
    cfg = FaultConfig(mtbf=7200.0, mttr=1800.0, seed=3, blade_size=6,
                      job_kill_mtbf=3600.0, requeue="abandon",
                      max_requeues=2)
    assert roundtrip(cfg) == cfg


def test_episode_stats_roundtrip():
    stats = EpisodeStats(episode=7, phase="train", num_jobs=40,
                         train_reward=-1.5, validation_reward=-1.25,
                         updates_done=4)
    assert roundtrip(stats) == stats


def test_loaded_checkpoint_roundtrips_whole():
    loaded = LoadedCheckpoint(
        agent=_KINDS["pg"](small_config()),
        episodes=[{"episode": 0, "phase": "train"}],
        telemetry_offset=128,
        faults=FaultConfig(mtbf=7200.0, seed=1),
    )
    clone = roundtrip(loaded)
    assert clone.episodes == loaded.episodes
    assert clone.episodes_done == 1
    assert clone.telemetry_offset == 128
    assert clone.faults == loaded.faults
    assert type(clone.agent) is type(loaded.agent)
