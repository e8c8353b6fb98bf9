"""Crash-safe training checkpoints.

A training run is hours of episodes; a crash (OOM kill, node reboot,
SIGKILL) must not lose it.  :func:`save_checkpoint` persists everything
needed to continue *bit-identically*:

* the complete agent state (weights, Adam moments, PG baseline or DQL
  epsilon) via the :mod:`repro.core.persistence` array helpers;
* the agent's RNG stream (``bit_generator.state``), so action sampling
  after resume continues exactly where the interrupted run left off;
* the episode history (one record per completed episode), which tells
  the trainer how many jobsets to skip on resume;
* the training log's byte offset (stored as ``telemetry_offset``), so
  a resumed run cuts half-written log tails instead of duplicating
  episodes;
* the fault config active during training, for manifest round-trips.

Writes go through :func:`repro.obs.jsonl.atomic_write`
(tmp file + fsync + ``os.replace``): a SIGKILL mid-save leaves the
previous checkpoint intact.  An interrupted run resumed from its latest
checkpoint reaches the same final validation score as an uninterrupted
run with the same seed — the property ``tests/test_checkpoint_resume``
proves with a real SIGKILLed subprocess.

Pickle-safety contract: every object type named here (the agents via
the :data:`repro.core.persistence._KINDS` registry,
:class:`~repro.sim.faults.FaultConfig`, :class:`LoadedCheckpoint`,
episode records) crosses serialization — and, for the multiprocessing
sweep runner, fork — boundaries, so none may capture open file
handles, locks, lambdas or generator iterators in instance
attributes.  ``tests/test_pickle_safety.py`` round-trips the real
objects, and with them every object they hold.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import persistence as _persist
from repro.sim.faults import FaultConfig

CHECKPOINT_VERSION = 1


@dataclass
class LoadedCheckpoint:
    """Everything :func:`load_checkpoint` recovers from disk."""

    agent: object               #: fully restored agent (incl. RNG stream)
    episodes: list[dict]        #: completed-episode records (JSON form)
    telemetry_offset: int       #: byte offset of the training log
    faults: FaultConfig | None  #: fault config active during training

    @property
    def episodes_done(self) -> int:
        """Number of episodes completed before the checkpoint."""
        return len(self.episodes)


def save_checkpoint(
    path: str | Path,
    agent,
    episodes: list[dict],
    telemetry_offset: int = 0,
    faults: FaultConfig | None = None,
) -> None:
    """Atomically write a resumable training checkpoint.

    ``episodes`` are JSON-serialisable records of completed episodes
    (the trainer passes ``dataclasses.asdict`` of its
    :class:`~repro.rl.trainer.EpisodeStats`).
    """
    meta = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "agent": _persist.agent_meta(agent),
        "episodes": episodes,
        "rng_state": _rng_state_json(agent.rng),
        "telemetry_offset": int(telemetry_offset),
        "faults": faults.as_dict() if faults is not None else None,
    }
    _persist.write_agent(path, agent, meta)


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Restore a training checkpoint written by :func:`save_checkpoint`.

    Raises :class:`repro.core.persistence.CheckpointError` with an
    actionable message on missing/truncated/corrupted files.
    """
    path = Path(path)
    try:
        with _persist.load_npz_checkpoint(path) as data:
            meta = json.loads(str(data["__meta__"]))
            version = meta.get("checkpoint_version")
            if version != CHECKPOINT_VERSION:
                raise _persist.CheckpointError(
                    f"unsupported training-checkpoint version {version!r} "
                    f"(this build reads {CHECKPOINT_VERSION})"
                )
            agent = _persist.restore_agent(meta["agent"], data)
            agent.rng.bit_generator.state = _rng_state_from_json(
                meta["rng_state"]
            )
            faults = None
            if meta.get("faults") is not None:
                faults = FaultConfig.from_dict(meta["faults"])
            return LoadedCheckpoint(
                agent=agent,
                episodes=list(meta["episodes"]),
                telemetry_offset=int(meta.get("telemetry_offset", 0)),
                faults=faults,
            )
    except _persist.CheckpointError:
        raise
    except (KeyError, json.JSONDecodeError, ValueError, EOFError) as exc:
        raise _persist.CheckpointError(
            f"training checkpoint {path} is incomplete or corrupted "
            f"({exc}); fall back to an earlier checkpoint or restart "
            "training"
        ) from exc


def _rng_state_json(rng: np.random.Generator) -> dict:
    """``bit_generator.state`` with numpy ints coerced to JSON-able types."""
    return json.loads(json.dumps(rng.bit_generator.state, default=int))


def _rng_state_from_json(state: dict) -> dict:
    """Inverse of :func:`_rng_state_json` (the setter accepts plain ints)."""
    return state


def episode_stats_from_json(records: list[dict]):
    """Rebuild :class:`~repro.rl.trainer.EpisodeStats` from JSON records.

    Imported lazily to keep this module free of a circular import with
    the trainer.
    """
    from repro.rl.trainer import EpisodeStats

    return [EpisodeStats(**{
        field.name: record[field.name]
        for field in dataclasses.fields(EpisodeStats)
    }) for record in records]
