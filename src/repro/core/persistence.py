"""Agent files: the one on-disk form of a DRAS/Decima agent.

:func:`save_agent` writes everything the agent is, so that
:func:`load_checkpoint` gives back the agent that was saved: it
schedules, frozen or learning online (§V-D), exactly as the saved one
would have.  One ``.npz`` holds

* the agent's kind and config (the JSON ``__meta__`` record);
* the weights and Adam ``t``/``m``/``v`` (arrays, in the network's
  dtype, cast to the rebuilt network's on load, so a file written by a
  float64 network loads by rounding);
* the PG baseline statistics or the DQL exploration rate (arrays);
* the RNG stream (``bit_generator.state``) and ``updates_done``
  (``__meta__``);
* the training record (``__meta__``): the completed episodes and the
  fault config.  A trainer's per-episode write (``repro train --out``)
  fills it; a plain :func:`save_agent` writes it empty.  Nothing
  about the training log is stored: ``train --resume`` cuts the log
  back to the episode count read from it
  (:class:`~repro.obs.live.SnapshotWriter`), so the file's bytes are a
  function of the seed whether or not the run was watched.

So ``repro simulate --agent`` replays the file that ``train --out``
writes and ``train --resume`` continues: there is one kind of agent file.

Durability contract
-------------------
Writes are *atomic*: :func:`repro.nn.serialize.savez` streams the
archive into :func:`repro.obs.jsonl.atomic_write`'s same-directory
temporary file, which is fsynced and moved into place with
:func:`os.replace`, so a crash mid-save can never leave a half-written
file under the final name.  Loads fail *loudly*: a missing, truncated,
corrupted or incomplete file raises :class:`CheckpointError` naming
what is wrong, never a bare ``zipfile``/``KeyError`` traceback.  A file
that does not hold the whole agent is refused, not completed from
defaults: a rebuilt RNG stream or counter would be a different agent.

Pickle-safety contract: every object type an agent file restores (the
agents of the :data:`repro.core.AGENTS` table,
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
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import AGENTS
from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.nn.serialize import savez
from repro.obs.jsonl import atomic_write
from repro.sim.faults import FaultConfig

FORMAT_VERSION = 1

#: every ``__meta__`` key a file must carry to restore the whole agent
_META_KEYS = ("format_version", "kind", "config", "rng_state",
              "updates_done", "episodes", "faults")

#: config keys older files carry, each at the one value the agent has
#: now; any other value names an agent this build cannot rebuild
_RETIRED_CONFIG = {"normalize_state": True, "greedy_eval": False}


class CheckpointError(ValueError):
    """An agent file is unreadable, truncated, or incomplete."""


@dataclass
class LoadedCheckpoint:
    """Everything :func:`load_checkpoint` recovers from disk."""

    agent: object               #: fully restored agent (incl. RNG stream)
    episodes: list[dict] = field(default_factory=list)  #: training record
    faults: FaultConfig | None = None  #: fault config active in training

    @property
    def episodes_done(self) -> int:
        """Number of episodes completed before the file was written."""
        return len(self.episodes)


def agent_kind(agent) -> str:
    """The agent's :data:`~repro.core.AGENTS` kind: its exact type's
    row, since ``DecimaPG`` subclasses ``DRASPG``."""
    for kind, cls in AGENTS.items():
        if type(agent) is cls:
            return kind
    raise TypeError(f"unsupported agent type {type(agent).__name__}")


def agent_arrays(agent) -> dict[str, np.ndarray]:
    """Every trainable array of an agent, keyed for the ``.npz``.

    The live arrays, for a writer that is done with them before the
    weights next change: unlike ``state_dict()``, nothing is lent
    read-only, so the next optimizer step still updates in place.
    """
    arrays: dict[str, np.ndarray] = {
        f"net.{k}": p.value
        for k, p in agent.network.named_parameters().items()
    }
    adam = agent.optimizer.state_dict()
    for i, (m, v) in enumerate(zip(adam["m"], adam["v"])):
        arrays[f"adam.m.{i}"] = m
        arrays[f"adam.v.{i}"] = v
    arrays["adam.t"] = np.array([adam["t"]], dtype=np.int64)
    if isinstance(agent, DRASPG):
        arrays["baseline.sums"] = agent.core.baseline._sums
        arrays["baseline.counts"] = agent.core.baseline._counts
    else:
        arrays["epsilon"] = np.array([agent.epsilon])
    return arrays


def save_agent(agent, path: str | Path, history=None,
               faults: FaultConfig | None = None) -> None:
    """Atomically write the complete state of a DRAS/Decima agent.

    ``history`` (a :class:`~repro.rl.trainer.TrainingHistory`) and
    ``faults`` are the training record a resumed run continues from;
    without them the record is empty.  A crash mid-save never corrupts
    an existing file at ``path``.
    """
    kind = agent_kind(agent)
    arrays = agent_arrays(agent)
    episodes = history.episodes if history is not None else ()
    arrays["__meta__"] = np.array(json.dumps({
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": dataclasses.asdict(agent.config),
        # numpy ints coerced to JSON; the setter takes them back as is
        "rng_state": agent.rng.bit_generator.state,
        "updates_done": agent.updates_done,
        "episodes": [dataclasses.asdict(e) for e in episodes],
        "faults": faults.as_dict() if faults is not None else None,
    }, default=int))
    with atomic_write(path, binary=True) as fh:
        savez(fh, arrays)


def load_agent(path: str | Path):
    """The agent :func:`save_agent` wrote to ``path`` (see
    :func:`load_checkpoint`)."""
    return load_checkpoint(path).agent


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Restore an agent file: the agent and its training record.

    Raises :class:`CheckpointError` with an actionable message when the
    file is missing, truncated, corrupted, or incomplete.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(
            f"checkpoint {path} does not exist; check the path or start "
            "from scratch"
        )
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable ({exc}); the file is likely "
            "truncated or corrupted — restore it from a backup or fall "
            "back to an earlier checkpoint"
        ) from exc
    try:
        with data:
            meta = json.loads(str(data["__meta__"]))
            missing = [k for k in _META_KEYS if k not in meta]
            if missing:
                raise CheckpointError(
                    f"checkpoint {path} is incomplete: it lacks "
                    f"{', '.join(missing)}, and the agent is not "
                    "restored without them"
                )
            return _restore(meta, data)
    except CheckpointError:
        raise
    except (KeyError, TypeError, json.JSONDecodeError, ValueError,
            EOFError, zipfile.BadZipFile, OSError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is incomplete or corrupted ({exc}); "
            "restore it from a backup or fall back to an earlier "
            "checkpoint"
        ) from exc


def _restore(meta: dict, data) -> LoadedCheckpoint:
    """Rebuild the agent and its record from ``__meta__`` + arrays."""
    if meta["format_version"] != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {meta['format_version']!r} "
            f"(this build reads version {FORMAT_VERSION}); re-save the "
            "agent with a matching version of the code"
        )
    kind = meta["kind"]
    try:
        cls = AGENTS[kind]
    except KeyError:
        raise CheckpointError(
            f"unknown agent kind {kind!r}; expected one of "
            f"{sorted(AGENTS)}"
        ) from None
    config = dict(meta["config"])
    for key, value in _RETIRED_CONFIG.items():
        saved = config.pop(key, value)
        if saved != value:
            raise CheckpointError(
                f"the agent was saved with {key}={saved!r}, which this "
                "build no longer supports")
    agent = cls(DRASConfig(**config))
    agent.network.load_state_dict(
        {k[len("net."):]: data[k] for k in data.files if k.startswith("net.")}
    )
    opt = agent.optimizer
    ids = range(len(opt.params))
    # generators: an .npz member is decompressed when read, none at t = 0
    opt.load_state_dict({"t": data["adam.t"][0],
                         "m": (data[f"adam.m.{i}"] for i in ids),
                         "v": (data[f"adam.v.{i}"] for i in ids)})
    if isinstance(agent, DRASPG):
        agent.core.baseline._sums = data["baseline.sums"].copy()
        agent.core.baseline._counts = data["baseline.counts"].copy()
    else:
        agent.epsilon = float(data["epsilon"][0])
    agent.rng.bit_generator.state = meta["rng_state"]
    agent.updates_done = int(meta["updates_done"])
    faults = meta["faults"]
    return LoadedCheckpoint(
        agent=agent,
        episodes=list(meta["episodes"]),
        faults=FaultConfig.from_dict(faults) if faults is not None else None,
    )
