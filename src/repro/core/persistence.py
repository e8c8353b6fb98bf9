"""Full agent checkpointing.

:func:`repro.nn.save_network` persists weights only; resuming
*training* (or redeploying an online-learning agent, §V-D) also needs
the optimizer moments, the PG baseline statistics and the DQL
exploration rate.  These helpers serialize the complete agent state to
a single ``.npz`` with a JSON metadata record, and rebuild the agent
from scratch on load.  Weights and Adam moments are stored in the
network's dtype and cast to the rebuilt network's on load, so a
checkpoint written by a float64 network loads by rounding.

Durability contract
-------------------
Writes are *atomic*: :func:`repro.nn.serialize.savez` streams the
archive into :func:`repro.obs.jsonl.atomic_write`'s same-directory
temporary file, which is fsynced and moved into place with
:func:`os.replace`, so a crash mid-save can never leave a half-written
file under the final name.  Loads fail *loudly*: any truncated,
corrupted or non-checkpoint file raises :class:`CheckpointError` with
an actionable message instead of surfacing a bare
``zipfile``/``KeyError`` traceback.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.core.config import DRASConfig
from repro.core.decima import DecimaPG
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.nn.serialize import savez
from repro.obs.jsonl import atomic_write

FORMAT_VERSION = 1

_KINDS = {"pg": DRASPG, "dql": DRASDQL, "decima": DecimaPG}


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, truncated, or inconsistent."""


def _kind_of(agent) -> str:
    for kind, cls in _KINDS.items():
        if type(agent) is cls:
            return kind
    raise TypeError(f"unsupported agent type {type(agent).__name__}")


def agent_meta(agent) -> dict:
    """JSON-serialisable identity of an agent (kind, name, config)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": _kind_of(agent),
        "name": agent.name,
        "config": dataclasses.asdict(agent.config),
    }


def agent_arrays(agent) -> dict[str, np.ndarray]:
    """Every trainable array of an agent, keyed for the ``.npz``.

    The live arrays, for a writer that is done with them before the
    weights next change: unlike ``state_dict()``, nothing is lent
    read-only, so the next optimizer step still updates in place.
    """
    kind = _kind_of(agent)
    arrays: dict[str, np.ndarray] = {
        f"net.{k}": p.value
        for k, p in agent.network.named_parameters().items()
    }
    adam = agent.optimizer.state_dict()
    for i, (m, v) in enumerate(zip(adam["m"], adam["v"])):
        arrays[f"adam.m.{i}"] = m
        arrays[f"adam.v.{i}"] = v
    arrays["adam.t"] = np.array([adam["t"]], dtype=np.int64)
    if kind in ("pg", "decima"):
        arrays["baseline.sums"] = agent.core.baseline._sums
        arrays["baseline.counts"] = agent.core.baseline._counts
    if kind == "dql":
        arrays["epsilon"] = np.array([agent.epsilon])
    return arrays


def restore_agent(meta: dict, data) -> object:
    """Rebuild an agent from :func:`agent_meta` + loaded arrays."""
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {meta.get('format_version')!r} "
            f"(this build reads version {FORMAT_VERSION}); re-save the "
            "agent with a matching version of the code"
        )
    kind = meta["kind"]
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise CheckpointError(
            f"unknown agent kind {kind!r}; expected one of "
            f"{sorted(_KINDS)}"
        ) from None
    config = DRASConfig(**meta["config"])
    agent = cls(config)
    agent.network.load_state_dict(
        {k[len("net."):]: data[k] for k in data.files if k.startswith("net.")}
    )
    opt = agent.optimizer
    ids = range(len(opt.params))
    # generators: an .npz member is decompressed when read, none at t = 0
    opt.load_state_dict({"t": data["adam.t"][0],
                         "m": (data[f"adam.m.{i}"] for i in ids),
                         "v": (data[f"adam.v.{i}"] for i in ids)})
    if kind in ("pg", "decima"):
        agent.core.baseline._sums = data["baseline.sums"].copy()
        agent.core.baseline._counts = data["baseline.counts"].copy()
    if kind == "dql":
        agent.epsilon = float(data["epsilon"][0])
    return agent


def load_npz_checkpoint(path: str | Path):
    """Open an ``.npz`` checkpoint, translating corruption to loud errors.

    Returns the ``NpzFile`` context manager.  Raises
    :class:`CheckpointError` when the file is missing, truncated, or
    not a valid archive.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(
            f"checkpoint {path} does not exist; check the path or start "
            "from scratch"
        )
    try:
        return np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable ({exc}); the file is likely "
            "truncated or corrupted — restore it from a backup or fall "
            "back to an earlier checkpoint"
        ) from exc


def save_agent(agent, path: str | Path) -> None:
    """Write the complete trainable state of a DRAS/Decima agent.

    The write is atomic: a crash mid-save never corrupts an existing
    checkpoint at ``path``.
    """
    write_agent(path, agent, agent_meta(agent))


def write_agent(path: str | Path, agent, meta: dict) -> None:
    """Atomically write :func:`agent_arrays` plus the JSON ``meta`` record."""
    arrays = agent_arrays(agent)
    arrays["__meta__"] = np.array(json.dumps(meta))
    with atomic_write(path, binary=True) as fh:
        savez(fh, arrays)


def load_agent(path: str | Path):
    """Rebuild an agent (including optimizer/exploration state).

    Raises :class:`CheckpointError` with an actionable message when the
    file is missing, truncated, corrupted, or incomplete.
    """
    path = Path(path)
    try:
        with load_npz_checkpoint(path) as data:
            meta = json.loads(str(data["__meta__"]))
            return restore_agent(meta, data)
    except CheckpointError:
        raise
    except (KeyError, json.JSONDecodeError, ValueError, EOFError,
            zipfile.BadZipFile, OSError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is incomplete or corrupted ({exc}); "
            "restore it from a backup or fall back to an earlier "
            "checkpoint"
        ) from exc
