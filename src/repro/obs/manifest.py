"""Run manifests: what produced this result file, exactly.

A :class:`RunManifest` is a small JSON document capturing everything
needed to re-run (or distrust) an experiment or training run: the run
kind, the seed, the git commit, the configuration knobs, the
workload-model parameters and a summary-metrics block.

Determinism contract: two manifests created from identical inputs are
identical except for the fields named in :data:`VOLATILE_FIELDS`
(currently the creation timestamp).  :meth:`RunManifest.stable_digest`
hashes the canonical JSON with those fields removed, so a digest
mismatch always means the *inputs* changed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.jsonl import atomic_write, sha256_hex

#: schema tag stamped into every manifest
MANIFEST_SCHEMA = "repro.manifest/v1"

#: manifest fields excluded from :meth:`RunManifest.stable_digest` and
#: from determinism comparisons (they legitimately differ between runs
#: of the same inputs)
VOLATILE_FIELDS = frozenset({"created_unix"})


def git_sha() -> str:
    """The current directory's git commit (short SHA), or ``"unknown"``.

    Never raises: missing ``git``, a non-repo directory and a detached
    environment all degrade to the sentinel so manifests can always be
    written.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def describe_workload(model: Any) -> dict[str, Any]:
    """Manifest-friendly parameter summary of a workload model.

    Accepts a :class:`~repro.workload.models.WorkloadModel` (or anything
    shaped like one) and extracts the identifying scalars; unknown
    attributes are simply omitted, so the helper never raises on model
    variants.
    """
    out: dict[str, Any] = {}
    for attr in ("name", "num_nodes", "priority_threshold", "dependency_prob"):
        value = getattr(model, attr, None)
        if value is not None:
            out[attr] = value
    offered = getattr(model, "offered_load", None)
    if callable(offered):
        try:
            out["offered_load"] = float(offered())
        except (TypeError, ValueError, ZeroDivisionError):
            pass  # model variant without a computable load; omit the key
    return out


def _jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into JSON-serializable plain types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item) and not isinstance(value, (str, bytes)):
        try:
            return item()
        except (TypeError, ValueError):
            pass  # not a zero-d array after all; fall through to repr
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one experiment/simulation/training run.

    Parameters
    ----------
    kind:
        What produced this manifest (``"simulate"``, ``"train"``,
        ``"reproduce"``).
    seed:
        The run's root seed (``None`` when the run takes no seed).
    git_sha:
        Short commit SHA of the working tree, or ``"unknown"``.
    config:
        Configuration knobs (CLI arguments, ``DRASConfig`` fields, ...).
    workload:
        Workload-model parameters (see :func:`describe_workload`).
    summary:
        Headline result metrics of the run.
    created_unix:
        Wall-clock creation time (unix seconds), or ``None`` for fully
        deterministic manifests.  Excluded from :meth:`stable_digest`.
    """

    kind: str
    seed: int | None
    git_sha: str
    config: dict[str, Any]
    workload: dict[str, Any]
    summary: dict[str, Any]
    created_unix: float | None
    schema: str = MANIFEST_SCHEMA

    @classmethod
    def create(
        cls,
        kind: str,
        seed: int | None = None,
        config: dict[str, Any] | None = None,
        workload: dict[str, Any] | None = None,
        summary: dict[str, Any] | None = None,
        timestamp: bool = True,
        sha: str | None = None,
    ) -> "RunManifest":
        """Build a manifest, filling in the git SHA and timestamp.

        ``timestamp=False`` omits the wall-clock field for byte-identical
        reruns; ``sha`` overrides git discovery (used in tests).
        """
        if timestamp:
            # Provenance metadata only: the timestamp records *when* the
            # artifact was produced and never flows into simulation
            # state; VOLATILE_FIELDS excludes it from digests.
            created: float | None = time.time()
        else:
            created = None
        return cls(
            kind=kind,
            seed=seed,
            git_sha=sha if sha is not None else git_sha(),
            config=_jsonable(config or {}),
            workload=_jsonable(workload or {}),
            summary=_jsonable(summary or {}),
            created_unix=created,
        )

    def as_dict(self) -> dict[str, Any]:
        """The manifest as a plain JSON-ready dict."""
        return {
            "schema": self.schema,
            "kind": self.kind,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "config": self.config,
            "workload": self.workload,
            "summary": self.summary,
            "created_unix": self.created_unix,
        }

    def stable_digest(self) -> str:
        """SHA-256 over the canonical JSON, minus volatile fields.

        Two runs of the same code on the same inputs produce the same
        digest even though their timestamps differ.
        """
        return sha256_hex({k: v for k, v in self.as_dict().items()
                           if k not in VOLATILE_FIELDS})

    def write(self, path: str | Path) -> Path:
        """Atomically write pretty-printed manifest JSON; returns the path."""
        with atomic_write(path) as fh:
            fh.write(json.dumps(self.as_dict(), indent=2, sort_keys=True)
                     + "\n")
        return Path(path)

    @staticmethod
    def read(path: str | Path) -> "RunManifest":
        """Load a manifest previously written with :meth:`write`."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != MANIFEST_SCHEMA:
            raise ValueError(f"{path}: unknown manifest schema {schema!r}")
        if "kind" not in doc:
            raise ValueError(f"{path}: manifest names no kind")
        return RunManifest(
            kind=doc["kind"],
            seed=doc.get("seed"),
            git_sha=doc.get("git_sha", "unknown"),
            config=doc.get("config", {}),
            workload=doc.get("workload", {}),
            summary=doc.get("summary", {}),
            created_unix=doc.get("created_unix"),
        )
