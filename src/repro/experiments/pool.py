"""Fault-tolerant parallel sweep orchestration.

Every experiment grid in this reproduction — the paper's figure/table
matrix, the faultsweep MTBF grids, parameter sensitivity studies —
expands to a set of independent *cells*.  This module runs those cells
on N worker processes and survives every failure mode we can inject:

* **worker exceptions** are retried with bounded attempts and capped
  exponential backoff, then *quarantined* (recorded with their
  traceback) so the sweep completes with partial results instead of
  aborting;
* **hung cells** are killed by a parent-side per-cell wall-clock
  timeout (on top of the engine's own ``max_wall_s`` runaway guard)
  and retried like any other failure;
* **crashed workers** (segfault, OOM kill, injected ``SIGKILL``) are
  detected through their broken pipe, replaced, and their in-flight
  cell is retried;
* **a killed parent** loses nothing: results land in crash-durable
  per-worker JSONL shards (append + flush per cell), so a re-run with
  ``resume=True`` skips completed cells and converges to the same
  merged rollup.

Determinism contract
--------------------
The per-cell seed is ``SHA-256(sweep_seed | cell key)`` — a pure
function of the sweep spec, independent of execution order, worker
count, retry schedule and crash/resume history.  Cell records carry a
:class:`~repro.obs.manifest.RunManifest` ``stable_digest`` and the
merged rollup is canonical JSON over the *sorted* cell set, so::

    same sweep spec  =>  byte-identical rollup

regardless of how (or how often) the sweep was executed.  That worker
entry points consume only derived-seed RNGs and no ambient state is
checked by running one: ``tests/test_ambient_perturbation.py`` runs a
cell on a pool worker under a perturbed global RNG, clock, hash seed
and environment and compares ``results_digest``.

The sweep kinds are the fixed set :data:`SWEEP_KINDS`: ``experiments``
(the paper's table/figure matrix, :mod:`repro.experiments.runner`),
``faultsweep`` (schedulers x MTBF grid,
:mod:`repro.experiments.faultsweep`) and ``selftest`` (deterministic
payload cells with injectable crash/hang/failure, used by the test
suite and the CI smoke job).  :func:`expand_cells` and
:func:`_execute_cell` dispatch on the kind's name with plain calls.
The CLI front end is ``repro sweep``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.experiments import faultsweep, runner
from repro.obs import live as _live
from repro.obs.jsonl import (
    JsonlWriter,
    atomic_write,
    canonical_json,
    read_jsonl,
    sha256_hex,
)
from repro.obs.manifest import RunManifest

#: schema tag of sweep stores (spec file, shard lines)
SWEEP_SCHEMA = "repro.sweep/v1"

#: schema tag of the merged rollup document
ROLLUP_SCHEMA = "repro.sweep-rollup/v1"

#: the sweep kinds, dispatched by name in :func:`expand_cells` and
#: :func:`_execute_cell`
SWEEP_KINDS = ("experiments", "faultsweep", "selftest")

#: default bounded-retry budget: one initial attempt plus two retries
DEFAULT_RETRIES = 2

#: default base of the capped exponential retry backoff, seconds
DEFAULT_BACKOFF_S = 0.25

#: cap on the exponential retry backoff, seconds
MAX_BACKOFF_S = 30.0

#: shard-record fields that legitimately differ between executions of
#: the same sweep (which worker ran the cell, on which attempt) and are
#: therefore stripped before a record enters the merged rollup
VOLATILE_RECORD_FIELDS = frozenset({
    "worker", "attempt", "attempts", "error", "error_tb",
})


class SweepError(RuntimeError):
    """A sweep could not be orchestrated (bad spec, store mismatch)."""


# -- spec and cell identity ----------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """What to sweep — the *identity* of a sweep, minus execution knobs.

    Parameters
    ----------
    kind:
        One of :data:`SWEEP_KINDS`.
    scale:
        Experiment scale forwarded to the kind (``tiny`` | ``default``
        | ``paper``).
    seed:
        The sweep's root seed; every cell derives its own seed from it
        (see :func:`derive_cell_seed`).
    params:
        Kind-specific knobs (JSON-able scalars/lists/dicts only).
    timeout_s:
        Parent-side wall-clock budget per cell *attempt*; a cell still
        running after this long is killed and retried.  ``0`` disables
        the parent-side timeout (the engine's ``max_wall_s`` guard
        still applies inside kinds that wire it).
    retries:
        Bounded retry budget: a cell gets ``1 + retries`` attempts
        before it is quarantined.
    backoff_s:
        Base of the capped exponential backoff between attempts
        (``backoff_s * 2**(attempt-1)``, capped at
        :data:`MAX_BACKOFF_S`).  ``0`` retries immediately.

    ``retries`` and ``backoff_s`` are execution policy, not identity:
    they never change what a *deterministic* cell produces, so they are
    excluded from :meth:`identity` / :meth:`digest`.  ``timeout_s`` can
    change an outcome (a slow cell is quarantined instead of finishing)
    and is part of the identity.
    """

    kind: str
    scale: str = "tiny"
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout_s: float = 0.0
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise SweepError(
                f"unknown sweep kind {self.kind!r}; "
                f"available: {', '.join(SWEEP_KINDS)}"
            )
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        for name in ("timeout_s", "backoff_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise SweepError(f"{name} must be finite and >= 0, "
                                 f"got {value}")

    def identity(self) -> dict[str, Any]:
        """The JSON identity document hashed into :meth:`digest`."""
        return {
            "schema": SWEEP_SCHEMA,
            "kind": self.kind,
            "scale": self.scale,
            "seed": self.seed,
            "params": _jsonable_params(self.params),
            "timeout_s": self.timeout_s,
        }

    def digest(self) -> str:
        """SHA-256 of the canonical identity JSON."""
        return sha256_hex(self.identity())


def _jsonable_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Round-trip ``params`` through JSON so tuples/np scalars canonicalise."""
    return json.loads(json.dumps(dict(params), sort_keys=True,
                                 default=_json_fallback))


def _json_fallback(value: Any) -> Any:
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"sweep params must be JSON-able, got {type(value)!r}")


def cell_key(cell: Mapping[str, Any]) -> str:
    """Canonical string identity of one cell's parameter dict."""
    return canonical_json(cell)


def derive_cell_seed(sweep_seed: int, key: str) -> int:
    """Deterministic 64-bit child seed for one cell.

    ``SHA-256(sweep_seed | cell key)`` truncated to 8 bytes: a pure
    function of the sweep seed and the cell's canonical identity, so
    the same cell gets the same seed no matter which worker runs it,
    in what order, or on which attempt.
    """
    digest = hashlib.sha256(f"{sweep_seed}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# -- sweep kinds ---------------------------------------------------------------

def _selftest_cells(spec: SweepSpec) -> list[dict[str, Any]]:
    n = int(spec.params.get("cells", 8))
    if n < 1:
        raise SweepError(f"selftest needs at least one cell, got {n}")
    return [{"i": i} for i in range(n)]


def _selftest_run_cell(spec: SweepSpec, cell: Mapping[str, Any],
                       derived_seed: int, attempt: int) -> dict[str, Any]:
    """Deterministic payload cell with injectable failure modes.

    ``params`` knobs: ``crash_once`` / ``hang_once`` — cell indices
    whose *first* attempt SIGKILLs its worker / hangs until the parent
    timeout kills it (both succeed on retry, so the rollup is identical
    to an uninjected run); ``fail`` — indices that raise on every
    attempt and end up quarantined; ``sleep_s`` — per-cell work
    duration.  The payload is drawn from the derived-seed RNG, proving
    seed derivation end to end.
    """
    params = spec.params
    index = int(cell["i"])
    if attempt == 1 and index in set(params.get("crash_once", ())):
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt == 1 and index in set(params.get("hang_once", ())):
        while True:  # parent-side timeout reaps this attempt
            time.sleep(0.05)
    if index in set(params.get("fail", ())):
        raise RuntimeError(f"injected failure in cell {index}")
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s:
        time.sleep(sleep_s)
    rng = np.random.default_rng(derived_seed)
    values = [round(float(v), 12) for v in rng.random(8)]
    return {"i": index, "values": values,
            "total": round(float(sum(values)), 12)}


def expand_cells(spec: SweepSpec) -> list[dict[str, Any]]:
    """The spec's cell list, in canonical (definition) order."""
    if spec.kind == "experiments":
        cells = runner.sweep_cells(spec)
    elif spec.kind == "faultsweep":
        cells = faultsweep.sweep_cells(spec)
    else:
        cells = _selftest_cells(spec)
    keys = [cell_key(c) for c in cells]
    if len(set(keys)) != len(keys):
        raise SweepError(f"sweep {spec.kind!r} expanded to duplicate cells")
    return cells


# -- the crash-durable store ---------------------------------------------------

@dataclass
class StoreScan:
    """What a shard scan found: completed cells, quarantines, damage."""

    #: key -> normalised (non-volatile) cell record, ``status == "ok"``
    completed: dict[str, dict[str, Any]]
    #: key -> normalised quarantine record (superseded by ``completed``)
    quarantined: dict[str, dict[str, Any]]
    #: keys whose duplicate records disagree (should never happen for a
    #: deterministic sweep; surfaced rather than silently resolved)
    conflicts: list[dict[str, Any]]
    #: unparseable shard lines (torn tails after a crash), total
    skipped: int
    #: shard files read
    shards: int


class ShardWriter(JsonlWriter):
    """Append-only JSONL shard: one header, one flushed line per record.

    ``flush()`` after every record pushes the line into the kernel, so
    a ``SIGKILL`` of the writing process (worker *or* parent) loses at
    most the line being written — which the lenient scanner skips.
    """

    def __init__(self, path: "str | os.PathLike[str]", sweep_digest: str,
                 source: str) -> None:
        self.source = source
        super().__init__(path, SWEEP_SCHEMA,
                         {"sweep": sweep_digest, "source": source})

    def append(self, record: Mapping[str, Any]) -> None:
        """Durably append one cell/quarantine record."""
        if self.closed:
            raise SweepError(f"shard {self.path} is closed")
        self.write(record)


class SweepStore:
    """One sweep's on-disk state: ``spec.json``, shards, rollup.

    Layout::

        <root>/spec.json                   # identity of the sweep
        <root>/shards/g0001.w0.jsonl       # per-worker, per-generation
        <root>/shards/g0002.parent.jsonl   # parent quarantine records
        <root>/rollup.json                 # merged, order-independent

    A *generation* is one ``run_sweep`` invocation; resume scans every
    shard of every generation.  Shard files are never reopened or
    rewritten — each worker (including respawns) gets a fresh file —
    so a crash can only ever tear the final line of one shard.
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)

    @property
    def shards_dir(self) -> Path:
        """Directory holding every generation's shard files."""
        return self.root / "shards"

    @property
    def spec_path(self) -> Path:
        """Path of the sweep-identity document."""
        return self.root / "spec.json"

    @property
    def rollup_path(self) -> Path:
        """Path of the merged rollup document."""
        return self.root / "rollup.json"

    def shard_paths(self) -> list[Path]:
        """Every shard file, sorted by basename (order-independent)."""
        if not self.shards_dir.is_dir():
            return []
        return sorted(self.shards_dir.glob("*.jsonl"),
                      key=lambda p: p.name)

    def initialise(self, spec: SweepSpec, resume: bool) -> None:
        """Bind the store to ``spec``; guard against mixing sweeps.

        A fresh directory is stamped with the spec identity.  An
        existing store must carry the *same* identity digest, and —
        when it already holds shards — requires ``resume=True`` so a
        stale store is never extended by accident.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards_dir.mkdir(exist_ok=True)
        if self.spec_path.exists():
            existing = json.loads(self.spec_path.read_text(encoding="utf-8"))
            if existing != spec.identity():
                raise SweepError(
                    f"store {self.root} belongs to a different sweep "
                    f"(its spec.json does not match this spec); "
                    "use a fresh --store directory"
                )
            if self.shard_paths() and not resume:
                raise SweepError(
                    f"store {self.root} already holds shards; pass "
                    "resume=True (--resume) to continue it or use a "
                    "fresh --store directory"
                )
        else:
            if self.shard_paths():
                raise SweepError(
                    f"store {self.root} holds shards but no spec.json; "
                    "refusing to guess — use a fresh --store directory"
                )
            with atomic_write(self.spec_path) as fh:
                fh.write(json.dumps(spec.identity(), indent=2,
                                    sort_keys=True) + "\n")

    def generation(self) -> int:
        """1 + the highest generation number any existing shard carries."""
        latest = 0
        for path in self.shard_paths():
            name = path.name
            if name.startswith("g") and "." in name:
                head = name[1:].split(".", 1)[0]
                if head.isdigit():
                    latest = max(latest, int(head))
        return latest + 1

    def shard_path(self, generation: int, label: str) -> Path:
        """Path of a new shard for ``label`` in ``generation``."""
        return self.shards_dir / f"g{generation:04d}.{label}.jsonl"

    def open_shard(self, generation: int, label: str,
                   sweep_digest: str) -> ShardWriter:
        """Open a fresh shard writer (fails if the file already exists)."""
        path = self.shard_path(generation, label)
        if path.exists():
            raise SweepError(f"shard {path} already exists")
        return ShardWriter(path, sweep_digest, source=label)

    def scan(self) -> StoreScan:
        """Leniently read every shard and fold records by cell key.

        Unparseable lines (the torn tail a ``kill -9`` can leave) are
        counted and skipped.  Duplicate records for one key — a cell
        re-run because its ``done`` message beat the crash but the
        resume scan didn't see it, or overlapping generations — must
        agree once volatile fields are stripped; disagreement lands in
        ``conflicts``.  A completed record supersedes any quarantine
        record for the same key (quarantined cells are retried on
        resume and may succeed).
        """
        completed: dict[str, dict[str, Any]] = {}
        quarantined: dict[str, dict[str, Any]] = {}
        conflicts: dict[str, set[str]] = {}
        skipped = 0
        shards = 0
        for path in self.shard_paths():
            shards += 1
            docs, damaged = read_jsonl(path)
            skipped += len(damaged)
            for doc in docs:
                key = doc.get("key")
                kind = doc.get("type")
                if kind == "meta":
                    continue
                if not isinstance(key, str) or kind not in (
                        "cell", "quarantine"):
                    skipped += 1
                    continue
                normalised = normalise_record(doc)
                bucket = completed if kind == "cell" else quarantined
                previous = bucket.get(key)
                if previous is None:
                    bucket[key] = normalised
                elif previous != normalised:
                    conflicts.setdefault(key, set()).update(
                        (canonical_json(previous), canonical_json(normalised)))
        conflict_rows = [
            {"key": key, "records": sorted(variants)}
            for key, variants in sorted(conflicts.items())
        ]
        return StoreScan(completed=completed, quarantined=quarantined,
                         conflicts=conflict_rows, skipped=skipped,
                         shards=shards)


def normalise_record(record: Mapping[str, Any]) -> dict[str, Any]:
    """A record with volatile (execution-history) fields stripped."""
    return {k: v for k, v in record.items()
            if k not in VOLATILE_RECORD_FIELDS}


def cell_manifest(spec: SweepSpec, cell: Mapping[str, Any],
                  derived_seed: int, summary: Mapping[str, Any]) -> RunManifest:
    """The deterministic provenance manifest of one completed cell.

    ``timestamp=False`` and a fixed ``sha`` keep the manifest — and so
    its ``stable_digest`` and the rollup bytes — a pure function of
    (spec, cell, summary), independent of when and where the cell ran.
    """
    return RunManifest.create(
        kind="sweep-cell",
        seed=derived_seed,
        config={"sweep": spec.identity(), "cell": dict(cell)},
        summary=dict(summary),
        timestamp=False,
        sha="-",
    )


def merge_store(store: "SweepStore | str | os.PathLike[str]",
                total: int | None = None) -> dict[str, Any]:
    """Fold every shard into one deterministic rollup document.

    Order-independent: records are keyed and emitted in sorted-key
    order and the canonical JSON has sorted keys, so the same set of
    shard *records* yields byte-identical rollup JSON no matter how
    the work was distributed, interrupted, or resumed.
    """
    if not isinstance(store, SweepStore):
        store = SweepStore(store)
    spec_doc = None
    if store.spec_path.exists():
        spec_doc = json.loads(store.spec_path.read_text(encoding="utf-8"))
    scan = store.scan()
    cells = [scan.completed[key] for key in sorted(scan.completed)]
    quarantined = [scan.quarantined[key] for key in sorted(scan.quarantined)
                   if key not in scan.completed]
    rollup: dict[str, Any] = {
        "schema": ROLLUP_SCHEMA,
        "sweep": spec_doc,
        "cells": cells,
        "quarantined": quarantined,
        "completed": len(cells),
        "conflicts": scan.conflicts,
    }
    if total is not None:
        rollup["total"] = total
    return rollup


def rollup_digest(rollup: Mapping[str, Any]) -> str:
    """SHA-256 over the rollup's canonical JSON bytes."""
    return sha256_hex(rollup)


#: the per-record fields :func:`results_digest` hashes — what a cell
#: *produced*, not how the sweep was configured to produce it
RESULT_FIELDS = ("key", "cell", "derived_seed", "status", "summary",
                 "error_type")


def results_digest(rollup: Mapping[str, Any]) -> str:
    """SHA-256 over the result payloads only, excluding sweep identity.

    :func:`rollup_digest` covers the whole document, so it can only
    compare executions of the *same* spec (its identity is embedded in
    the rollup and in every cell manifest).  This digest strips that
    identity down to what the cells actually produced, so two sweeps
    whose specs differ only in ways that must not affect results — the
    failure-injection knobs of the ``selftest`` kind, a different
    ``timeout_s`` that never fired — can be proven to converge.
    """
    def strip(record: Mapping[str, Any]) -> dict[str, Any]:
        return {k: record[k] for k in RESULT_FIELDS if k in record}

    return sha256_hex({
        "cells": [strip(r) for r in rollup.get("cells", ())],
        "quarantined": [strip(r) for r in rollup.get("quarantined", ())],
    })


def write_rollup(store: SweepStore, rollup: Mapping[str, Any]) -> Path:
    """Atomically write ``rollup.json`` (:func:`atomic_write`); returns it."""
    with atomic_write(store.rollup_path) as fh:
        fh.write(json.dumps(rollup, indent=2, sort_keys=True) + "\n")
    return store.rollup_path


# -- cell execution (shared by workers and the inline path) --------------------

def _execute_cell(spec: SweepSpec, cell: Mapping[str, Any],
                  derived_seed: int, attempt: int) -> dict[str, Any]:
    """Run one cell attempt and build its durable shard record.

    This is the pool's worker-side entry point into experiment code
    (with :func:`_worker_main` around it in the parallel path).
    Nothing reachable from here may consume ambient RNG state, the
    wall clock, or the process environment;
    ``tests/test_ambient_perturbation.py`` perturbs all three around a
    pool worker and compares the cell's ``results_digest``.
    """
    cell = dict(cell)
    if spec.kind == "experiments":
        summary = runner.run_sweep_cell(spec, cell, derived_seed, attempt)
    elif spec.kind == "faultsweep":
        summary = faultsweep.run_sweep_cell(spec, cell, derived_seed, attempt)
    else:
        summary = _selftest_run_cell(spec, cell, derived_seed, attempt)
    manifest = cell_manifest(spec, cell, derived_seed, summary)
    return {
        "type": "cell",
        "schema": SWEEP_SCHEMA,
        "key": cell_key(cell),
        "cell": dict(cell),
        "derived_seed": derived_seed,
        "status": "ok",
        "summary": dict(summary),
        "manifest": manifest.as_dict(),
        "digest": manifest.stable_digest(),
    }


def _quarantine_record(spec: SweepSpec, cell: Mapping[str, Any],
                       derived_seed: int, error_type: str, error: str,
                       error_tb: str, attempts: int) -> dict[str, Any]:
    """The durable record of a cell that failed all its attempts.

    Only the *type* of the failure enters the non-volatile payload:
    messages and tracebacks can embed measured wall times (an engine
    runaway diagnostic, a timeout duration) that would break rollup
    byte-parity, so they ride in volatile fields instead.
    """
    return {
        "type": "quarantine",
        "schema": SWEEP_SCHEMA,
        "key": cell_key(cell),
        "cell": dict(cell),
        "derived_seed": derived_seed,
        "status": "quarantined",
        "error_type": error_type,
        # volatile diagnostics (stripped from the rollup):
        "error": error,
        "error_tb": error_tb,
        "attempts": attempts,
    }


def _live_fields(cell: Mapping[str, Any],
                 summary: Mapping[str, Any] | None) -> dict[str, Any]:
    """Flat scalar fields worth echoing into live sweep snapshots."""
    fields: dict[str, Any] = {}
    for source in (cell, summary or {}):
        for key in ("policy", "mtbf", "exp", "i"):
            value = source.get(key)
            if isinstance(value, (str, int, float)):
                fields[key] = value
    metrics = (summary or {}).get("metrics")
    if isinstance(metrics, Mapping):
        for key in ("utilization", "avg_wait"):
            value = metrics.get(key)
            if isinstance(value, (int, float)):
                fields[key] = value
    return fields


def _attempt(spec: SweepSpec, writer: ShardWriter, label: str,
             cell: Mapping[str, Any], derived_seed: int,
             attempt: int) -> tuple:
    """Run one cell attempt; durably append a success to ``writer``.

    Returns the outcome as the wire message a worker sends its parent:
    ``("done", live fields)`` or ``("failed", error type, message,
    traceback)``.  The parent settles both the same way whether the
    attempt ran in a worker or inline.
    """
    try:
        record = _execute_cell(spec, cell, derived_seed, attempt)
    except Exception as exc:
        return ("failed", type(exc).__name__, str(exc),
                traceback.format_exc())
    record["worker"] = label
    record["attempt"] = attempt
    writer.append(record)
    return ("done", _live_fields(cell, record["summary"]))


# -- worker process ------------------------------------------------------------

def _worker_main(conn: Any, spec: SweepSpec,
                 shard_path: "str | os.PathLike[str]", label: str) -> None:
    """Worker loop: recv task, run an :func:`_attempt`, send its outcome.

    First resets the process-global observability state inherited
    across ``fork`` (progress sinks, tracer/profiler file handles must
    not be shared with the parent), then installs a private live bus
    whose only sink forwards snapshots to the parent for aggregation.
    A dead parent ends the loop: either as a broken pipe, or — when a
    sibling worker forked after this one still holds an inherited copy
    of the pipe's parent end, so no EOF can arrive — as a change of
    ``os.getppid()`` (a ``SIGKILL``-ed parent reparents this process).
    An orphaned worker therefore never outlives its parent by more
    than its in-flight cell plus one poll interval.
    """
    from repro.obs.profile import set_global_profiler
    from repro.obs.trace import set_global_tracer

    _live.set_global_live_bus(None)
    set_global_tracer(None)
    set_global_profiler(None)
    bus = _live.LiveBus()
    bus.attach(_live.ConnectionSink(conn))
    _live.set_global_live_bus(bus)
    writer = ShardWriter(shard_path, spec.digest(), source=label)
    parent_pid = os.getppid()
    try:
        while True:
            try:
                while not conn.poll(0.5):
                    if os.getppid() != parent_pid:
                        return  # parent SIGKILLed; we were reparented
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent gone
            if message[0] == "stop":
                break
            _, index, cell, derived_seed, attempt = message
            bus.publish("cell", {
                "worker": label, "cell": index, "attempt": attempt,
                **_live_fields(cell, None),
            })
            outcome = _attempt(spec, writer, label, cell, derived_seed,
                               attempt)
            try:
                conn.send(outcome)
            except (OSError, ValueError):
                break
    finally:
        writer.close()
        conn.close()


# -- the orchestrator ----------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Outcome of one ``run_sweep`` invocation."""

    spec: SweepSpec
    store: Path
    total: int
    #: cells completed by *this* invocation
    ran: int
    #: cells skipped because a previous generation completed them
    resumed: int
    #: cell key -> human-readable failure reason (this invocation)
    quarantined: dict[str, str]
    rollup: dict[str, Any]
    rollup_path: Path
    digest: str

    @property
    def completed(self) -> int:
        """Cells with an ``ok`` record in the merged rollup."""
        return int(self.rollup.get("completed", 0))


@dataclass
class _Task:
    """Parent-side state of one unsettled cell and its next attempt."""

    index: int
    key: str
    cell: dict[str, Any]
    derived_seed: int
    attempt: int = 1
    eligible_at: float = 0.0


class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(self, ctx: Any, spec: SweepSpec, store: SweepStore,
                 generation: int, slot: int, spawn_seq: int) -> None:
        self.slot = slot
        self.label = f"w{slot}" if spawn_seq == 0 else f"w{slot}r{spawn_seq}"
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        shard = store.shard_path(generation, self.label)
        if shard.exists():
            raise SweepError(f"shard {shard} already exists")
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, spec, os.fspath(shard), self.label),
            name=f"repro-sweep-{self.label}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.running: _Task | None = None
        self.deadline: float | None = None

    def kill(self) -> None:
        """Forcibly terminate the worker process and reap it."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Ask the worker to exit cleanly; escalate if it doesn't."""
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        self.kill()


def run_sweep(
    spec: SweepSpec,
    store: "SweepStore | str | os.PathLike[str]",
    workers: int = 0,
    resume: bool = False,
    live: "_live.LiveBus | None" = None,
) -> SweepResult:
    """Run (or resume) a sweep; returns the merged, digested outcome.

    ``workers=0`` runs every cell inline in this process (the serial
    reference path — no subprocesses, so crash/hang injection and the
    parent-side timeout don't apply; the engine ``max_wall_s`` guard
    inside cells still does).  ``workers>=1`` runs cells on that many
    worker processes with the full failure handling described in the
    module docstring.

    ``resume=True`` scans the store first and skips cells a previous
    generation completed; quarantined cells are retried with a fresh
    attempt budget.  The merged rollup is written to
    ``<store>/rollup.json`` either way, and its bytes depend only on
    the sweep spec (plus which cells deterministically fail) — never
    on ``workers``, the retry schedule, or the crash/resume history.
    """
    if workers < 0:
        raise SweepError(f"workers must be >= 0, got {workers}")
    if not isinstance(store, SweepStore):
        store = SweepStore(store)
    store.initialise(spec, resume=resume)
    cells = expand_cells(spec)
    keys = [cell_key(c) for c in cells]
    total = len(cells)
    done_keys: set[str] = set()
    if resume:
        done_keys = set(store.scan().completed) & set(keys)
    pending = [
        _Task(index=i, key=keys[i], cell=dict(cells[i]),
              derived_seed=derive_cell_seed(spec.seed, keys[i]))
        for i in range(total) if keys[i] not in done_keys
    ]
    if live is None:
        live = _live.global_live_bus()
    generation = store.generation()
    quarantined: dict[str, str] = {}
    queue = list(pending)  # unsettled tasks waiting for their next attempt
    resolved = len(done_keys)

    def settle(task: _Task, outcome: tuple) -> None:
        """Count and publish a success, re-queue a failure with backoff,
        or quarantine it into ``shard`` once its attempts are spent."""
        nonlocal resolved
        if outcome[0] == "failed" and task.attempt <= spec.retries:
            task.eligible_at = time.perf_counter() + _backoff_s(
                spec, task.attempt)
            task.attempt += 1
            queue.append(task)
            return
        if outcome[0] == "done":
            fields = outcome[1]
        else:
            _, error_type, error, tb = outcome
            shard.append(_quarantine_record(
                spec, task.cell, task.derived_seed, error_type, error, tb,
                attempts=task.attempt))
            quarantined[task.key] = f"{error_type}: {error}"
            fields = _live_fields(task.cell, None)
        resolved += 1
        _publish_sweep(live, done=resolved, total=total,
                       quarantined=len(quarantined), fields=fields,
                       final=resolved == total)

    if pending:
        # inline, successes and quarantines share the one shard; with
        # workers, each worker writes its own and quarantines go here
        shard = store.open_shard(generation, "parent" if workers else "w0",
                                 spec.digest())
        try:
            if workers == 0:
                _run_inline(spec, shard, queue, settle)
            else:
                _run_parallel(spec, store, generation, queue, settle,
                              workers, live)
        finally:
            shard.close()
    rollup = merge_store(store, total=total)
    rollup_path = write_rollup(store, rollup)
    return SweepResult(
        spec=spec,
        store=store.root,
        total=total,
        ran=len(pending) - len(quarantined),
        resumed=len(done_keys),
        quarantined=dict(quarantined),
        rollup=rollup,
        rollup_path=rollup_path,
        digest=rollup_digest(rollup),
    )


def _publish_sweep(live: "_live.LiveBus | None", *, done: int, total: int,
                   quarantined: int, fields: Mapping[str, Any],
                   final: bool) -> None:
    """One ``kind="sweep"`` progress snapshot (drives the ETA line)."""
    if live is None:
        return
    record: dict[str, Any] = {"done": done, "total": total,
                              "quarantined": quarantined}
    record.update(fields)
    if final:
        record["final"] = True
    live.publish("sweep", record)


def _backoff_s(spec: SweepSpec, attempt: int) -> float:
    """Capped exponential backoff before attempt ``attempt + 1``."""
    if spec.backoff_s <= 0:
        return 0.0
    return min(spec.backoff_s * (2.0 ** (attempt - 1)), MAX_BACKOFF_S)


def _run_inline(spec: SweepSpec, shard: ShardWriter, queue: list[_Task],
                settle: Callable[[_Task, tuple], None]) -> None:
    """The serial reference path: every attempt runs in this process."""
    while queue:
        queue.sort(key=lambda t: (t.eligible_at, t.index))
        task = queue.pop(0)
        delay = task.eligible_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        settle(task, _attempt(spec, shard, "w0", task.cell,
                              task.derived_seed, task.attempt))


def _run_parallel(spec: SweepSpec, store: SweepStore, generation: int,
                  queue: list[_Task], settle: Callable[[_Task, tuple], None],
                  workers: int, live: "_live.LiveBus | None") -> None:
    """The process-pool path: dispatch attempts, watch workers, settle."""
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    workers = min(workers, len(queue))
    spawn_seq = [0] * workers

    def spawn(slot: int) -> _Worker:
        worker = _Worker(ctx, spec, store, generation, slot,
                         spawn_seq[slot])
        spawn_seq[slot] += 1
        return worker

    pool: dict[int, _Worker] = {}

    def replace(slot: int) -> None:
        """Respawn the worker in ``slot`` after a kill/crash."""
        if queue or any(w.running is not None for w in pool.values()):
            pool[slot] = spawn(slot)
        else:
            del pool[slot]

    def kill_and_settle(worker: _Worker, error_type: str, error: str) -> None:
        """Kill a worker, fail its in-flight attempt, respawn the slot."""
        worker.kill()
        task, worker.running, worker.deadline = worker.running, None, None
        settle(task, ("failed", error_type, error, ""))
        replace(worker.slot)

    try:
        for slot in range(workers):
            pool[slot] = spawn(slot)
        while queue or any(w.running is not None for w in pool.values()):
            now = time.perf_counter()
            # dispatch eligible attempts to idle workers, cell order first
            queue.sort(key=lambda t: (t.eligible_at, t.index))
            for worker in pool.values():
                if worker.running is not None or not queue:
                    continue
                if queue[0].eligible_at > now:
                    break
                task = queue.pop(0)
                try:
                    worker.conn.send(("run", task.index, task.cell,
                                      task.derived_seed, task.attempt))
                except (OSError, ValueError):
                    # worker died while idle: put the task back, respawn
                    queue.insert(0, task)
                    worker.kill()
                    replace(worker.slot)
                    continue
                worker.running = task
                worker.deadline = (now + spec.timeout_s
                                   if spec.timeout_s > 0 else None)
            # wait for messages, the next deadline, or the next backoff
            deadlines = [w.deadline for w in pool.values()
                         if w.deadline is not None]
            wakeups = deadlines + [t.eligible_at for t in queue
                                   if t.eligible_at > now]
            timeout = 0.25
            if wakeups:
                timeout = min(timeout, max(0.01, min(wakeups) - now))
            busy = [w for w in pool.values() if w.running is not None]
            ready = _conn_wait([w.conn for w in busy],
                               timeout=timeout) if busy else []
            if not busy and timeout:
                time.sleep(min(timeout, 0.05))
            by_conn = {w.conn: w for w in pool.values()}
            for conn in ready:
                worker = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # the worker crashed (segfault, OOM, injected kill)
                    kill_and_settle(
                        worker, "WorkerCrash",
                        f"worker exited with code {worker.process.exitcode} "
                        "mid-cell")
                    continue
                if message[0] == "live":
                    _forward_live(live, worker.slot, message[1])
                    continue
                task, worker.running, worker.deadline = (
                    worker.running, None, None)
                settle(task, message)
            # reap attempts that blew their wall-clock budget
            now = time.perf_counter()
            for worker in list(pool.values()):
                if worker.deadline is not None and now > worker.deadline:
                    kill_and_settle(
                        worker, "CellTimeout",
                        f"cell exceeded the per-attempt wall-clock budget "
                        f"({spec.timeout_s:g}s)")
    finally:
        for worker in pool.values():
            worker.stop()


def _forward_live(live: "_live.LiveBus | None", slot: int,
                  record: Mapping[str, Any]) -> None:
    """Republish one worker snapshot on the parent bus.

    The worker's kind is suffixed with its slot (``sim`` from worker 1
    becomes ``sim_w1``) so a ``--live-record`` shard, merged by
    ``repro live summarize``, keeps each worker's snapshots apart while
    the aggregate ``sweep`` kind keeps the overall done/total/ETA view.
    Runs on the parent's own thread, between its ``recv`` calls.
    """
    if live is None:
        return
    kind = str(record.get("kind", "worker"))
    fields = {k: v for k, v in record.items()
              if k not in ("schema", "kind", "seq", "wall")}
    live.publish(f"{kind}_w{slot}", fields)
