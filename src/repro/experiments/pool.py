"""Fault-tolerant parallel sweep orchestration.

Every experiment grid in this reproduction — the paper's figure/table
matrix, the faultsweep MTBF grids, parameter sensitivity studies —
expands to a set of independent *cells*.  This module runs those cells
on N worker processes and survives every failure mode we can inject:

* **worker exceptions** are retried at once, up to a bounded number
  of attempts, then *quarantined* (recorded with their traceback) so
  the sweep completes with partial results instead of aborting;
* **hung cells** are killed by a parent-side per-cell wall-clock
  timeout (on top of the engine's own ``max_wall_s`` runaway guard)
  and retried like any other failure;
* **crashed workers** (segfault, OOM kill, injected ``SIGKILL``) are
  detected through their broken pipe, replaced, and their in-flight
  cell is retried;
* **a killed parent** loses only the cells in flight: the parent is
  the store's one writer and appends each settled cell to the
  generation's crash-durable JSONL shard (append + flush per cell), so
  a re-run with ``resume=True`` skips the completed cells, reruns the
  rest and converges to the same merged rollup.

Determinism contract
--------------------
The per-cell seed is ``SHA-256(sweep_seed | cell key)`` — a pure
function of the sweep spec, independent of execution order, worker
count, retry schedule and crash/resume history.  The merged rollup is
canonical JSON over the *sorted* cell set, so::

    same sweep spec  =>  byte-identical rollup

regardless of how (or how often) the sweep was executed.  That worker
entry points consume only derived-seed RNGs and no ambient state is
checked by running one: ``tests/test_ambient_perturbation.py`` runs a
cell on a pool worker under a perturbed global RNG, clock, hash seed
and environment and compares ``results_digest``.

The sweep kinds are the rows of :data:`repro.experiments.runner.TABLE`:
every paper experiment id (``fig6``, ``faultsweep``, …), ``experiments``
(the whole table/figure matrix) and ``selftest`` (deterministic payload
cells with injectable crash/hang/failure, used by the test suite and
the CI smoke job).  :func:`expand_cells` and :func:`_execute_cell` look
the kind up there.  The CLI front end is ``repro reproduce``, which
is :func:`run_sweep` with ``--workers N`` (default 0, inline).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.experiments import runner
from repro.obs import live as _live
from repro.obs import trace as _trace
from repro.obs.jsonl import (
    JsonlWriter,
    atomic_write,
    canonical_json,
    read_jsonl,
    sha256_hex,
)

#: schema tag of sweep stores (spec file, shard lines)
SWEEP_SCHEMA = "repro.sweep/v1"

#: schema tag of the merged rollup document
ROLLUP_SCHEMA = "repro.sweep-rollup/v1"

#: default bounded-retry budget: one initial attempt plus two retries
DEFAULT_RETRIES = 2

#: shard-record fields that legitimately differ between executions of
#: the same sweep (on which attempt a cell settled, its error text) and
#: are therefore stripped before a record enters the merged rollup
VOLATILE_RECORD_FIELDS = frozenset({
    "attempt", "attempts", "error", "error_tb",
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
        A row of :data:`repro.experiments.runner.TABLE`.
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
        before it is quarantined.  A failed attempt is retried at
        once: cells are local, deterministic computations, so waiting
        does not help them recover.

    ``retries`` is execution policy, not identity: it never changes
    what a *deterministic* cell produces, so it is excluded from
    :meth:`identity` / :meth:`digest`.  ``timeout_s`` can
    change an outcome (a slow cell is quarantined instead of finishing)
    and is part of the identity.
    """

    kind: str
    scale: str = "tiny"
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout_s: float = 0.0
    retries: int = DEFAULT_RETRIES

    def __post_init__(self) -> None:
        if self.kind not in runner.TABLE:
            raise SweepError(
                f"unknown sweep kind {self.kind!r}; "
                f"available: {', '.join(runner.TABLE)}"
            )
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        if not (math.isfinite(self.timeout_s) and self.timeout_s >= 0):
            raise SweepError(f"timeout_s must be finite and >= 0, "
                             f"got {self.timeout_s}")

    def list_param(self, name: str, default: Sequence[Any]) -> list[Any]:
        """``params[name]``, else ``default``: a non-empty list, or
        ``ValueError`` (a string or a number is not read as one)."""
        value = self.params.get(name, default)
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(
                f"param {name} must be a non-empty JSON list, "
                f"got {value!r}")
        return list(value)

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


def expand_cells(spec: SweepSpec) -> list[dict[str, Any]]:
    """The spec's cell list, in canonical (definition) order.

    Raises ``ValueError`` for a malformed kind-specific param (an
    unknown policy or experiment id, a bad ``faults`` spec).
    """
    cells = runner.TABLE[spec.kind].cells(spec)
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


class SweepStore:
    """One sweep's on-disk state: ``spec.json``, shards, rollup.

    Layout::

        <root>/spec.json              # identity of the sweep
        <root>/shards/g0001.jsonl     # one shard per generation
        <root>/rollup.json            # merged, order-independent

    A *generation* is one ``run_sweep`` invocation; its pool parent is
    the shard's only writer, workers send their records over their
    pipes.  Resume scans every shard of every generation, so a store
    written with one shard per worker (``g0001.w0.jsonl``, whose cell
    records also embed a ``manifest``) still resumes and merges to the
    same ``results_digest``.  Shard files are never reopened or
    rewritten, so a crash can only ever tear the final line of one
    shard; a killed parent loses the cells it had not yet settled.
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

        A new or empty directory is stamped with the spec identity.  An
        existing store must carry the *same* identity digest, and —
        when it already holds shards — requires ``resume=True`` so a
        stale store is never extended by accident, and may hold no
        record of a cell the spec does not expand to (the one-cell-per-
        experiment shape an older ``experiments`` sweep wrote).  Any
        other non-empty directory is refused: it is not this sweep's.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if self.spec_path.exists():
            existing = json.loads(self.spec_path.read_text(encoding="utf-8"))
            if existing != spec.identity():
                raise SweepError(
                    f"store {self.root} belongs to a different sweep "
                    f"(its spec.json does not match this spec); "
                    "use a fresh directory"
                )
            if self.shard_paths() and not resume:
                raise SweepError(
                    f"store {self.root} already holds shards; pass "
                    "resume=True (--resume) to continue it or use a "
                    "fresh directory"
                )
            scan = self.scan()
            if (set(scan.completed) | set(scan.quarantined)) - {
                    cell_key(c) for c in expand_cells(spec)}:
                raise SweepError(f"store {self.root} holds cells this sweep "
                                 "does not expand to; use a fresh directory")
        elif any(self.root.iterdir()):
            raise SweepError(
                f"store {self.root} is not empty but holds no spec.json; "
                "refusing to guess — use a fresh directory"
            )
        else:
            with atomic_write(self.spec_path) as fh:
                fh.write(json.dumps(spec.identity(), indent=2,
                                    sort_keys=True) + "\n")
        self.shards_dir.mkdir(exist_ok=True)

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

    def open_shard(self, generation: int, sweep_digest: str) -> JsonlWriter:
        """Open ``generation``'s shard: one header, then one flushed line
        per record, so a ``SIGKILL`` loses at most the line being
        written — which :meth:`scan` skips.  Fails if the file exists."""
        path = self.shards_dir / f"g{generation:04d}.jsonl"
        if path.exists():
            raise SweepError(f"shard {path} already exists")
        return JsonlWriter(path, SWEEP_SCHEMA, {"sweep": sweep_digest})

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
        for path in self.shard_paths():
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
                         conflicts=conflict_rows, skipped=skipped)


def normalise_record(record: Mapping[str, Any]) -> dict[str, Any]:
    """A record with volatile (execution-history) fields stripped."""
    return {k: v for k, v in record.items()
            if k not in VOLATILE_RECORD_FIELDS}


def merge_store(store: SweepStore, total: int) -> dict[str, Any]:
    """Fold every shard into one deterministic rollup document.

    Order-independent: records are keyed and emitted in sorted-key
    order and the canonical JSON has sorted keys, so the same set of
    shard *records* yields byte-identical rollup JSON no matter how
    the work was distributed, interrupted, or resumed.
    """
    spec_doc = None
    if store.spec_path.exists():
        spec_doc = json.loads(store.spec_path.read_text(encoding="utf-8"))
    scan = store.scan()
    cells = [scan.completed[key] for key in sorted(scan.completed)]
    quarantined = [scan.quarantined[key] for key in sorted(scan.quarantined)
                   if key not in scan.completed]
    return {
        "schema": ROLLUP_SCHEMA,
        "sweep": spec_doc,
        "cells": cells,
        "quarantined": quarantined,
        "completed": len(cells),
        "conflicts": scan.conflicts,
        "total": total,
    }


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
    the rollup).  This digest strips that
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
    """Run one cell attempt and build its shard record.

    This is the pool's worker-side entry point into experiment code
    (with :func:`_worker_main` around it in the parallel path).
    Nothing reachable from here may consume ambient RNG state, the
    wall clock, or the process environment;
    ``tests/test_ambient_perturbation.py`` perturbs all three around a
    pool worker and compares the cell's ``results_digest``.
    """
    cell = dict(cell)
    summary = runner.TABLE[spec.kind].run_cell(spec, cell, derived_seed,
                                               attempt)
    return {
        "type": "cell",
        "schema": SWEEP_SCHEMA,
        "key": cell_key(cell),
        "cell": cell,
        "derived_seed": derived_seed,
        "status": "ok",
        "summary": dict(summary),
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
    # an ``experiments`` cell carries its experiment's own cell
    for source in (cell, cell.get("cell") or {}, summary or {}):
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


def _attempt(spec: SweepSpec, cell: Mapping[str, Any], derived_seed: int,
             attempt: int) -> tuple:
    """Run one cell attempt.

    Returns the outcome as the wire message a worker sends its parent:
    ``("done", cell record)`` or ``("failed", error type, message,
    traceback)``.  The parent settles both the same way whether the
    attempt ran in a worker or inline.
    """
    try:
        return ("done", _execute_cell(spec, cell, derived_seed, attempt))
    except Exception as exc:
        return ("failed", type(exc).__name__, str(exc),
                traceback.format_exc())


# -- worker process ------------------------------------------------------------

def _worker_main(conn: Any, spec: SweepSpec, label: str) -> None:
    """Worker loop: recv task, run an :func:`_attempt`, send its outcome.

    The worker opens no file: a completed cell's record goes to the
    parent in its ``done`` message, and the parent writes it.  Its
    channel set is a private live bus alone, whose only sink forwards
    snapshots to the parent for aggregation: the channels inherited
    across ``fork`` (progress sinks, tracer/profiler file handles) are
    not shared with the parent, and no ``REPRO_*`` variable is read.
    A dead parent ends the loop: either as a broken pipe, or — when a
    sibling worker forked after this one still holds an inherited copy
    of the pipe's parent end, so no EOF can arrive — as a change of
    ``os.getppid()`` (a ``SIGKILL``-ed parent reparents this process).
    An orphaned worker therefore never outlives its parent by more
    than its in-flight cell plus one poll interval.
    """
    bus = _live.LiveBus()
    bus.attach(_live.ConnectionSink(conn))
    parent_pid = os.getppid()
    with _trace.sinks(live=bus, inherit=False), contextlib.closing(conn):
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
            try:
                conn.send(_attempt(spec, cell, derived_seed, attempt))
            except (OSError, ValueError):
                break


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


class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(self, ctx: Any, spec: SweepSpec, slot: int) -> None:
        self.slot = slot
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, spec, f"w{slot}"),
            name=f"repro-sweep-w{slot}",
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
    reference path and ``repro reproduce`` — no subprocesses, so
    crash/hang injection and the parent-side timeout don't apply; the
    engine ``max_wall_s`` guard inside cells still does).  ``workers>=1`` runs cells on that many
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
    cells = expand_cells(spec)  # a malformed spec fails before the store
    store.initialise(spec, resume=resume)
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
        live = _trace.channels().live
    generation = store.generation()
    quarantined: dict[str, str] = {}
    # unsettled tasks waiting for their next attempt, first in first out:
    # a failed attempt goes to the back, behind cells not yet tried
    queue = list(pending)
    resolved = len(done_keys)

    def settle(task: _Task, outcome: tuple) -> None:
        """Append a success to ``shard``, re-queue a failure, or
        quarantine it into ``shard`` once its attempts are spent; then
        count and publish it."""
        nonlocal resolved
        if outcome[0] == "failed" and task.attempt <= spec.retries:
            task.attempt += 1
            queue.append(task)
            return
        if outcome[0] == "done":
            record = outcome[1]
            record["attempt"] = task.attempt
            shard.write(record)
            fields = _live_fields(task.cell, record["summary"])
        else:
            _, error_type, error, tb = outcome
            shard.write(_quarantine_record(
                spec, task.cell, task.derived_seed, error_type, error, tb,
                attempts=task.attempt))
            quarantined[task.key] = f"{error_type}: {error}"
            fields = _live_fields(task.cell, None)
        resolved += 1
        _publish_sweep(live, done=resolved, total=total,
                       quarantined=len(quarantined), fields=fields,
                       final=resolved == total)

    if pending:
        shard = store.open_shard(generation, spec.digest())
        try:
            if workers == 0:  # the serial reference path
                while queue:
                    task = queue.pop(0)
                    settle(task, _attempt(spec, task.cell, task.derived_seed,
                                          task.attempt))
            else:
                _run_parallel(spec, queue, settle, workers, live)
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


def _run_parallel(spec: SweepSpec, queue: list[_Task],
                  settle: Callable[[_Task, tuple], None], workers: int,
                  live: "_live.LiveBus | None") -> None:
    """The process-pool path: dispatch attempts, watch workers, settle."""
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    workers = min(workers, len(queue))
    pool: dict[int, _Worker] = {}

    def replace(slot: int) -> None:
        """Respawn the worker in ``slot`` after a kill/crash."""
        if queue or any(w.running is not None for w in pool.values()):
            pool[slot] = _Worker(ctx, spec, slot)
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
            pool[slot] = _Worker(ctx, spec, slot)
        while queue or any(w.running is not None for w in pool.values()):
            now = time.perf_counter()
            # dispatch queued attempts to idle workers
            for worker in pool.values():
                if worker.running is not None or not queue:
                    continue
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
            # wait for messages or the next deadline
            deadlines = [w.deadline for w in pool.values()
                         if w.deadline is not None]
            timeout = 0.25
            if deadlines:
                timeout = min(timeout, max(0.01, min(deadlines) - now))
            busy = [w for w in pool.values() if w.running is not None]
            ready = _conn_wait([w.conn for w in busy],
                               timeout=timeout) if busy else []
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
    becomes ``sim_w1``) so the store's ``log.jsonl``, read by ``repro
    report DIR``, keeps each worker's snapshots apart while the
    aggregate ``sweep`` kind keeps the overall done/total/ETA view.
    Runs on the parent's own thread, between its ``recv`` calls.
    """
    if live is None:
        return
    kind = str(record.get("kind", "worker"))
    fields = {k: v for k, v in record.items()
              if k not in ("schema", "kind", "seq", "wall")}
    live.publish(f"{kind}_w{slot}", fields)
