"""Live bus: in-flight snapshots, a progress/ETA line, shards.

Long simulations and training runs are opaque while they execute: the
tracer, profiler and manifest all land on disk *after* the run.  This
module adds the in-flight view.  Components publish small snapshot
dicts to a :class:`LiveBus` on an **event-count cadence** (every N
simulator events, every training episode, every sweep cell) — never on
a wall-clock timer — so what gets published is a pure function of the
run and a live-enabled run stays bit-identical to a dark one.

The bus fans each snapshot out to attached sinks:

* :class:`ProgressSink` — a terminal progress/ETA line, rendered from
  snapshot deltas (rate and ETA derive from monotonic
  ``time.perf_counter()`` stamps the bus adds at publish time).
* :class:`SnapshotWriter` — an append-only JSONL shard
  (``repro.live/v1``), flushed per record so a ``kill -9`` mid-run
  still leaves a parseable prefix; :func:`read_log` reads it back for
  ``repro report DIR``.  The training log is the same species:
  :class:`~repro.rl.trainer.Trainer` appends its per-episode ``train``
  record to one directly, not through a bus.
* :class:`ConnectionSink` — a sweep worker's link to the pool parent,
  which republishes the records on its own bus.

Clock discipline: publishers and the bus itself touch only
``time.perf_counter``; the one true wall-clock read (``time.time`` for
the shard header timestamp) lives inside the sink.

Activate globally with ``REPRO_LIVE`` (``1`` → progress line; any
other value → a snapshot shard at that path; read by
:func:`repro.obs.trace.channels`) or per-run with
``Engine(live=...)`` / ``run_simulation(..., live=...)`` / ``--live``
(with ``--run-dir DIR``, a shard at ``DIR/log.jsonl``) on the CLI.
A ``REPRO_LIVE`` shard meant for ``repro report DIR`` is named
``DIR/log.jsonl``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import warnings
from typing import Any, Mapping, TextIO

from repro.obs.jsonl import JsonlWriter, read_jsonl

#: schema tag stamped on every snapshot record and shard header
LIVE_SCHEMA = "repro.live/v1"

#: publish cadence of the simulation engine, in processed events
LIVE_SIM_EVERY = 2000


# -- the bus -------------------------------------------------------------------

class LiveBus:
    """Fan-out hub for in-flight snapshot records.

    Publishers call :meth:`publish` with a *kind* (``"sim"``,
    ``"train"``, ``"sweep"``) and plain scalar fields; the bus stamps
    the schema, a per-kind sequence number and a monotonic
    ``perf_counter`` timestamp and hands the record to every attached
    sink.  Sinks observe only — a sink that raises is detached with a
    ``RuntimeWarning`` rather than aborting the run.
    """

    def __init__(self) -> None:
        self._sinks: list[Any] = []
        self._seq: dict[str, int] = {}

    def attach(self, sink: Any) -> Any:
        """Attach a sink (any object with ``on_snapshot(record)``)."""
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Any) -> None:
        """Detach a previously attached sink (no-op if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def publish(self, kind: str, fields: Mapping[str, Any]) -> dict[str, Any]:
        """Stamp and fan out one snapshot; returns the stamped record.

        The stamp adds ``schema``, ``kind``, ``seq`` (per kind, from 1)
        and ``wall`` (monotonic ``perf_counter`` seconds — *not* the
        host date).  ``fields`` should be flat JSON-friendly values
        and win over the stamp (the trainer numbers its records
        ``seq = episode + 1``, so a resumed run continues the count);
        by convention ``done``/``total`` drive progress and ETA.
        """
        seq = self._seq.get(kind, 0) + 1
        self._seq[kind] = seq
        record: dict[str, Any] = {"schema": LIVE_SCHEMA, "kind": kind,
                                  "seq": seq, "wall": time.perf_counter()}
        record.update(fields)
        # iterate a copy: a raising sink is detached mid-loop; runs once
        # per snapshot (thousands of events), not per event
        for sink in list(self._sinks):
            try:
                sink.on_snapshot(record)
            except Exception as exc:
                # a broken sink must never kill the run it observes;
                # drop it, say so once, keep publishing to the others
                self.detach(sink)
                warnings.warn(
                    f"live: detached {type(sink).__name__} after "
                    f"{type(exc).__name__}: {exc}", RuntimeWarning,
                    stacklevel=2)
        return record

    def close(self) -> None:
        """Close every sink that has a ``close`` method, then detach all."""
        for sink in list(self._sinks):
            closer = getattr(sink, "close", None)
            if closer is not None:
                try:
                    closer()
                except Exception:  # repro: noqa[bare-except]
                    # best-effort teardown: a sink that cannot close
                    # (broken pipe, full disk) must not mask the
                    # run's own result or the other sinks' teardown
                    pass
        self._sinks.clear()


# -- sinks ---------------------------------------------------------------------

class ProgressSink:
    """Renders snapshots as a one-line terminal progress/ETA readout.

    On a TTY the line redraws in place (carriage return); otherwise
    each rendered snapshot is its own line.  Rendering is rate-limited
    to one line per ``min_interval_s`` of monotonic time, except that
    records marked ``final`` always render (so the 100% line is never
    dropped).
    """

    def __init__(self, stream: TextIO | None = None,
                 min_interval_s: float = 0.5) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval_s = min_interval_s
        self._next_render = 0.0
        self._first: dict[str, dict[str, Any]] = {}
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._width = 0

    def on_snapshot(self, record: Mapping[str, Any]) -> None:
        """Render ``record`` unless inside the rate-limit window."""
        kind = str(record.get("kind", "?"))
        if kind not in self._first:
            self._first[kind] = dict(record)
        now = time.perf_counter()
        if not record.get("final") and now < self._next_render:
            return
        self._next_render = now + self._min_interval_s
        line = self.format_line(record)
        try:
            if self._tty:
                pad = " " * max(0, self._width - len(line))
                end = "\n" if record.get("final") else ""
                self._stream.write("\r" + line + pad + end)
                self._width = 0 if record.get("final") else len(line)
            else:
                self._stream.write(line + "\n")
            self._stream.flush()
        except (OSError, ValueError):
            pass  # a closed/broken stream must not abort the run

    def format_line(self, record: Mapping[str, Any]) -> str:
        """One human-oriented progress line for ``record``.

        ``[<kind>] <key fields> done <done>/<total> (<pct>%) ETA <s>``
        where, between the first and the current snapshot of the kind,
        ``rate = Δdone / Δwall`` (monotonic stamps) and
        ``ETA = (total - done) / rate``; a kind's first snapshot has no
        rate, so it shows no ETA.
        """
        kind = str(record.get("kind", "?"))
        parts = [f"[{kind}]"]
        for key, fmt in (("t", "t={:.1f}s"), ("events", "ev={}"),
                         ("episode", "ep={}"), ("cell", "cell={}"),
                         ("policy", "{}"), ("mtbf", "mtbf={:g}"),
                         ("queue_depth", "q={}"), ("running", "run={}"),
                         ("utilization", "util={:.1%}"),
                         ("loss", "loss={:.4g}"),
                         ("train_reward", "reward={:.4g}"),
                         ("faults", "faults={}"), ("requeues", "requeues={}")):
            value = record.get(key)
            if value is not None:
                parts.append(fmt.format(value))
        done, total = record.get("done"), record.get("total")
        if isinstance(done, (int, float)) and isinstance(total, (int, float)):
            pct = f" ({done / total:.0%})" if total else ""
            parts.append(f"done {done:g}/{total:g}{pct}")
            first = self._first.get(kind, record)
            elapsed = record["wall"] - first["wall"]
            if elapsed > 0 and done > first.get("done", done):
                rate = (done - first["done"]) / elapsed
                if total >= done and rate > 0:
                    parts.append(f"ETA {(total - done) / rate:.0f}s")
        return " ".join(parts)

    def close(self) -> None:
        """Terminate an in-place TTY line with a newline."""
        if self._tty and self._width:
            try:
                self._stream.write("\n")
                self._stream.flush()
            except (OSError, ValueError):
                pass
            self._width = 0


class ConnectionSink:
    """Forwards snapshots over a :mod:`multiprocessing` connection.

    The worker side of a multi-process sweep: a sweep worker's private
    :class:`LiveBus` attaches one of these around its pipe to the pool
    parent, which republishes each record on the parent bus (worker
    kinds suffixed ``_w<slot>``) so one :class:`ProgressSink` ETA line
    and one ``log.jsonl`` shard cover every worker of the sweep.
    Delivery is best-effort — a dead parent must not break the cell
    that is still running (the worker notices the broken pipe on its
    next ``recv`` and exits).
    """

    #: tag of forwarded records on the wire (first tuple element)
    TAG = "live"

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def on_snapshot(self, record: Mapping[str, Any]) -> None:
        """Ship one snapshot to the peer (best-effort)."""
        try:
            self._conn.send((self.TAG, dict(record)))
        except (OSError, ValueError):
            pass


class SnapshotWriter(JsonlWriter):
    """Appends snapshots to a JSONL shard (``repro.live/v1``).

    The first line is a ``meta`` header naming the schema, the shard's
    ``source`` label and the one wall-clock timestamp of the file (the
    sink is where wall-clock reads are allowed).  Every
    snapshot is one sorted-key JSON line, flushed immediately — a
    process killed mid-run leaves a parseable prefix (at worst one
    truncated final line, which :func:`read_log` skips).
    ``resume_after`` cuts an existing shard back to its snapshots
    numbered up to that ``seq`` (a training log to the episodes its
    checkpoint holds: the trainer numbers them ``seq = episode + 1``)
    and appends after them, keeping its header
    (:class:`~repro.obs.jsonl.JsonlWriter`).  The cut is read from the
    log itself, so nothing about the log's bytes is stored elsewhere.
    """

    def __init__(self, path: "str | os.PathLike[str]",
                 source: str | None = None,
                 resume_after: int | None = None) -> None:
        self.source = source if source is not None else f"pid{os.getpid()}"
        # sink-confined wall-clock stamp: lets humans correlate shards
        # from different hosts; nothing downstream feeds it back into
        # a simulation
        unix = time.time()
        cut = None if resume_after is None else _prefix_through(
            path, resume_after)
        super().__init__(path, LIVE_SCHEMA,
                         {"source": self.source, "unix": unix}, cut)

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one snapshot record (raises ``ValueError`` once closed)."""
        self.write({"type": "snapshot", "source": self.source, **record})

    def on_snapshot(self, record: Mapping[str, Any]) -> None:
        """Bus-sink form of :meth:`append`: a no-op once closed."""
        if not self.closed:
            self.append(record)


def _prefix_through(path: "str | os.PathLike[str]", seq: int) -> int:
    """Byte length of the shard's longest prefix of whole, well-formed
    lines holding no snapshot numbered past ``seq``.

    A log the checkpoint outlived (an OS crash lost its unsynced tail)
    is kept whole; a missing log gives 0.
    """
    end = 0
    try:
        with open(path, "rb") as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                except ValueError:
                    break
                if not (line.endswith(b"\n") and isinstance(record, dict)):
                    break
                at = record.get("seq", 0) \
                    if record.get("type") == "snapshot" else 0
                if not (isinstance(at, (int, float)) and at <= seq):
                    break
                end += len(line)
    except FileNotFoundError:
        pass
    return end


def _finite(value: Any) -> bool:
    """Whether ``value`` is a finite int or float (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def read_log(path: "str | os.PathLike[str]") -> dict[str, Any]:
    """Leniently read a ``repro.live/v1`` shard once (``repro report``).

    Returns ``{"source", "schema", "skipped", "train", "kinds"}``: the
    ``meta`` header's source (else the file name) and schema; the count
    of damaged lines and of snapshots whose ``seq`` is not a finite
    number; the ``kind="train"`` snapshots in file order (the training
    log's records); and per kind ``snapshots``, ``sources``, ``last``
    (the highest-``seq`` snapshot, a later line winning a tie) and
    ``fields``, the ``{"min", "max"}`` of every finite numeric field
    besides the bus stamps ``seq`` and ``wall``.
    """
    path = os.fspath(path)
    records, damaged = read_jsonl(path)
    header = next((r for r in records if r.get("type") == "meta"), {})
    source = header.get("source", os.path.basename(path))
    skipped = len(damaged)
    train: list[dict[str, Any]] = []
    kinds: dict[str, dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "snapshot":
            continue
        seq = record.get("seq", 0)
        if not _finite(seq):
            skipped += 1
            continue
        kind = str(record.get("kind", "?"))
        if kind == "train":
            train.append(record)
        bucket = kinds.setdefault(kind, {"snapshots": 0, "sources": set(),
                                         "last": record, "fields": {}})
        bucket["snapshots"] += 1
        bucket["sources"].add(str(record.get("source", source)))
        if seq >= bucket["last"].get("seq", 0):
            bucket["last"] = record
        fields = bucket["fields"]
        for name, value in record.items():
            if name in ("seq", "wall") or not _finite(value):
                continue
            stats = fields.setdefault(name, {"min": value, "max": value})
            stats["min"] = min(stats["min"], value)
            stats["max"] = max(stats["max"], value)
    for bucket in kinds.values():
        bucket["sources"] = sorted(bucket["sources"])
        bucket["fields"] = dict(sorted(bucket["fields"].items()))
    return {"source": source, "schema": header.get("schema"),
            "skipped": skipped, "train": train,
            "kinds": dict(sorted(kinds.items()))}


# -- building a bus from a CLI/env spec ----------------------------------------

def live_from_spec(spec: str, stream: TextIO | None = None) -> LiveBus | None:
    """Build a :class:`LiveBus` from a ``REPRO_LIVE`` value.

    * ``""``, ``"0"``, ``"off"`` → ``None`` (live view disabled);
    * ``"1"`` or ``"progress"`` → the progress/ETA line;
    * any other integer → ``ValueError``: it was a port number for the
      HTTP view, which is gone, and must not become a shard named
      after the port;
    * anything else → a :class:`SnapshotWriter` shard at that path.
    """
    value = spec.strip()
    if value in ("", "0", "off"):
        return None
    bus = LiveBus()
    if value in ("1", "progress"):
        bus.attach(ProgressSink(stream))
        return bus
    try:
        int(value)
    except ValueError:
        bus.attach(SnapshotWriter(value))
        return bus
    raise ValueError(
        f"live spec {value!r} is a port, but the HTTP view was removed; "
        "use '1' for the progress line or a file path for a snapshot "
        "shard")
