"""Live telemetry bus: in-flight snapshots, progress/ETA, ``/metrics``.

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
  still leaves a parseable prefix; merged across processes by
  :mod:`repro.obs.aggregate`.
* :class:`LiveServer` — an opt-in stdlib HTTP server exposing
  ``/metrics`` (Prometheus text format, via :mod:`repro.obs.promtext`)
  and ``/status`` (JSON: last snapshot per kind, derived rates/ETA,
  registered :class:`~repro.obs.metrics.MetricsRegistry` snapshots).

Clock discipline (checked by taint rule RPR607): publishers and the
bus itself touch only ``time.perf_counter``; the one true wall-clock
read (``time.time`` for the shard header timestamp) lives inside the
sink, behind a justified ``noqa``.

Activate globally with ``REPRO_LIVE`` (``1`` → progress line; a port
number ≥ 2 → progress line + HTTP server; anything else → a snapshot
shard at that path) or per-run with ``Engine(live=...)`` /
``run_simulation(..., live=...)`` / ``--live [PORT]`` on the CLI.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Mapping, TextIO

from repro.obs.jsonl import JsonlWriter
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import render_prometheus

#: schema tag stamped on every snapshot record and shard header
LIVE_SCHEMA = "repro.live/v1"

#: default publish cadence of the simulation engine, in events
LIVE_SIM_EVERY = 2000


# -- the bus -------------------------------------------------------------------

class LiveBus:
    """Fan-out hub for in-flight snapshot records.

    Publishers call :meth:`publish` with a *kind* (``"sim"``,
    ``"train"``, ``"sweep"``) and plain scalar fields; the bus stamps
    the schema, a per-kind sequence number and a monotonic
    ``perf_counter`` timestamp, remembers the first and latest record
    per kind (for rate/ETA derivation), and hands the record to every
    attached sink.  Sinks observe only — a sink that raises disables
    itself rather than aborting the run.
    """

    def __init__(self) -> None:
        self._sinks: list[Any] = []
        self._registries: dict[str, MetricsRegistry] = {}
        self._seq: dict[str, int] = {}
        self._first: dict[str, dict[str, Any]] = {}
        self._last: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()

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

    def register_metrics(self, tag: str, registry: MetricsRegistry) -> None:
        """Expose ``registry`` on ``/metrics`` and ``/status`` as ``tag``."""
        self._registries[tag] = registry

    def registries(self) -> dict[str, MetricsRegistry]:
        """The registered component registries, keyed by tag."""
        # deliberate copy: read from the HTTP server thread while a run
        # mutates the original; called per scrape, not per event
        return dict(self._registries)

    def publish(self, kind: str, fields: Mapping[str, Any]) -> dict[str, Any]:
        """Stamp and fan out one snapshot; returns the stamped record.

        The stamp adds ``schema``, ``kind``, ``seq`` (per kind, from 1)
        and ``wall`` (monotonic ``perf_counter`` seconds — *not* the
        host date).  ``fields`` should be flat JSON-friendly scalars;
        by convention ``done``/``total`` drive progress and ETA.
        """
        with self._lock:
            seq = self._seq.get(kind, 0) + 1
            self._seq[kind] = seq
            record: dict[str, Any] = {"schema": LIVE_SCHEMA, "kind": kind,
                                      "seq": seq,
                                      "wall": time.perf_counter()}
            record.update(fields)
            if kind not in self._first:
                self._first[kind] = record
            self._last[kind] = record
            # deliberate copy: fan out after dropping the lock, so a slow
            # sink cannot block a concurrent /metrics scrape; runs once
            # per snapshot (thousands of events), not per event
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink.on_snapshot(record)
            except Exception:
                # a broken sink must never kill the run it observes;
                # drop it and keep publishing to the others
                self.detach(sink)
        return record

    def snapshots(self) -> dict[str, dict[str, Any]]:
        """The latest snapshot per kind."""
        with self._lock:
            # deliberate copy: handed to the HTTP server thread; called
            # per scrape, not per event
            return dict(self._last)

    def derived(self) -> dict[str, float]:
        """Derived per-kind scalars: rate, progress fraction, ETA.

        Pure arithmetic over the stamped records: with first and last
        snapshots of a kind ``elapsed = last.wall - first.wall``,
        ``rate = Δdone / elapsed`` and
        ``eta_s = (total - done) / rate``.  An ``events`` field gets an
        events-per-second rate the same way.  Kinds with fewer than two
        snapshots (or no elapsed time) contribute no rate/ETA.
        """
        out: dict[str, float] = {}
        with self._lock:
            pairs = [(k, self._first[k], self._last[k]) for k in self._last]
        for kind, first, last in pairs:
            done = last.get("done")
            total = last.get("total")
            if isinstance(done, (int, float)) and isinstance(
                    total, (int, float)) and total:
                out[f"live_{kind}_progress"] = done / total
            elapsed = last["wall"] - first["wall"]
            if elapsed <= 0.0:
                continue
            for field, name in (("done", "rate"),
                                ("events", "events_per_s")):
                lo, hi = first.get(field), last.get(field)
                if isinstance(lo, (int, float)) and isinstance(
                        hi, (int, float)) and hi > lo:
                    out[f"live_{kind}_{name}"] = (hi - lo) / elapsed
            rate = out.get(f"live_{kind}_rate")
            if rate and isinstance(done, (int, float)) and isinstance(
                    total, (int, float)) and total >= done:
                out[f"live_{kind}_eta_s"] = (total - done) / rate
        return out

    def close(self) -> None:
        """Close every sink that has a ``close`` method, then detach all."""
        for sink in list(self._sinks):
            closer = getattr(sink, "close", None)
            if closer is not None:
                try:
                    closer()
                except Exception:  # repro: noqa[bare-except]
                    # best-effort teardown: a sink that cannot close
                    # (broken pipe, dead socket) must not mask the
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

        ``[<kind>] <key fields> done <done>/<total> (<pct>%) <rate> ETA <s>``
        with rate and ETA derived from the monotonic ``wall`` stamps of
        the first and current snapshot of the kind (see
        :meth:`LiveBus.derived` for the math).
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
    and one ``/status`` endpoint aggregate every worker of the sweep.
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
    sink is where wall-clock reads are allowed; rule RPR607).  Every
    snapshot is one sorted-key JSON line, flushed immediately — a
    process killed mid-run leaves a parseable prefix (at worst one
    truncated final line, which the lenient reader in
    :mod:`repro.obs.aggregate` skips).
    """

    def __init__(self, path: "str | os.PathLike[str]",
                 source: str | None = None) -> None:
        self.source = source if source is not None else f"pid{os.getpid()}"
        # sink-confined wall-clock stamp: lets humans correlate shards
        # from different hosts; nothing downstream feeds it back into
        # a simulation
        unix = time.time()  # repro: noqa[wall-clock, sim-wall-clock]
        super().__init__(path, LIVE_SCHEMA,
                         {"source": self.source, "unix": unix})

    def on_snapshot(self, record: Mapping[str, Any]) -> None:
        """Append one snapshot record to the shard (no-op once closed)."""
        if not self.closed:
            self.write({"type": "snapshot", "source": self.source, **record})


class LiveServer:
    """Opt-in stdlib HTTP server exposing a :class:`LiveBus`.

    Serves ``GET /metrics`` (Prometheus text exposition 0.0.4 over the
    bus's registered registries plus derived rate/progress/ETA gauges)
    and ``GET /status`` (a JSON document with the latest snapshot per
    kind, the derived scalars and full registry snapshots).  Runs on a
    daemon thread; request logging is silenced.  Port 0 binds an
    ephemeral port, readable from :attr:`port` after :meth:`start`.
    """

    def __init__(self, bus: LiveBus, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self._bus = bus
        self._host = host
        self._server: Any = None
        self._thread: threading.Thread | None = None
        self.port = port

    def start(self) -> "LiveServer":
        """Bind the socket and start serving on a daemon thread."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        bus = self._bus

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = render_prometheus(bus.registries(),
                                             extra=bus.derived())
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/status":
                    body = json.dumps(
                        {"schema": LIVE_SCHEMA,
                         "snapshots": bus.snapshots(),
                         "derived": bus.derived(),
                         "metrics": {tag: reg.snapshot() for tag, reg
                                     in bus.registries().items()}},
                        sort_keys=True) + "\n"
                    ctype = "application/json; charset=utf-8"
                else:
                    self.send_error(404, "unknown path (try /metrics "
                                         "or /status)")
                    return
                payload = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args: Any) -> None:
                pass  # no per-request stderr noise during a run

        self._server = ThreadingHTTPServer((self._host, self.port), _Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-live-server", daemon=True)
        self._thread.start()
        return self

    def on_snapshot(self, record: Mapping[str, Any]) -> None:
        """No-op: the server reads bus state on request, not on publish."""

    def close(self) -> None:
        """Shut the server down and release the socket (idempotent)."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# -- building a bus from a CLI/env spec ----------------------------------------

def live_from_spec(spec: str, stream: TextIO | None = None,
                   source: str | None = None) -> LiveBus | None:
    """Build a :class:`LiveBus` from a ``--live`` / ``REPRO_LIVE`` value.

    * ``""``, ``"0"``, ``"off"`` → ``None`` (live view disabled);
    * ``"1"`` or ``"progress"`` → progress/ETA line only (the
      no-server default);
    * any other integer → progress line **plus** an HTTP server on
      that port (``/metrics`` + ``/status``);
    * anything else → a :class:`SnapshotWriter` shard at that path.

    The server (when requested) is started before returning, so the
    caller can log the bound port via the returned bus's
    :attr:`LiveBus.server` attribute.
    """
    value = spec.strip()
    if value in ("", "0", "off"):
        return None
    bus = LiveBus()
    bus.server = None  # type: ignore[attr-defined]
    if value in ("1", "progress"):
        bus.attach(ProgressSink(stream))
        return bus
    try:
        port = int(value)
    except ValueError:
        bus.attach(SnapshotWriter(value, source=source))
        return bus
    if not 1 < port < 65536:
        raise ValueError(f"invalid live port {port} (expected 2..65535)")
    bus.attach(ProgressSink(stream))
    bus.server = bus.attach(LiveServer(bus, port=port).start())  # type: ignore[attr-defined]
    return bus


# -- global (environment-driven) bus -------------------------------------------

_GLOBAL: LiveBus | None = None
_GLOBAL_LOADED = False


def global_live_bus() -> LiveBus | None:
    """The process-wide live bus, or ``None`` when the live view is off.

    On first call the ``REPRO_LIVE`` environment variable is consulted
    (see :func:`live_from_spec` for the accepted values); subsequent
    calls return the cached result, so the disabled path costs one
    global lookup and a ``None`` check — the same contract as
    :func:`repro.obs.trace.global_tracer`.
    """
    global _GLOBAL, _GLOBAL_LOADED
    if not _GLOBAL_LOADED:
        _GLOBAL_LOADED = True
        # sanctioned observability gate: selects whether the run is
        # *watched*; run behaviour and outputs are unchanged by REPRO_LIVE
        spec = os.environ.get("REPRO_LIVE", "").strip()  # repro: noqa[ambient-env-read]
        if spec:
            _GLOBAL = live_from_spec(spec)
    return _GLOBAL


def set_global_live_bus(bus: LiveBus | None) -> LiveBus | None:
    """Install (or clear, with ``None``) the global live bus.

    Returns the previous bus so tests can restore it.  Passing a bus
    bypasses ``REPRO_LIVE``; passing ``None`` disables the global live
    view until the next explicit install (the environment variable is
    *not* re-read).
    """
    global _GLOBAL, _GLOBAL_LOADED
    previous = _GLOBAL
    _GLOBAL = bus
    _GLOBAL_LOADED = True
    return previous
