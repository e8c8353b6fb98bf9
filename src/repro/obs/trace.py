"""Structured JSONL event tracer for the simulator and NN stack.

One :class:`Tracer` writes one JSON object per line to a sink file.
Two record families exist:

* **spans** — ``begin``/``end`` record pairs with a span id (``sid``)
  and parent id (``pid``), forming a tree.  The engine opens one span
  per scheduling instance; the NN stack opens spans around forward,
  backward and optimizer steps.
* **events** — instantaneous points (job start, node release, a
  reservation) attributed to the enclosing span via ``pid``.

Every record carries a ``wall`` field (``time.perf_counter()``, a
duration-only monotonic clock — never the host date) so span durations
can be recovered; simulator records additionally carry the engine clock
in a ``t`` field.

Serialization is a hot path (the ``theta_easy_traced`` benchmark
workload measures it): records whose values are plain scalars are
rendered by a specialized formatter that produces byte-identical
output to ``json.dumps`` (same separators, same float ``repr``, same
string escaping via a memo of ``json.dumps``-escaped fragments); any
record with a non-scalar value falls back to a shared
:class:`json.JSONEncoder`.  Either way the line is rendered *at emit
time* — field values are captured immediately, so callers may mutate
them afterwards — and buffered lines are written out in one batched
``write`` per :meth:`Tracer.flush`, which runs every
:data:`BUFFER_LINES` records and on :meth:`Tracer.close`.

Activation mirrors the PR 1 sanitizer contract:

* globally, via the ``REPRO_TRACE`` environment variable naming the
  output path (read once per process; see :func:`global_tracer`), or
* per engine, via ``Engine(trace=...)`` with a path or a
  :class:`Tracer`.

When no tracer is active the instrumented hot paths cost a single
``None`` check, and a traced run is bit-identical to an untraced one:
the tracer only appends to its sink and never reads or mutates
simulation, RNG or network state.

Reading a trace back::

    records = read_trace("trace.jsonl")
    roots = build_span_tree(records)

"""

from __future__ import annotations

import atexit
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, IO, Iterable

from repro.obs import profile as _profile
from repro.obs.jsonl import read_jsonl

#: schema tag stamped into the first record of every trace file
TRACE_SCHEMA = "repro.trace/v1"

#: records buffered before a :meth:`Tracer.flush` writes them out, so
#: the per-record cost is rendering one string plus a list append
BUFFER_LINES = 256


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars and other non-JSON types to plain Python."""
    for attr in ("item",):  # numpy scalars expose .item()
        fn = getattr(value, attr, None)
        if callable(fn):
            return fn()
    return str(value)


# -- fast record serialization -------------------------------------------------
#
# One shared fallback encoder (building a JSONEncoder per record, as
# ``json.dumps(..., default=...)`` does, is measurable at trace rates)
# plus a scalar fast path that mirrors its output byte for byte.

_FALLBACK_ENCODE = json.JSONEncoder(default=_json_default).encode

#: memo of ``json.dumps``-escaped string fragments (names, modes, field
#: keys — low-cardinality by construction); capped so pathological
#: callers cannot grow it without bound
_STR_MEMO: dict[str, str] = {}
_STR_MEMO_MAX = 4096

_INF = float("inf")


def _str_fragment(value: str) -> str:
    """The ``json.dumps`` rendering of one string, memoized."""
    fragment = _STR_MEMO.get(value)
    if fragment is None:
        fragment = json.dumps(value)
        if len(_STR_MEMO) < _STR_MEMO_MAX:
            _STR_MEMO[value] = fragment
    return fragment


def _value_fragment(value: Any) -> str | None:
    """Render one scalar exactly as ``json.dumps`` would, else ``None``.

    Exact types only (subclasses fall back: ``json`` may treat them
    differently); non-finite floats fall back so they keep the
    ``NaN``/``Infinity`` spellings of the stock encoder.
    """
    cls = value.__class__
    if cls is str:
        return _str_fragment(value)
    if cls is int:
        return repr(value)
    if cls is float:
        return repr(value) if -_INF < value < _INF else None
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return None


#: fixed record fields; a caller field colliding with one of these must
#: take the dict/fallback path to keep ``dict.update`` override semantics
_BASE_KEYS = frozenset({"type", "name", "sid", "pid", "wall"})

# Record *shapes* — (record type, name, field-key tuple) — are
# low-cardinality: one per instrumentation call site.  Each shape's
# skeleton is compiled once into a ``%``-format template ("%d" span id,
# "%s" pid slot, "%r" wall, one "%s" per field value), so the per-record
# work is a cache hit, one scalar fragment per field and a single
# C-level format — the name/key escaping and base-key collision check
# happen once per shape instead of once per record.  ``False`` marks a
# shape that must always take the fallback encoder (non-string name or
# a field colliding with a base key).

_TEMPLATES: dict[tuple, "str | bool"] = {}
_TEMPLATES_MAX = 4096


def _compile_template(key: tuple, head: str) -> "str | bool":
    """Compile (and cache) the template of the record shape ``key``.

    ``key`` is ``(record type, name, *field keys)``; ``head`` carries the
    fixed slots between ``name`` and the fields (:data:`_BEGIN_HEAD` or
    :data:`_EVENT_HEAD`).  Returns ``False`` for a shape that must always
    take the fallback encoder (a field colliding with a base key).
    """
    rtype, name, *fields = key
    if _BASE_KEYS.isdisjoint(fields):
        parts = ['"type": "' + rtype + '"',
                 '"name": ' + _str_fragment(name).replace("%", "%%"),
                 head]
        for field_key in fields:
            parts.append(_str_fragment(field_key).replace("%", "%%")
                         + ": %s")
        template: "str | bool" = "{" + ", ".join(parts) + "}"
    else:
        template = False
    if len(_TEMPLATES) < _TEMPLATES_MAX:
        _TEMPLATES[key] = template
    return template


#: the fixed slots of a ``begin`` / ``event`` record
_BEGIN_HEAD = '"sid": %d, "pid": %s, "wall": %r'
_EVENT_HEAD = '"pid": %s, "wall": %r'


class Tracer:
    """Appends structured records to a JSONL sink.

    ``sink`` is a path (opened for writing, truncating) or an open text
    file-like object (not closed by :meth:`close`).  Records are buffered
    and written out every :data:`BUFFER_LINES` lines and on
    :meth:`flush` / :meth:`close`.
    """

    __slots__ = ("_fh", "_owns_fh", "_buffer", "_next_sid", "_stack",
                 "_closed")

    def __init__(self, sink: str | Path | IO[str]) -> None:
        if isinstance(sink, (str, Path)):
            self._fh: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self._buffer = [_FALLBACK_ENCODE({"type": "meta",
                                          "schema": TRACE_SCHEMA})]
        self._next_sid = 1
        self._stack: list[int] = []
        self._closed = False

    # -- record emission ---------------------------------------------------
    def _emit(self, name: str, fields: dict[str, Any],
              sid: int | None = None) -> None:
        """Render one record and buffer it: a span's ``begin`` when
        ``sid`` is given, else an ``event``.

        The shape's template renders the line when every field is a
        scalar; anything else takes the fallback encoder.
        """
        stack = self._stack
        pid = stack[-1] if stack else None
        wall = time.perf_counter()
        slot = "null" if pid is None else pid
        if sid is None:
            rtype, head, values = "event", _EVENT_HEAD, [slot, wall]
        else:
            rtype, head, values = "begin", _BEGIN_HEAD, [sid, slot, wall]
        line: str | None = None
        if name.__class__ is str:
            key = (rtype, name, *fields)
            template = _TEMPLATES.get(key)
            if template is None:
                template = _compile_template(key, head)
            if template is not False:
                for value in fields.values():
                    fragment = _value_fragment(value)
                    if fragment is None:
                        break
                    values.append(fragment)
                else:
                    line = template % tuple(values)
        if line is None:
            record: dict[str, Any] = {"type": rtype, "name": name,
                                      "sid": sid, "pid": pid, "wall": wall}
            if sid is None:
                del record["sid"]
            record.update(fields)
            line = _FALLBACK_ENCODE(record)
        buffer = self._buffer
        buffer.append(line)
        if len(buffer) >= BUFFER_LINES:
            self.flush()

    def begin(self, name: str, **fields: Any) -> int:
        """Open a span; returns its id.  Close it with :meth:`end`."""
        sid = self._next_sid
        self._next_sid += 1
        self._emit(name, fields, sid)
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        """Close the span ``sid`` (must be the innermost open span)."""
        stack = self._stack
        if not stack or stack[-1] != sid:
            raise ValueError(
                f"span {sid} is not the innermost open span "
                f"(stack: {stack[-3:]})"
            )
        stack.pop()
        buffer = self._buffer
        buffer.append('{"type": "end", "sid": %d, "wall": %r}'
                      % (sid, time.perf_counter()))
        if len(buffer) >= BUFFER_LINES:
            self.flush()

    def span(self, name: str, **fields: Any) -> _profile.Scope:
        """Context manager opening a span around a ``with`` block."""
        return _profile.Scope(name, fields, tracer=self)

    def event(self, name: str, **fields: Any) -> None:
        """Record an instantaneous event inside the current span."""
        self._emit(name, fields)

    # -- lifecycle ----------------------------------------------------------
    def flush(self) -> None:
        """Write buffered records through to the sink.

        Safe to call on a closed tracer (a no-op), so unconditional
        flushes in ``finally`` blocks and at interpreter exit never
        raise on an already-closed sink.
        """
        if self._closed:
            return
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._fh.flush()

    def close(self) -> None:
        """Flush and (if this tracer opened the sink) close it."""
        if self._closed:
            return
        self.flush()
        if self._owns_fh:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close (flushing buffered records) — also when the body raised.

        Durability contract: a ``with Tracer(...)`` block never drops
        the buffered tail, whatever exception unwinds through it.
        """
        self.close()


# -- global (environment-driven) tracer ---------------------------------------

_GLOBAL: Tracer | None = None
_GLOBAL_LOADED = False
_ATEXIT_REGISTERED = False


def _flush_global_tracer() -> None:
    """``atexit`` hook: persist whatever the global tracer buffered.

    Flushes (rather than closes) so late ``atexit`` callbacks that still
    emit records keep working; the interpreter closes the file handle.
    """
    if _GLOBAL is not None:
        _GLOBAL.flush()


def _register_atexit_flush() -> None:
    """Install the global-tracer ``atexit`` flush exactly once."""
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        _ATEXIT_REGISTERED = True
        atexit.register(_flush_global_tracer)


def global_tracer() -> "Tracer | None":
    """The process-wide tracer, or ``None`` when tracing is off.

    On first call the ``REPRO_TRACE`` environment variable is consulted:
    a non-empty value names the JSONL output path and activates tracing
    for every instrumented component in the process.  Subsequent calls
    return the cached result, so the disabled path costs one global
    lookup and a ``None`` check.

    The first activated tracer also registers an ``atexit`` flush, so a
    process that exits (or crashes out of) a traced run without calling
    :meth:`Tracer.close` still leaves a parseable trace on disk.
    """
    global _GLOBAL, _GLOBAL_LOADED
    if not _GLOBAL_LOADED:
        _GLOBAL_LOADED = True
        # sanctioned observability gate: selects whether a trace is
        # *written*; the traced run's behaviour is unchanged by REPRO_TRACE
        path = os.environ.get("REPRO_TRACE", "").strip()
        if path:
            _GLOBAL = Tracer(path)
            _register_atexit_flush()
    return _GLOBAL


def set_global_tracer(tracer: "Tracer | None") -> "Tracer | None":
    """Install (or clear, with ``None``) the global tracer.

    Returns the previous tracer so tests can restore it.  Passing a
    tracer bypasses the ``REPRO_TRACE`` environment variable; passing
    ``None`` disables global tracing until the next explicit install
    (the environment variable is *not* re-read).
    """
    global _GLOBAL, _GLOBAL_LOADED
    previous = _GLOBAL if _GLOBAL_LOADED else None
    _GLOBAL = tracer
    _GLOBAL_LOADED = True
    if tracer is not None:
        _register_atexit_flush()
    return previous


# -- one span for the globally-instrumented sites ------------------------------

#: shared by every dark :func:`span` (stateless, so reentrant)
_DARK = nullcontext()


def span(name: str, **fields: Any) -> ContextManager:
    """Enter ``name`` on the process-global profiler and tracer.

    The instrumentation idiom of the NN stack and the trainer in one
    place: a profiler scope around a tracer span carrying ``fields``,
    each only if its global is active.  With both off the result is one
    shared null context.
    """
    tracer = global_tracer()
    profiler = _profile.global_profiler()
    if tracer is None and profiler is None:
        return _DARK
    return _profile.Scope(name, fields, profiler, tracer)


# -- reading traces back -------------------------------------------------------

@dataclass
class Span:
    """One reconstructed span of a parsed trace.

    Attributes
    ----------
    name, sid, pid:
        Identity: span name, span id, parent span id (``None`` for roots).
    fields:
        Extra key/value pairs attached at ``begin`` time.
    wall_begin, wall_end:
        ``perf_counter`` readings; ``wall_end`` is ``None`` for spans the
        trace never closed (e.g. a crashed run).
    children, events:
        Nested spans and the event records attributed to this span.
    """

    name: str
    sid: int
    pid: int | None
    fields: dict[str, Any] = field(default_factory=dict)
    wall_begin: float = 0.0
    wall_end: float | None = None
    children: list["Span"] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock span duration in seconds (0.0 if never closed)."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_begin

    def walk(self) -> "Iterable[Span]":
        """Yield this span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class TraceWarning(UserWarning):
    """A trace record was skipped during lenient (post-mortem) parsing."""


_META_KEYS = frozenset({"type", "name", "sid", "pid", "wall"})


def read_trace(path: str | Path, strict: bool = True) -> list[dict[str, Any]]:
    """Parse a JSONL trace file into a list of record dicts.

    ``strict=True`` (the default) raises :class:`ValueError` on the
    first malformed line.  ``strict=False`` is the post-mortem mode:
    truncated or corrupt lines (a run killed mid-write) and non-object
    records are skipped with a :class:`TraceWarning` naming the line,
    so analysis still works on the surviving records.
    """
    return read_jsonl(path, strict=strict, warn=TraceWarning)[0]


def build_span_tree(records: Iterable[dict[str, Any]]) -> list[Span]:
    """Reconstruct the span forest of a parsed trace.

    Returns the root spans (those with no parent).  Events are attached
    to their enclosing span; events emitted outside any span, and
    records of any other type, are dropped (they have no tree position).

    Post-mortem hardened: malformed records — a ``begin`` without a
    span id, an ``end`` for an unknown span, records that are not
    dicts — are skipped, so a tree can always be built from whatever a
    crashed run managed to write.
    """
    spans: dict[int, Span] = {}
    roots: list[Span] = []
    for record in records:
        if not isinstance(record, dict):
            continue
        rtype = record.get("type")
        if rtype == "begin":
            sid = record.get("sid")
            if not isinstance(sid, int):
                continue
            fields = {k: v for k, v in record.items() if k not in _META_KEYS}
            span = Span(
                name=str(record.get("name", "<unnamed>")),
                sid=sid,
                pid=record.get("pid"),
                fields=fields,
                wall_begin=record.get("wall", 0.0),
            )
            spans[span.sid] = span
            parent = spans.get(span.pid) if span.pid is not None else None
            if parent is not None:
                parent.children.append(span)
            else:
                roots.append(span)
        elif rtype == "end":
            sid = record.get("sid")
            span = spans.get(sid) if isinstance(sid, int) else None
            if span is not None:
                span.wall_end = record.get("wall")
        elif rtype == "event":
            pid = record.get("pid")
            span = spans.get(pid) if pid is not None else None
            if span is not None:
                span.events.append(record)
    return roots
