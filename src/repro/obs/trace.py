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
workload measures it), so records are rendered from compiled *record
shapes*.  A shape — record type, name, field keys and the class of each
value — is compiled once per tracer into a ``%``-format template (name
and keys escaped, a ``%d`` slot per ``int``, a ``%s`` slot per ``float``
or ``str``) and an emitter that takes the values positionally.  An
emit is one exact-type gate (``int``, finite ``float``, ``str``) and
one ``%``; a ``str`` goes in as its memoized ``json.dumps`` fragment
and a ``float`` as its ``repr``, kept per field key so a clock value
shared by consecutive records is rendered once.  A value that fails
the gate — numpy scalars, bools, ``None``, lists, non-finite floats —
sends the record to a shared :class:`json.JSONEncoder`.  Either way
the line equals ``json.dumps`` of the record byte for byte.  Hot call
sites bind their shapes up front (:meth:`Tracer.event_shape`,
:meth:`Tracer.begin_shape`); :meth:`Tracer.event` and
:meth:`Tracer.begin` look theirs up from the keyword fields.  The
line is rendered *at emit time* — field values are captured
immediately, so callers may mutate them afterwards — and buffered
lines are written out in one batched ``write`` per
:meth:`Tracer.flush`, which runs every :data:`BUFFER_LINES` records
and on :meth:`Tracer.close`.  A closed tracer refuses records with
:class:`ValueError`.

The module also holds the process-global channel set (:class:`Channels`:
the current tracer, profiler and live bus) that every instrumented site
reads.  :func:`channels` builds it from ``REPRO_TRACE`` /
``REPRO_PROFILE`` / ``REPRO_LIVE`` once per process, and :func:`sinks`
makes explicit sinks current for a block.  ``Engine(trace=...)``, with
a path or a :class:`Tracer`, is such a block for one run, so the
policy's ``agent.*`` and ``nn.*`` spans land in the engine's tracer too.

When no tracer is active the instrumented hot paths cost a single
``None`` check, and a traced run is bit-identical to an untraced one:
the tracer only appends to its sink and never reads or mutates
simulation, RNG or network state.  :func:`read_trace` and
:func:`build_span_tree` read a trace back into a span forest.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, ContextManager, IO, Iterable, Iterator,
                    NamedTuple)

from repro.obs import profile as _profile
from repro.obs.jsonl import read_jsonl
from repro.obs.live import LiveBus, live_from_spec

#: schema tag stamped into the first record of every trace file
TRACE_SCHEMA = "repro.trace/v1"

#: records buffered before a :meth:`Tracer.flush` writes them out, so
#: the per-record cost is rendering one string plus a list append
BUFFER_LINES = 256

#: every span / event name the code emits: the registry trace analysis
#: keys on (docs/observability.md).  A traced, faulted simulation plus
#: a traced training run emit exactly this set, no more and no less
#: (``tests/test_engine_seam.py``)
SPAN_NAMES = frozenset({
    "engine.instance",
    "engine.allocate",
    "engine.release",
    "engine.backfill_reserve",
    "engine.node_fail",
    "engine.node_repair",
    "engine.job_kill",
    "engine.job_abandon",
    "agent.encode",
    "agent.sample",
    "agent.reward",
    "nn.forward",
    "nn.backward",
    "nn.adam_step",
    "train.episode",
    "train.validate",
    "train.checkpoint",
})


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars (``.item()``) and other non-JSON types."""
    item = getattr(value, "item", None)
    return item() if callable(item) else str(value)


# -- record shapes -------------------------------------------------------------
#
# One shared fallback encoder (building a JSONEncoder per record, as
# ``json.dumps(..., default=...)`` does, is measurable at trace rates)
# plus compiled record shapes that mirror its output byte for byte.

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


#: the slot each value class fills: ``%d`` prints an ``int`` as
#: ``json.dumps`` does; a finite ``float`` and a ``str`` go in as their
#: ``json.dumps`` fragments (``repr`` and the string memo)
_SLOTS = {int: "%d", float: "%s", str: "%s"}

#: fixed record fields; a caller field colliding with one of these must
#: take the fallback encoder to keep ``dict.update`` override semantics
_BASE_KEYS = frozenset({"type", "name", "sid", "pid", "wall"})

#: the fixed slots of a ``begin`` / ``event`` record, after ``name``
_HEADS = {"begin": '"sid": %d, "pid": %s, "wall": %r',
          "event": '"pid": %s, "wall": %r'}

#: record shapes one tracer keeps compiled; a shape is one per
#: instrumentation call site, so this only caps pathological callers
_SHAPES_MAX = 4096


def _compile_template(rtype: str, name: Any, keys: tuple[str, ...],
                      types: tuple[type, ...]) -> str | None:
    """The ``%``-template of one record shape, or ``None`` when its
    records always take the fallback encoder (a non-string name, a key
    colliding with a base field, a value type with no slot)."""
    if (name.__class__ is not str or not _BASE_KEYS.isdisjoint(keys)
            or not all(cls in _SLOTS for cls in types)):
        return None
    parts = ['"type": "' + rtype + '"',
             '"name": ' + _str_fragment(name).replace("%", "%%"),
             _HEADS[rtype]]
    parts += [_str_fragment(key).replace("%", "%%") + ": " + _SLOTS[cls]
              for key, cls in zip(keys, types)]
    return "{" + ", ".join(parts) + "}"


class Tracer:
    """Appends structured records to a JSONL sink.

    ``sink`` is a path (opened for writing, truncating) or an open text
    file-like object (not closed by :meth:`close`).  Records are buffered
    and written out every :data:`BUFFER_LINES` lines and on
    :meth:`flush` / :meth:`close`.  Emitting a record on a closed tracer
    raises :class:`ValueError`.
    """

    __slots__ = ("_fh", "_owns_fh", "_buffer", "_sids", "_stack",
                 "_closed", "_shapes", "_floats")

    def __init__(self, sink: str | Path | IO[str]) -> None:
        if isinstance(sink, (str, Path)):
            self._fh: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self._buffer = [_FALLBACK_ENCODE({"type": "meta",
                                          "schema": TRACE_SCHEMA})]
        self._sids = itertools.count(1)
        self._stack: list[int] = []
        self._closed = False
        self._shapes: dict[tuple, Callable[..., Any]] = {}
        #: field key -> [last float, its ``repr``]: the clock ``t`` of
        #: one engine instance is rendered once for all its records
        self._floats: dict[str, list] = {}

    # -- record emission ---------------------------------------------------
    def _shape(self, rtype: str, name: Any, keys: tuple[str, ...],
               types: tuple[type, ...]) -> Callable[..., Any]:
        """The emitter of one record shape, compiled on first use."""
        if name.__class__ is not str:  # possibly unhashable
            return self._compile(rtype, name, keys, types)
        shape = (rtype, name, keys, types)
        emit = self._shapes.get(shape)
        if emit is None:
            emit = self._compile(rtype, name, keys, types)
            if len(self._shapes) < _SHAPES_MAX:
                self._shapes[shape] = emit
        return emit

    def _compile(self, rtype: str, name: Any, keys: tuple[str, ...],
                 types: tuple[type, ...]) -> Callable[..., Any]:
        """Compile one record shape into its emitter on this tracer.

        The emitter takes one value per key.  When every value's class
        is exactly its slot's type (a ``float`` also finite) the line is
        the shape's template filled by one ``%``; anything else — numpy
        scalars, bools, ``None``, lists, non-finite floats — goes to the
        fallback encoder.  A ``begin`` emitter opens the span and
        returns its id.
        """
        template = _compile_template(rtype, name, keys, types)
        begin = rtype == "begin"
        head = 3 if begin else 2    # sid?, pid, wall
        floats = tuple((head + i, self._floats.setdefault(key, [None, ""]))
                       for i, (key, cls) in enumerate(zip(keys, types))
                       if cls is float)
        strs = tuple(head + i for i, cls in enumerate(types) if cls is str)
        buffer, stack, clock = self._buffer, self._stack, time.perf_counter
        next_sid = self._sids.__next__

        def emit(*values: Any) -> int | None:
            if self._closed:
                raise ValueError(f"record {name!r} emitted on a closed Tracer")
            pid = stack[-1] if stack else "null"
            sid = next_sid() if begin else None
            args = ([sid, pid, clock(), *values] if begin
                    else [pid, clock(), *values])
            line = None
            if template is not None and tuple(map(type, values)) == types:
                for i, memo in floats:
                    value = args[i]
                    # equal floats share their bits, bar 0.0 == -0.0
                    if value != memo[0] or not value:
                        if not -_INF < value < _INF:
                            break
                        memo[0], memo[1] = value, repr(value)
                    args[i] = memo[1]
                else:
                    for i in strs:
                        args[i] = _str_fragment(args[i])
                    line = template % tuple(args)
            if line is None:
                record = {"type": rtype, "name": name, "sid": sid,
                          "pid": stack[-1] if stack else None,
                          "wall": args[head - 1]}
                if not begin:
                    del record["sid"]
                record.update(zip(keys, values))
                line = _FALLBACK_ENCODE(record)
            buffer.append(line)
            if len(buffer) >= BUFFER_LINES:
                self.flush()
            if begin:
                stack.append(sid)
            return sid

        return emit

    def event_shape(self, name: str, /, **types: type) -> Callable[..., None]:
        """Compile ``name``'s event records; returns their emitter.

        ``types`` maps each field key, in record order, to the class of
        its values (``int``, ``float`` or ``str``); the emitter takes one
        positional value per key.  A value of any other class still
        renders, through the fallback encoder.
        """
        return self._shape("event", name, tuple(types), tuple(types.values()))

    def begin_shape(self, name: str, /, **types: type) -> Callable[..., int]:
        """As :meth:`event_shape`, for ``name``'s spans: the emitter opens
        one and returns its id (close it with :meth:`end`)."""
        return self._shape("begin", name, tuple(types), tuple(types.values()))

    def begin(self, name: str, /, **fields: Any) -> int:
        """Open a span; returns its id.  Close it with :meth:`end`."""
        values = tuple(fields.values())
        return self._shape("begin", name, tuple(fields),
                           tuple(map(type, values)))(*values)

    def end(self, sid: int) -> None:
        """Close the span ``sid`` (must be the innermost open span)."""
        if self._closed:
            raise ValueError(f"span {sid} ended on a closed Tracer")
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

    def event(self, name: str, /, **fields: Any) -> None:
        """Record an instantaneous event inside the current span."""
        values = tuple(fields.values())
        self._shape("event", name, tuple(fields),
                    tuple(map(type, values)))(*values)

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


# -- the process-global channel set --------------------------------------------

class Channels(NamedTuple):
    """The current sink of each observability channel (``None``: off)."""

    tracer: Tracer | None = None
    profiler: _profile.Profiler | None = None
    live: LiveBus | None = None


#: what every instrumented site records to; ``None`` until
#: :func:`channels` first reads the environment
_CURRENT: Channels | None = None


def _persist(env: Channels, profile_path: str) -> None:
    """``atexit`` hook: write the ``REPRO_PROFILE`` profile and flush (not
    close: late ``atexit`` callbacks may still emit) the ``REPRO_TRACE``
    tracer."""
    if env.tracer is not None:
        env.tracer.flush()
    if env.profiler is not None:
        try:
            env.profiler.write_json(profile_path)
        except OSError:  # the destination vanished; nothing sane to do at exit
            pass


def channels() -> Channels:
    """The current channel set: what every instrumented site records to.

    The first call reads ``REPRO_TRACE`` (a JSONL trace path),
    ``REPRO_PROFILE`` (the profile's JSON path) and ``REPRO_LIVE`` (a
    :func:`~repro.obs.live.live_from_spec` spec), once per process; a
    file channel registers the ``atexit`` hook, so a process that exits
    or crashes still leaves its trace and profile.
    """
    global _CURRENT
    if _CURRENT is None:
        # sanctioned observability gates: they select what is *recorded*;
        # a run's behaviour and results are unchanged by them
        env = os.environ.get
        live = live_from_spec(env("REPRO_LIVE", ""))
        trace_path = env("REPRO_TRACE", "").strip()
        profile_path = env("REPRO_PROFILE", "").strip()
        _CURRENT = Channels(Tracer(trace_path) if trace_path else None,
                            _profile.Profiler() if profile_path else None,
                            live)
        if trace_path or profile_path:
            atexit.register(_persist, _CURRENT, profile_path)
    return _CURRENT


@contextmanager
def sinks(tracer: Tracer | None = None,
          profiler: "_profile.Profiler | None" = None,
          live: LiveBus | None = None, *,
          inherit: bool = True) -> Iterator[Channels]:
    """Make explicit sinks the current channels for a ``with`` block.

    Channel by channel, a sink given here wins; a channel given ``None``
    keeps its current sink, or is off with ``inherit=False`` (which
    reads no environment variable).  The previous set comes back on any
    exit.  Yields the set in force inside.
    """
    global _CURRENT
    previous = channels() if inherit else _CURRENT
    base = previous if inherit else Channels()
    _CURRENT = Channels(base.tracer if tracer is None else tracer,
                        base.profiler if profiler is None else profiler,
                        base.live if live is None else live)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous


#: shared by every dark :func:`span` (stateless, so reentrant)
_DARK = nullcontext()


def span(name: str, /, **fields: Any) -> ContextManager:
    """Enter ``name`` on the current profiler and tracer: a profiler
    scope around a tracer span carrying ``fields``, each only if its
    channel is on, else one shared null context."""
    tracer, profiler, _ = _CURRENT or channels()
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
            fields = {k: v for k, v in record.items() if k not in _BASE_KEYS}
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
