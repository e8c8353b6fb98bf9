"""Deterministic hierarchical wall-time profiler for the hot paths.

A :class:`Profiler` accumulates an in-memory tree of named scopes —
one :class:`ProfileNode` per distinct call path — counting entries and
summing ``time.perf_counter()`` wall time.  The instrumented sites are
the ones ``benchmarks/perf/`` attributes wall time to:

* ``engine.run`` / ``engine.instance`` / ``engine.schedule`` — the
  event loop, one scope per simulated timestamp, and the policy call
  inside it (:mod:`repro.sim.engine`);
* ``nn.forward`` / ``nn.backward`` / ``nn.adam_step`` — the NN stack
  (:mod:`repro.nn.network`, :mod:`repro.nn.optim`);
* ``train.episode`` / ``train.validate`` — each trainer engine run, with
  its ``engine.run`` beneath (:mod:`repro.rl.trainer`).

:meth:`Profiler.fold` builds the same tree from a trace's spans, so
``repro trace summarize`` and a live profile share one table.

The contract mirrors the tracer (:mod:`repro.obs.trace`): when no
profiler is active every instrumented site costs a single ``None``
check, and a profiled run is **bit-identical** to an unprofiled one in
simulated time — the profiler only reads the monotonic duration clock
and mutates its own tree, never simulation, RNG or network state.
Call counts and tree shape are fully deterministic for a fixed
workload; only the accumulated wall seconds vary between machines.

Activation, like ``REPRO_TRACE`` / ``REPRO_SANITIZE``:

* globally, via ``REPRO_PROFILE=/path/to/profile.json`` — the profile
  is written as JSON when the process exits (``atexit``), or
* per engine, via ``Engine(profile=...)`` with a :class:`Profiler`, or
* ad hoc::

      profiler = Profiler()
      with profiler.scope("my.phase"):
          ...
      print(profiler.format_table())
"""

from __future__ import annotations

import atexit
import json
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.obs.jsonl import atomic_write

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

#: schema tag stamped into every profile JSON document
PROFILE_SCHEMA = "repro.profile/v1"


class ProfileNode:
    """One scope at one position of the profile tree.

    Attributes
    ----------
    name:
        Scope name (e.g. ``"engine.instance"``).  The same name can
        appear at several tree positions; :meth:`Profiler.flat`
        aggregates across positions.
    calls:
        How many times the scope was entered at this position.
    total_s:
        Wall seconds accumulated across all entries (cumulative — it
        includes time spent in child scopes).
    children:
        Child scopes keyed by name, in first-entry order.
    """

    __slots__ = ("name", "calls", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.children: dict[str, ProfileNode] = {}

    @property
    def self_s(self) -> float:
        """Wall seconds spent in this scope excluding child scopes."""
        return self.total_s - sum(c.total_s for c in self.children.values())

    def walk(self) -> "Iterator[ProfileNode]":
        """Yield this node and all descendants, depth-first."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def as_dict(self) -> dict[str, Any]:
        """The subtree as plain JSON-ready dicts."""
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "children": [c.as_dict() for c in self.children.values()],
        }


@dataclass(frozen=True)
class FlatEntry:
    """Aggregate of one scope name across every tree position.

    ``cum_s`` sums the cumulative time of *top-most* occurrences only
    (a recursive or re-parented scope is not double counted);
    ``self_s`` sums the exclusive time of every occurrence.
    """

    name: str
    calls: int
    cum_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        """Mean cumulative wall seconds per call."""
        return self.cum_s / self.calls if self.calls else 0.0


class Profiler:
    """Accumulates a deterministic tree of timed scopes.

    Scopes nest: :meth:`push`/:meth:`pop` (or the :meth:`scope` context
    manager) attach each entered scope under the innermost open one.
    The per-entry cost is two ``perf_counter`` reads, one dict lookup
    and float/int adds — cheap enough for per-instance scoping, but the
    hot paths still gate on ``profiler is None`` so the disabled path
    costs exactly one branch.
    """

    __slots__ = ("_root", "_stack")

    def __init__(self) -> None:
        self._root = ProfileNode("<root>")
        #: (node, entry perf_counter) for every open scope
        self._stack: list[tuple[ProfileNode, float]] = []

    # -- recording ---------------------------------------------------------
    def push(self, name: str) -> None:
        """Enter the scope ``name`` under the innermost open scope."""
        parent = self._stack[-1][0] if self._stack else self._root
        node = parent.children.get(name)
        if node is None:
            node = ProfileNode(name)
            parent.children[name] = node
        node.calls += 1
        self._stack.append((node, _perf_counter()))

    def pop(self) -> None:
        """Leave the innermost open scope, accumulating its wall time."""
        if not self._stack:
            raise ValueError("pop() without a matching push()")
        node, t0 = self._stack.pop()
        node.total_s += _perf_counter() - t0

    def scope(self, name: str) -> Scope:
        """Context manager timing a ``with`` block as scope ``name``."""
        return Scope(name, {}, profiler=self)

    def fold(self, spans: Iterable[Any]) -> "Profiler":
        """Add recorded spans (a :class:`~repro.obs.trace.Span` forest).

        Each span is one call at its path, timed by its recorded
        ``wall_begin`` / ``wall_end``.  A span the trace never closed is a
        call lasting as long as its closed children: zero for a leaf, and
        never any self time.  Returns ``self``.
        """
        def add(parent: ProfileNode, span: Any) -> float:
            node = parent.children.get(span.name)
            if node is None:
                node = parent.children[span.name] = ProfileNode(span.name)
            node.calls += 1
            inner = sum(add(node, child) for child in span.children)
            seconds = inner if span.wall_end is None else span.duration
            node.total_s += seconds
            return seconds

        for span in spans:
            add(self._root, span)
        return self

    @property
    def open_depth(self) -> int:
        """How many scopes are currently open (nesting depth)."""
        return len(self._stack)

    def pop_to(self, depth: int) -> None:
        """Close open scopes until :attr:`open_depth` equals ``depth``.

        Exception-unwind helper: a caller records ``open_depth`` before
        pushing its scopes and restores it in a ``finally`` block, so a
        raise inside an instrumented region cannot leak open scopes
        into the caller's profile.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        while len(self._stack) > depth:
            self.pop()

    # -- inspection --------------------------------------------------------
    @property
    def roots(self) -> list[ProfileNode]:
        """The top-level scopes recorded so far."""
        return list(self._root.children.values())

    def flat(self) -> list[FlatEntry]:
        """Hot-path attribution: per-name aggregates, hottest first.

        Sorted by exclusive (self) time, descending, then by name for a
        deterministic order between equal-cost scopes.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        cum_s: dict[str, float] = {}

        def visit(node: ProfileNode, inside: frozenset[str]) -> None:
            calls[node.name] = calls.get(node.name, 0) + node.calls
            self_s[node.name] = self_s.get(node.name, 0.0) + node.self_s
            if node.name not in inside:
                cum_s[node.name] = cum_s.get(node.name, 0.0) + node.total_s
            nested = inside | {node.name}
            for child in node.children.values():
                visit(child, nested)

        for root in self._root.children.values():
            visit(root, frozenset())
        return sorted(
            (
                FlatEntry(name, calls[name], cum_s.get(name, 0.0), self_s[name])
                for name in calls
            ),
            key=lambda e: (-e.self_s, e.name),
        )

    def total_s(self) -> float:
        """Wall seconds covered by the top-level scopes."""
        return sum(r.total_s for r in self._root.children.values())

    def as_dict(self) -> dict[str, Any]:
        """The whole profile as a JSON-ready document."""
        return {
            "schema": PROFILE_SCHEMA,
            "total_s": self.total_s(),
            "roots": [r.as_dict() for r in self.roots],
            "flat": [
                {"name": e.name, "calls": e.calls, "cum_s": e.cum_s,
                 "self_s": e.self_s, "mean_s": e.mean_s}
                for e in self.flat()
            ],
        }

    def format_table(self, top: int = 20) -> str:
        """A terminal-friendly hot-path attribution table."""
        entries = self.flat()[:top]
        total = self.total_s() or 1.0
        lines = [
            f"{'scope':<28} {'calls':>9} {'cum s':>10} {'self s':>10} "
            f"{'self %':>7} {'mean ms':>9}"
        ]
        for e in entries:
            lines.append(
                f"{e.name:<28} {e.calls:>9,d} {e.cum_s:>10.4f} "
                f"{e.self_s:>10.4f} {100.0 * e.self_s / total:>6.1f}% "
                f"{1e3 * e.mean_s:>9.4f}"
            )
        return "\n".join(lines)

    # -- lifecycle ---------------------------------------------------------
    def write_json(self, path: str | Path) -> Path:
        """Atomically write the profile document as pretty-printed JSON."""
        with atomic_write(path) as fh:
            fh.write(json.dumps(self.as_dict(), indent=2, sort_keys=True)
                     + "\n")
        return Path(path)


class Scope:
    """One ``with`` block timed on a profiler, traced on a tracer, or both.

    What :meth:`Profiler.scope`, :meth:`repro.obs.trace.Tracer.span` and
    :func:`repro.obs.trace.span` return.  Entering pushes the profiler
    scope, then opens the tracer span carrying ``fields``; leaving closes
    them in reverse order, also when the block raised.
    """

    __slots__ = ("_name", "_fields", "_profiler", "_tracer", "_sid")

    def __init__(self, name: str, fields: dict[str, Any],
                 profiler: Profiler | None = None,
                 tracer: "Tracer | None" = None) -> None:
        self._name = name
        self._fields = fields
        self._profiler = profiler
        self._tracer = tracer
        self._sid = -1

    def __enter__(self) -> "Scope":
        if self._profiler is not None:
            self._profiler.push(self._name)
        if self._tracer is not None:
            self._sid = self._tracer.begin(self._name, **self._fields)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._tracer is not None:
            self._tracer.end(self._sid)
        if self._profiler is not None:
            self._profiler.pop()


# -- global (environment-driven) profiler --------------------------------------

_GLOBAL: Profiler | None = None
_GLOBAL_LOADED = False


def _write_global_profile(profiler: Profiler, path: str) -> None:
    """``atexit`` hook: persist the env-activated profile as JSON."""
    try:
        profiler.write_json(path)
    except OSError:  # the destination vanished; nothing sane to do at exit
        pass


def global_profiler() -> "Profiler | None":
    """The process-wide profiler, or ``None`` when profiling is off.

    On first call the ``REPRO_PROFILE`` environment variable is
    consulted: a non-empty value activates profiling for every
    instrumented component in the process and names the JSON file the
    profile is written to at interpreter exit.  Subsequent calls return
    the cached result, so the disabled path costs one global lookup and
    a ``None`` check.
    """
    global _GLOBAL, _GLOBAL_LOADED
    if not _GLOBAL_LOADED:
        _GLOBAL_LOADED = True
        # sanctioned observability gate: enables timing collection only;
        # simulation results are identical with and without REPRO_PROFILE
        path = os.environ.get("REPRO_PROFILE", "").strip()
        if path:
            _GLOBAL = Profiler()
            atexit.register(_write_global_profile, _GLOBAL, path)
    return _GLOBAL


def set_global_profiler(profiler: "Profiler | None") -> "Profiler | None":
    """Install (or clear, with ``None``) the global profiler.

    Returns the previous profiler so tests can restore it.  Installing
    bypasses ``REPRO_PROFILE``; clearing disables global profiling
    until the next explicit install (the variable is *not* re-read).
    Unlike the env path, explicitly installed profilers are not written
    anywhere at exit — the caller owns persistence.
    """
    global _GLOBAL, _GLOBAL_LOADED
    previous = _GLOBAL if _GLOBAL_LOADED else None
    _GLOBAL = profiler
    _GLOBAL_LOADED = True
    return previous

