"""Outside-in span tracing for the traced pass.

The traced pass replaces class attributes of the repo's public methods
with timing wrappers defined here, records one span
``(layer, name, start, end, parent)`` per call in memory, and restores
the originals afterwards — nothing inside ``src/`` knows it is being
measured.  A layer's *self time* is the duration of its spans minus the
part their child spans cover, so the layers of one run add up to the
traced wall time and "where did the time go" has an answer.

The traced pass is never used for end-to-end numbers: every wrapper
costs two clock reads and a list append per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple


class Span(NamedTuple):
    """One timed call into a layer."""

    layer: str
    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`SpanRecorder.spans`, -1 at top level
    parent: int


#: called after a wrapped call returns, with (recorder counts, call args, result)
AfterHook = Callable[[dict[str, float], tuple, Any], None]


@dataclass
class SpanRecorder:
    """Spans and boundary counts of one traced pass, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    #: counts taken at the same boundaries as the spans (bytes, rows, hits)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, layer: str, name: str, fn: Callable,
             after: AfterHook | None = None) -> Callable:
        """A wrapper around ``fn`` that records one span per call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children see their parent
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = Span(layer, name, start, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced


@dataclass
class LayerTotals:
    """Aggregated spans of one ``(layer, name)`` pair."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, in span order.

    A span's self time is its duration minus the durations of its
    direct children (which in turn exclude their own children), so the
    self times of all spans sum to exactly the duration of the
    top-level ones.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    return [span.end - span.start - children
            for span, children in zip(spans, child_s)]


def aggregate(spans: list[Span]) -> dict[tuple[str, str], LayerTotals]:
    """Calls, total time and self time per ``(layer, name)``."""
    totals: dict[tuple[str, str], LayerTotals] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = totals.setdefault((span.layer, span.name), LayerTotals())
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += self_s
    return totals


class Target(NamedTuple):
    """One class attribute to wrap during a traced pass."""

    owner: type
    attr: str
    layer: str
    #: span name; several attributes may share one (``forward``/``__call__``)
    name: str
    after: AfterHook | None = None


@contextmanager
def patched(recorder: SpanRecorder, targets: list[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore.

    The raw class-dict entry is saved and put back, so properties and class methods keep
    their kind and an alias such as ``Network.__call__ = forward`` is
    restored to the very function object it held before.  Restoration
    runs on any exit, including an exception from the traced code.
    """
    saved: list[tuple[type, str, Any]] = []
    try:
        for target in targets:
            original = target.owner.__dict__[target.attr]
            saved.append((target.owner, target.attr, original))
            if isinstance(original, property):
                wrapper: Any = property(recorder.wrap(
                    target.layer, target.name, original.fget, target.after))
            elif isinstance(original, classmethod):
                wrapper = classmethod(recorder.wrap(
                    target.layer, target.name, original.__func__, target.after))
            else:
                wrapper = recorder.wrap(
                    target.layer, target.name, original, target.after)
            setattr(target.owner, target.attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
