"""Discrete-event machinery for the trace-driven simulator.

A binary heap orders events by ``(time, priority, sequence)``: it holds
``(time, kind, seq, event)`` tuples, so ``heapq`` compares them in C and
never reaches the event, since ``seq`` is unique.  The
sequence number makes the ordering total and deterministic, which keeps
whole simulations reproducible bit-for-bit — essential for RL training
(same seed, same trajectory) and for regression tests.

Events can be *cancelled* after being scheduled (lazy deletion): a job
killed by a node failure leaves a stale ``FINISH`` event in the heap,
which the queue silently discards when it reaches the top.
"""

from __future__ import annotations

import enum
import heapq
import itertools


class EventKind(enum.IntEnum):
    """Kinds of simulator events.

    The integer values double as tie-breaking priorities for events at
    the same timestamp: completions are processed before arrivals so a
    job finishing at time *t* frees its nodes before jobs arriving at
    *t* are considered.  Node repairs likewise restore capacity before
    arrivals are considered, while failures strike *after* completions
    and arrivals at the same instant — a job that finishes exactly when
    its node dies is credited with its work, matching the graceful
    interpretation used by production resource managers.
    """

    FINISH = 0
    NODE_REPAIR = 1
    SUBMIT = 2
    NODE_FAIL = 3
    JOB_KILL = 4


class Event:
    """One timestamped occurrence (job finish/submit, node fail/repair).

    The queue orders events by ``(time, kind, seq)``: finishes sort
    before submits at the same timestamp, and ``seq`` breaks remaining
    ties by insertion order, keeping the heap deterministic.  ``job_id``
    carries the subject job for job events and ``node`` the subject node
    for node events; the unused field stays ``-1``.  ``cancelled``
    marks an event as dead without removing it from the heap.

    A plain ``__slots__`` class rather than a dataclass: the heap holds
    one instance per simulated event, so construction is on the hottest
    path of the whole simulator.
    """

    __slots__ = ("time", "kind", "seq", "job_id", "node", "cancelled")

    def __init__(self, time: float, kind: EventKind, seq: int,
                 job_id: int = -1, node: int = -1) -> None:
        self.time = time
        self.kind = kind
        self.seq = seq
        self.job_id = job_id
        self.node = node
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(time={self.time!r}, kind={self.kind!r}, "
                f"seq={self.seq!r}, job_id={self.job_id!r}, "
                f"node={self.node!r}, cancelled={self.cancelled!r})")


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0

    def push(self, time: float, kind: EventKind, job_id: int = -1,
             node: int = -1) -> Event:
        """Schedule an event; returns the stored :class:`Event`."""
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        time = float(time)
        seq = next(self._seq)
        event = Event(time, kind, seq, job_id, node)
        heapq.heappush(self._heap, (time, kind, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Mark a scheduled event as dead (lazily removed on pop).

        Cancelling an already-cancelled event is a no-op, so callers do
        not need to track whether a handle was invalidated before.
        """
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def _prune(self) -> None:
        """Drop cancelled events from the top of the heap."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        self._prune()
        if not self._heap:
            raise IndexError("pop from empty event queue")
        self._live -= 1
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Event:
        """Return the earliest live event without removing it."""
        self._prune()
        if not self._heap:
            raise IndexError("peek at empty event queue")
        return self._heap[0][3]

    def pop_simultaneous(self) -> list[Event]:
        """Pop every live event sharing the earliest timestamp.

        The simulator treats all events at one timestamp as a single
        scheduling instance: first apply all completions and arrivals,
        then invoke the policy once.
        """
        if not self:
            raise IndexError("pop from empty event queue")
        first = self.pop()
        batch = [first]
        while True:
            self._prune()
            # stored-value equality: both sides are the same pushed
            # float, not recomputed arithmetic
            if not self._heap or self._heap[0][0] != first.time:  # repro: noqa[float-time-eq]
                break
            batch.append(self.pop())
        return batch

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._live = 0
