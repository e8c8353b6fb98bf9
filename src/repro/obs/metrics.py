"""The fixed log-binned duration histogram, nearest-rank, event counters.

:class:`Timer` is the repo's one duration binning: ``repro trace
summarize`` bins decision latencies here and the HTML report's latency
chart draws the bins.  :class:`MetricsRegistry` holds named
:class:`Counter` s; :class:`~repro.sim.engine.Engine` keeps its
``engine.events_submit`` / ``engine.events_finish`` counts in one, as
``.metrics``.  Both are observe-only: nothing here feeds back into
simulation state.
"""

from __future__ import annotations

import math

# The edges are *data-independent*, so a streaming update is
# deterministic and order-independent: 4 bins per decade from 1
# microsecond to 100 seconds, plus an underflow bin (<= 1e-6 s, including
# zero/negative samples) and an overflow bin (> 1e2 s).  34 integer
# counts per histogram, updated with one ``log10`` and one list index per
# observation.

#: interior bin boundaries (``TIMER_HIST_EDGES[i-1], TIMER_HIST_EDGES[i]``
#: bound interior bin ``i``; bin 0 is underflow, bin -1 overflow)
TIMER_HIST_EDGES: tuple[float, ...] = tuple(
    10.0 ** (-6.0 + i / 4.0) for i in range(33)
)
_HIST_TOP = len(TIMER_HIST_EDGES)          # overflow bin index (33)
_LOG_LO = -6.0
_BINS_PER_DECADE = 4.0


def _hist_index(seconds: float) -> int:
    """The histogram bin index for one duration sample."""
    if seconds <= 1e-6:
        return 0
    index = int((math.log10(seconds) - _LOG_LO) * _BINS_PER_DECADE) + 1
    if index < 1:
        return 1
    if index > _HIST_TOP:
        return _HIST_TOP
    return index


def nearest_rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples.

    ``ceil(q * n)`` clamped into ``[1, n]``: the rank rule behind the
    exact percentiles of ``obs.analyze``.
    """
    return max(1, min(n, math.ceil(q * n)))


class Counter:
    """A monotonically increasing count; callers add to ``value``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class Timer:
    """Duration samples in the fixed log-binned histogram.

    Every observation lands in ``bins`` (see :data:`TIMER_HIST_EDGES`),
    so the same samples produce the same bins in any arrival order.
    """

    __slots__ = ("count", "total", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        #: underflow + 32 log-spaced interior bins + overflow
        self.bins = [0] * (_HIST_TOP + 1)

    def observe(self, seconds: float) -> None:
        """Record one duration sample (in seconds)."""
        self.count += 1
        self.total += seconds
        self.bins[_hist_index(seconds)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observed durations."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named counters: asking for an existing name returns the same object,
    so hot paths can cache the counter once and skip the dict lookup."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter
