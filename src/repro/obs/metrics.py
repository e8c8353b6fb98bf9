"""Lightweight always-on metrics: counters, gauges, EMA wall-clock timers.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Instruments are plain Python objects with ``__slots__`` and integer /
float arithmetic only — cheap enough to leave enabled permanently in
the simulator hot loop (``events_per_s`` on the ``theta_easy`` /
``cori_easy`` workloads of ``BENCHMARK.json`` is measured with them on).

Instruments never feed back into simulation state; they are
observe-only, so runs with and without consumers reading them are
bit-identical.

Usage::

    registry = MetricsRegistry()
    registry.counter("jobs.started").inc()
    registry.gauge("queue.depth").set(17)
    with registry.timer("schedule_s").time():
        policy.schedule(view)
    registry.snapshot()   # plain-dict summary of every instrument

:class:`~repro.sim.engine.Engine`, :class:`~repro.rl.trainer.Trainer`
and every scheduler deriving from
:class:`~repro.schedulers.base.BaseScheduler` expose a registry as
``.metrics``.
"""

from __future__ import annotations

import math
import time
from typing import Any

# -- fixed log-binned duration histogram ---------------------------------------
#
# The repo's one duration binning: live timers, ``repro trace summarize``
# and the HTML report's latency chart all bin here.  The edges are
# *data-independent*, so a streaming update is deterministic and
# order-independent: 4 bins per decade from 1 microsecond to 100 seconds,
# plus an underflow bin (<= 1e-6 s, including zero/negative samples) and
# an overflow bin (> 1e2 s).   34 integer counts per timer, updated with
# one ``log10`` and one list index per observation.

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


def _hist_representative(index: int) -> float:
    """The value reported for a quantile landing in bin ``index``.

    Geometric midpoint of the interior bin; the boundary edge for the
    underflow/overflow bins.  Purely a function of the bin, so quantile
    estimates are deterministic for a given set of counts.
    """
    if index <= 0:
        return TIMER_HIST_EDGES[0]
    if index >= _HIST_TOP:
        return TIMER_HIST_EDGES[-1]
    return math.sqrt(TIMER_HIST_EDGES[index - 1] * TIMER_HIST_EDGES[index])


def nearest_rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples.

    ``ceil(q * n)`` clamped into ``[1, n]``: the one rank rule behind
    binned (:meth:`Timer.quantile`) and exact (``obs.analyze``) percentiles.
    """
    return max(1, min(n, math.ceil(q * n)))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n

    def reset(self) -> None:
        """Zero the count (fresh-run semantics; the name stays bound)."""
        self.value = 0


class Gauge:
    """A value that goes up and down, remembering its extremes."""

    __slots__ = ("value", "min", "max", "samples")

    def __init__(self) -> None:
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples = 0

    def set(self, value: float) -> None:
        """Record the current value of the tracked quantity."""
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.samples += 1

    def reset(self) -> None:
        """Forget every sample and the tracked extremes."""
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples = 0


class Timer:
    """Accumulates wall-clock durations with an exponential moving average.

    Durations come from ``time.perf_counter()`` (monotonic, never the
    host date).  ``ema`` smooths with factor ``ema_alpha`` — the first
    observation seeds it, after which
    ``ema = alpha * sample + (1 - alpha) * ema``.

    Every observation also lands in a fixed log-binned histogram
    (``bins``; see :data:`TIMER_HIST_EDGES`), from which
    :meth:`quantile` and the ``p50``/``p90``/``p99`` properties derive
    deterministic nearest-rank estimates — the same samples produce the
    same quantiles in any arrival order.
    """

    __slots__ = ("count", "total", "last", "ema", "ema_alpha", "bins")

    def __init__(self, ema_alpha: float = 0.2) -> None:
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        self.count = 0
        self.total = 0.0
        self.last = 0.0
        self.ema = 0.0
        self.ema_alpha = ema_alpha
        #: underflow + 32 log-spaced interior bins + overflow
        self.bins = [0] * (_HIST_TOP + 1)

    def observe(self, seconds: float) -> None:
        """Record one duration sample (in seconds)."""
        self.count += 1
        self.total += seconds
        self.last = seconds
        if self.count == 1:
            self.ema = seconds
        else:
            self.ema += self.ema_alpha * (seconds - self.ema)
        self.bins[_hist_index(seconds)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observed durations."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the binned samples.

        Resolution is the histogram's (4 bins/decade); the estimate is
        the geometric midpoint of the bin holding the ranked sample.
        Returns 0.0 with no observations.
        """
        total = sum(self.bins)
        if total == 0:
            return 0.0
        rank = nearest_rank(q, total)
        seen = 0
        for index, bin_count in enumerate(self.bins):
            seen += bin_count
            if seen >= rank:
                return _hist_representative(index)
        return _hist_representative(_HIST_TOP)

    @property
    def p50(self) -> float:
        """Median duration estimate (binned nearest-rank)."""
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        """90th-percentile duration estimate (binned nearest-rank)."""
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        """99th-percentile duration estimate (binned nearest-rank)."""
        return self.quantile(0.99)

    def reset(self) -> None:
        """Forget every observation (``ema_alpha`` is kept)."""
        self.count = 0
        self.total = 0.0
        self.last = 0.0
        self.ema = 0.0
        self.bins = [0] * (_HIST_TOP + 1)

    def time(self) -> "_TimerContext":
        """Context manager observing the duration of a ``with`` block."""
        return _TimerContext(self)


class _TimerContext:
    """Context manager produced by :meth:`Timer.time`."""

    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._t0 = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Flat get-or-create namespace of named instruments.

    Asking for an existing name returns the same instrument object, so
    hot paths can cache the instrument once and skip the dict lookup.
    A name is bound to one instrument kind for the registry's lifetime.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, factory: type, **kwargs: Any) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(**kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {factory.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def timer(self, name: str, ema_alpha: float = 0.2) -> Timer:
        """Get or create the timer ``name``."""
        return self._get(name, Timer, ema_alpha=ema_alpha)

    def alias(self, name: str, instrument: Any) -> None:
        """Bind an existing instrument object under ``name`` here.

        Lets two registries share one instrument so hot paths record a
        sample exactly once (the engine aliases its ``schedule_s`` timer
        and ``instances`` counter into the scheduler's registry at the
        start of every run).  Replaces any previous binding.
        """
        if not isinstance(instrument, (Counter, Gauge, Timer)):
            raise TypeError(f"not an instrument: {type(instrument).__name__}")
        self._instruments[name] = instrument

    def snapshot(self) -> dict[str, Any]:
        """Summarize every instrument as plain JSON-friendly values.

        Counters map to their integer value; gauges to
        ``{value, min, max, samples}``; timers to
        ``{count, total_s, mean_s, last_s, ema_s, p50_s, p90_s, p99_s,
        hist_counts}`` (``hist_counts`` indexes into
        :data:`TIMER_HIST_EDGES`, underflow first, overflow last).
        """
        out: dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                # summary dicts are built once per snapshot() call (end
                # of run), not per observation — the hot-path
                # cost of an instrument is its inc/set/observe
                out[name] = {
                    "value": instrument.value,
                    "min": instrument.min if instrument.samples else None,
                    "max": instrument.max if instrument.samples else None,
                    "samples": instrument.samples,
                }
            elif isinstance(instrument, Timer):
                out[name] = {
                    "count": instrument.count,
                    "total_s": instrument.total,
                    "mean_s": instrument.mean,
                    "last_s": instrument.last,
                    "ema_s": instrument.ema,
                    "p50_s": instrument.p50,
                    "p90_s": instrument.p90,
                    "p99_s": instrument.p99,
                    # deliberate copy: the caller gets a stable list
                    # while the timer keeps observing
                    "hist_counts": list(instrument.bins),
                }
        return out

    def reset(self) -> None:
        """Drop every instrument (names become unbound again)."""
        self._instruments.clear()

    def reset_values(self) -> None:
        """Zero every instrument in place (names stay bound).

        Unlike :meth:`reset`, cached instrument references and aliased
        bindings remain valid — the right call between training phases
        or runs when hot paths hold direct instrument references.
        Shared (aliased) instruments are reset once through whichever
        registry resets first; the other registry sees the same zeroed
        object.
        """
        for instrument in self._instruments.values():
            instrument.reset()
