"""Availability profiles for multi-reservation planning.

EASY backfilling (the paper's baseline and what DRAS builds on) keeps a
single reservation.  *Conservative* backfilling — the classic stricter
alternative — gives **every** queued job a reservation, so a candidate
may only jump ahead if it delays none of them.  Answering that requires
a view of free capacity over future time: a step function built from
running jobs' estimated releases and planned reservations.

:class:`ResourceProfile` maintains that step function and supports the
two queries conservative planning needs: the earliest start time for a
``(size, duration)`` request, and capacity subtraction once the request
is placed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.cluster import Cluster

#: sentinel horizon for "runs forever" segments
_FAR = math.inf


class ResourceProfile:
    """Free-capacity step function over future time.

    Internally a sorted list of breakpoints ``t_0 < t_1 < ...`` with
    free-node counts ``f_i`` valid on ``[t_i, t_{i+1})``; the final
    segment extends to infinity.
    """

    __slots__ = ("_times", "_free", "num_nodes")

    def __init__(self, times: list[float], free: list[int], num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if len(times) != len(free) or not times:
            raise ValueError("times and free must be equal-length, non-empty")
        if any(not math.isfinite(t) for t in times):
            raise ValueError("breakpoints must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(f < 0 or f > num_nodes for f in free):
            raise ValueError("free counts must lie in [0, num_nodes]")
        self._times = list(times)
        self._free = list(free)
        self.num_nodes = num_nodes

    @classmethod
    def from_cluster(cls, cluster: Cluster, now: float) -> "ResourceProfile":
        """Profile induced by running jobs' walltime estimates."""
        group_times, group_sizes = cluster.release_groups(now)
        times = [now]
        free = [cluster.available_nodes]
        # one pass over the time-sorted groups (one per running job or
        # down node), already clipped to ``now``
        for t, count in zip(group_times.tolist(), group_sizes.tolist()):
            # exact merge of identical breakpoints (stored release
            # times); a tolerance would wrongly fuse distinct ones
            if t == times[-1]:  # repro: noqa[float-time-eq]
                free[-1] += count
            else:
                times.append(t)
                free.append(free[-1] + count)
        return cls(times, free, cluster.num_nodes)

    # -- queries ------------------------------------------------------------
    def free_at(self, t: float) -> int:
        """Free nodes at time ``t`` (>= first breakpoint)."""
        if t < self._times[0]:
            raise ValueError(f"time {t} precedes the profile start")
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return self._free[idx]

    def earliest_start(self, size: int, duration: float) -> float:
        """Earliest ``t`` with ``size`` nodes free on ``[t, t+duration)``."""
        if size <= 0 or size > self.num_nodes:
            raise ValueError(f"size {size} not schedulable on {self.num_nodes} nodes")
        if duration <= 0:
            raise ValueError("duration must be positive")
        n = len(self._times)
        for i in range(n):
            if self._free[i] < size:
                continue
            start = self._times[i]
            end = start + duration
            ok = True
            j = i + 1
            while j < n and self._times[j] < end:
                if self._free[j] < size:
                    ok = False
                    break
                j += 1
            if ok:
                return start
        # all breakpoints exhausted: the final segment has full capacity
        # of the last step; if it fits there, the last breakpoint works —
        # handled above — otherwise the request can never fit, which is
        # impossible since free counts eventually return to num_nodes.
        raise RuntimeError(
            "no feasible start found; profile never frees enough nodes "
            f"for size {size} (final free={self._free[-1]})"
        )

    # -- mutation --------------------------------------------------------------
    def reserve(self, start: float, size: int, duration: float) -> None:
        """Subtract ``size`` nodes on ``[start, start+duration)``.

        Raises if the interval lacks capacity (callers should obtain
        ``start`` from :meth:`earliest_start`).
        """
        end = start + duration
        self._insert_breakpoint(start)
        self._insert_breakpoint(end)
        free = self._free
        for i, t in enumerate(self._times):
            if start <= t < end:
                if free[i] < size:
                    raise ValueError(
                        f"reservation of {size} nodes at t={t} exceeds free "
                        f"{free[i]}"
                    )
                free[i] -= size

    def _insert_breakpoint(self, t: float) -> None:
        if math.isinf(t):
            return
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        # stored-breakpoint identity check, not recomputed arithmetic
        if idx >= 0 and self._times[idx] == t:  # repro: noqa[float-time-eq]
            return
        if t < self._times[0]:
            raise ValueError(f"breakpoint {t} precedes the profile start")
        self._times.insert(idx + 1, t)
        self._free.insert(idx + 1, self._free[idx])

    def steps(self) -> tuple[list[float], list[int]]:
        """``(times, free_counts)`` breakpoints (copies)."""
        return list(self._times), list(self._free)
