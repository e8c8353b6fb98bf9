"""Optimization baseline: per-instance 0-1 knapsack (paper section IV-A).

At every scheduling instance the scheduler chooses the subset of
waiting jobs that maximizes the immediate scheduling objective subject
to the node-capacity constraint — a 0-1 knapsack problem solved exactly
with dynamic programming.  For a fair comparison the per-job values are
derived from the same objectives as DRAS (Eq. 1 / Eq. 2), see
:func:`repro.core.rewards.job_value`.

This family optimizes the *immediate* objective only; it has no
reservation mechanism and no notion of long-term reward — the two
properties the paper credits for DRAS's advantage.
"""

from __future__ import annotations

import numpy as np

from repro.core.rewards import job_value
from repro.schedulers.base import BaseScheduler
from repro.sim.engine import SchedulingView
from repro.sim.job import Job


def solve_knapsack(weights: list[int], values: list[float], capacity: int) -> list[int]:
    """Exact 0-1 knapsack via dynamic programming.

    Returns the indices of the chosen items.  ``weights`` must be
    positive integers.  The DP table over capacity is vectorized with
    NumPy: one ``maximum`` over a shifted view per item.
    """
    n = len(weights)
    if n != len(values):
        raise ValueError("weights and values must have equal length")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if n == 0 or capacity == 0:
        return []

    dp = np.zeros(capacity + 1, dtype=np.float64)
    take = np.zeros((n, capacity + 1), dtype=bool)
    for i, (w, v) in enumerate(zip(weights, values)):
        if w > capacity:
            continue
        candidate = dp[:-w] + v
        improved = candidate > dp[w:]
        dp[w:] = np.where(improved, candidate, dp[w:])
        take[i, w:] = improved

    chosen: list[int] = []
    c = capacity
    for i in range(n - 1, -1, -1):
        if take[i, c]:
            chosen.append(i)
            c -= weights[i]
    chosen.reverse()
    return chosen


class KnapsackOptimization(BaseScheduler):
    """Immediate-objective optimizer using exact 0-1 knapsack.

    Parameters
    ----------
    objective:
        ``"capability"`` (Eq. 1 values) or ``"capacity"`` (Eq. 2 values).

    Only the 100 oldest waiting jobs are considered per instance,
    bounding the DP cost on deep queues.
    """

    def __init__(self, objective: str = "capability") -> None:
        self.objective = objective
        self.name = "Optimization"

    def schedule(self, view: SchedulingView) -> None:
        capacity = view.free_nodes
        if capacity <= 0:
            return
        waiting = view.waiting()[:100]
        candidates: list[Job] = [j for j in waiting if j.size <= capacity]
        if not candidates:
            return
        values = [
            job_value(j, self.objective, waiting, view.cluster, view.now)
            for j in candidates
        ]
        # Strictly positive values so that filling capacity is always
        # preferred over idling (the DP would otherwise ignore 0-value jobs).
        floor = 1e-9
        values = [max(v, floor) for v in values]
        weights = [j.size for j in candidates]
        chosen = solve_knapsack(weights, values, capacity)
        for idx in chosen:
            view.start(candidates[idx])
