"""Baseline scheduling policies the paper compares DRAS against (§IV-A).

* :class:`FCFSEasy` — first come, first served with EASY backfilling,
  the default policy on many production supercomputers;
* :class:`BinPacking` — iteratively run the largest runnable job, the
  datacenter packing heuristic;
* :class:`RandomScheduler` — uniformly random runnable-job selection,
  the "untrained DRAS" control;
* :class:`KnapsackOptimization` — per-instance 0-1 knapsack solved with
  dynamic programming, pursuing the same objective as DRAS.

The Decima-PG learning baseline lives in :mod:`repro.core.decima`: it is
DRAS-PG's one-level subclass, with DRAS's network and state encoding.
"""

from repro.schedulers.base import BaseScheduler
from repro.schedulers.fcfs import FCFSEasy
from repro.schedulers.binpacking import BinPacking
from repro.schedulers.random_policy import RandomScheduler
from repro.schedulers.knapsack import KnapsackOptimization, solve_knapsack
from repro.schedulers.conservative import ConservativeBackfill
from repro.schedulers.priority_rules import (
    RuleScheduler,
    f1_wfp,
    ljf,
    sjf,
    smallest_area_first,
    unicef,
)

__all__ = [
    "BaseScheduler",
    "BinPacking",
    "ConservativeBackfill",
    "FCFSEasy",
    "KnapsackOptimization",
    "RandomScheduler",
    "RuleScheduler",
    "f1_wfp",
    "ljf",
    "sjf",
    "smallest_area_first",
    "solve_knapsack",
    "unicef",
]
