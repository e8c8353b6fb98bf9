"""Baseline scheduling policies the paper compares DRAS against (§IV-A).

* :class:`FCFSEasy` — first come, first served with EASY backfilling,
  the default policy on many production supercomputers;
* :class:`BinPacking` — iteratively run the largest runnable job, the
  datacenter packing heuristic;
* :class:`RandomScheduler` — uniformly random runnable-job selection,
  the "untrained DRAS" control;
* :class:`KnapsackOptimization` — per-instance 0-1 knapsack solved with
  dynamic programming, pursuing the same objective as DRAS.

:data:`POLICIES` is the one table of these policies by name: each
``simulate --policy`` choice maps to a ``factory(objective, seed)``, and
its first four rows, :data:`BASELINES`, are the four above.  The
learning agents (DRAS-PG, DRAS-DQL and the Decima-PG baseline, DRAS-PG's
one-level subclass) have their own table, :data:`repro.core.AGENTS`.
"""

from typing import Callable

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

#: every non-learning policy by ``simulate --policy`` name, in ``--help``
#: order: ``factory(objective, seed)`` builds a fresh scheduler
POLICIES: dict[str, Callable[[str, int], BaseScheduler]] = {
    "fcfs": lambda objective, seed: FCFSEasy(),
    "binpacking": lambda objective, seed: BinPacking(),
    "random": lambda objective, seed: RandomScheduler(seed=seed),
    "knapsack": lambda objective, seed: KnapsackOptimization(objective),
    "sjf": lambda objective, seed: sjf(),
    "ljf": lambda objective, seed: ljf(),
    "saf": lambda objective, seed: smallest_area_first(),
    "wfp": lambda objective, seed: f1_wfp(),
    "unicef": lambda objective, seed: unicef(),
    "conservative": lambda objective, seed: ConservativeBackfill(),
}

#: the §IV-A baselines, POLICIES' first four keys: FCFS, BinPacking,
#: Random and the knapsack Optimization
BASELINES: tuple[str, ...] = tuple(POLICIES)[:4]

__all__ = [
    "BASELINES",
    "BaseScheduler",
    "BinPacking",
    "ConservativeBackfill",
    "FCFSEasy",
    "KnapsackOptimization",
    "POLICIES",
    "RandomScheduler",
    "RuleScheduler",
    "f1_wfp",
    "ljf",
    "sjf",
    "smallest_area_first",
    "solve_knapsack",
    "unicef",
]
