"""Fig 7 — job wait times by job size and execution mode (starvation).

The paper scatters every Theta job's wait time against its size,
colored by execution mode, one panel per method.  Key observations to
reproduce:

1. DRAS and FCFS prevent starvation — their maximum wait times are
   within a small factor of each other — while Decima-PG, BinPacking
   and Random starve jobs for an order of magnitude longer;
2. in the reservation-less methods, large jobs wait noticeably longer
   than small jobs; with FCFS/DRAS the gap is small;
3. under FCFS/DRAS almost all large jobs run via reservation and most
   small jobs via backfilling.

We summarize the scatter as per-size-category wait statistics (Fig 2's
size categories) plus the per-mode composition of each category, and
the ellipses as one starvation table: each method's maximum wait and
the mean waits of large jobs (at least half the system) and of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.common import METHOD_ORDER, full_comparison, system_setup
from repro.experiments.fig2 import category_of, size_categories
from repro.sim.job import ExecMode


@dataclass(frozen=True)
class WaitBySize:
    method: str
    #: {size category: (count, mean wait h, max wait h)}
    categories: dict[str, tuple[int, float, float]]
    #: {size category: {mode: job count}}
    mode_mix: dict[str, dict[str, int]]
    max_wait_days: float
    #: mean wait (h) of the large jobs (>= half the system), the ones the
    #: paper's ellipses circle, and of the other jobs
    large_wait_h: float
    small_wait_h: float


def _mean_h(waits: list[float]) -> float:
    return float(np.mean(waits)) / 3600.0 if waits else 0.0


def run(scale: str = "default", seed: int = 0) -> dict[str, WaitBySize]:
    num_nodes = system_setup("theta", scale, seed).model.num_nodes
    cats = size_categories("theta", num_nodes)
    large_from = max(2, num_nodes // 2)
    results = full_comparison("theta", scale, seed)
    out: dict[str, WaitBySize] = {}
    for name in METHOD_ORDER:
        waits: list[list[float]] = [[] for _ in cats]
        mode_mix = {label: {m.value: 0 for m in ExecMode}
                    for label, _, _ in cats}
        large: list[float] = []
        small: list[float] = []
        for j in results[name].jobs:
            i = category_of(cats, j.size)
            waits[i].append(j.wait_time)
            if j.mode is not None:
                mode_mix[cats[i][0]][j.mode.value] += 1
            (large if j.size >= large_from else small).append(j.wait_time)
        out[name] = WaitBySize(
            method=name,
            categories={
                label: (len(w), _mean_h(w), max(w, default=0.0) / 3600.0)
                for (label, _, _), w in zip(cats, waits)},
            mode_mix=mode_mix,
            max_wait_days=results[name].metrics.max_wait / 86400.0,
            large_wait_h=_mean_h(large),
            small_wait_h=_mean_h(small),
        )
    return out


def report(results: dict[str, WaitBySize]) -> str:
    blocks = []
    for name, r in results.items():
        rows = []
        for label, (count, mean_h, max_h) in r.categories.items():
            mix = r.mode_mix[label]
            rows.append(
                [
                    label,
                    count,
                    f"{mean_h:.2f}",
                    f"{max_h:.2f}",
                    mix["ready"],
                    mix["reserved"],
                    mix["backfilled"],
                ]
            )
        blocks.append(
            format_table(
                [
                    "size (nodes)",
                    "jobs",
                    "mean wait (h)",
                    "max wait (h)",
                    "ready",
                    "reserved",
                    "backfilled",
                ],
                rows,
                title=f"Fig 7 [{name}]: wait time by job size "
                f"(max wait {r.max_wait_days:.1f} days)",
            )
        )
    blocks.append(
        format_table(
            ["method", "max wait (d)", "large-job wait (h)",
             "small-job wait (h)", "large/small"],
            [[name, f"{r.max_wait_days:.2f}", f"{r.large_wait_h:.2f}",
              f"{r.small_wait_h:.2f}",
              f"{r.large_wait_h / r.small_wait_h:.1f}x" if r.small_wait_h
              else "-"]
             for name, r in results.items()],
            title="Fig 7: starvation (large job = at least half the system)",
        )
    )
    return "\n\n".join(blocks)

