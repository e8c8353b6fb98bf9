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

We summarize the scatter as per-size-category wait statistics plus the
per-mode composition of each category.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.comparison import starvation_summary
from repro.analysis.tables import format_table
from repro.experiments.common import METHOD_ORDER, full_comparison, system_setup
from repro.sim.job import ExecMode, JobState
from repro.sim.metrics import wait_by_size_category


@dataclass(frozen=True)
class WaitBySize:
    method: str
    #: {size category: (count, mean wait h, max wait h)}
    categories: dict[str, tuple[int, float, float]]
    #: {size category: {mode: job count}}
    mode_mix: dict[str, dict[str, int]]
    max_wait_days: float


def _bounds(num_nodes: int) -> list[int]:
    """Size-category bounds scaled from the paper's Theta categories."""
    paper = [511, 1023, 2047, 4095]
    return sorted({max(1, round(b * num_nodes / 4360)) for b in paper})


def run(scale: str = "default", seed: int = 0) -> dict[str, WaitBySize]:
    setup = system_setup("theta", scale, seed)
    bounds = _bounds(setup.model.num_nodes)
    results = full_comparison("theta", scale, seed)
    out: dict[str, WaitBySize] = {}
    for name in METHOD_ORDER:
        res = results[name]
        finished = [j for j in res.result.jobs if j.state is JobState.FINISHED]
        groups = wait_by_size_category(finished, bounds)
        categories = {}
        mode_mix: dict[str, dict[str, int]] = {}
        for label, waits in groups.items():
            if waits:
                categories[label] = (
                    len(waits),
                    float(np.mean(waits)) / 3600.0,
                    float(np.max(waits)) / 3600.0,
                )
            else:
                categories[label] = (0, 0.0, 0.0)
        # mode composition per category
        from repro.sim.metrics import _size_label, _size_labels  # noqa: PLC0415

        labels = _size_labels(bounds)
        for label in labels:
            mode_mix[label] = {m.value: 0 for m in ExecMode}
        for j in finished:
            label = _size_label(j.size, bounds, labels)
            if j.mode is not None:
                mode_mix[label][j.mode.value] += 1
        out[name] = WaitBySize(
            method=name,
            categories=categories,
            mode_mix=mode_mix,
            max_wait_days=max((j.wait_time for j in finished), default=0.0) / 86400.0,
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
    return "\n\n".join(blocks)


def starvation(scale: str = "default") -> dict[str, dict[str, float]]:
    """The starvation indicators highlighted by the Fig 7 ellipses."""
    # seed 0 passed as run() passes its seed: the caches key on the
    # arguments as given, so this reuses the comparison run() made
    setup = system_setup("theta", scale, 0)
    results = full_comparison("theta", scale, 0)
    ordered = [results[name] for name in METHOD_ORDER]
    return starvation_summary(
        ordered, large_job_threshold=max(2, setup.model.num_nodes // 2)
    )
