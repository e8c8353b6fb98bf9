"""Fig 2 — job characterization: jobs and core hours by size category.

The paper's donut charts show, per system, the share of *jobs* in each
job-size category (outer circle) and the share of total *core hours*
consumed by each category (inner circle).  The qualitative shape to
reproduce: on Theta, small-category jobs dominate counts while large
categories dominate core hours; on Cori, 1-node jobs dominate counts
yet consume a small fraction of core hours.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.common import system_setup
from repro.sim.job import Job


@dataclass(frozen=True)
class SizeCategoryShares:
    system: str
    labels: tuple[str, ...]
    job_share: tuple[float, ...]
    core_hour_share: tuple[float, ...]


def size_categories(system: str, num_nodes: int) -> list[tuple[str, int, int]]:
    """(label, lo, hi) size categories, scaled with the system size.

    At full scale they reduce to the paper's Theta categories
    (128-511, 512-1023, 1024-2047, 2048-4095, >=4096) and a
    capacity-style split for Cori (1, 2-15, 16-255, 256-1023, >=1024).
    They are contiguous and the last ends at ``num_nodes``; Fig 2 and
    Fig 7 both bin job sizes with them through :func:`category_of`.
    """
    if system == "theta":
        fracs = [(128, 511), (512, 1023), (1024, 2047), (2048, 4095), (4096, 4360)]
        base = 4360
    else:
        fracs = [(1, 1), (2, 15), (16, 255), (256, 1023), (1024, 12076)]
        base = 12076
    out = []
    for lo, hi in fracs:
        slo = max(1, round(lo * num_nodes / base))
        shi = max(slo, round(hi * num_nodes / base))
        out.append((f"{slo}-{shi}" if slo != shi else f"{slo}", slo, shi))
    # make categories contiguous after rounding
    fixed = []
    prev_hi = 0
    for label, lo, hi in out:
        lo = max(lo, prev_hi + 1)
        hi = max(hi, lo)
        fixed.append((f"{lo}-{hi}" if lo != hi else f"{lo}", lo, hi))
        prev_hi = hi
    return fixed


def category_of(categories: list[tuple[str, int, int]], size: int) -> int:
    """Index of the first category whose upper bound is >= ``size``."""
    return next((i for i, (_, _, hi) in enumerate(categories) if size <= hi),
                len(categories) - 1)


def characterize(system: str, jobs: list[Job], num_nodes: int) -> SizeCategoryShares:
    cats = size_categories(system, num_nodes)
    counts = [0] * len(cats)
    hours = [0.0] * len(cats)
    for job in jobs:
        i = category_of(cats, job.size)
        counts[i] += 1
        hours[i] += job.core_hours
    total_jobs = max(1, sum(counts))
    total_hours = max(1e-12, sum(hours))
    return SizeCategoryShares(
        system=system,
        labels=tuple(label for label, _, _ in cats),
        job_share=tuple(c / total_jobs for c in counts),
        core_hour_share=tuple(h / total_hours for h in hours),
    )


def run(scale: str = "default", seed: int = 0) -> dict[str, SizeCategoryShares]:
    out = {}
    for system in ("theta", "cori"):
        setup = system_setup(system, scale, seed)
        # concatenating the splits is fine here: Fig 2 looks only at the
        # marginal size/core-hour mix, not at the time axis
        trace = setup.train_trace + setup.validation_trace + setup.test_trace
        out[system] = characterize(system, trace, setup.model.num_nodes)
    return out


def report(shares: dict[str, SizeCategoryShares]) -> str:
    blocks = []
    for system, s in shares.items():
        rows = [
            [label, f"{js * 100:.1f}%", f"{cs * 100:.1f}%"]
            for label, js, cs in zip(s.labels, s.job_share, s.core_hour_share)
        ]
        blocks.append(
            format_table(
                ["size category (nodes)", "jobs (outer)", "core hours (inner)"],
                rows,
                title=f"Fig 2: job characterization, {system}",
            )
        )
    return "\n\n".join(blocks)
