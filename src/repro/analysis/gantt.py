"""Text Gantt rendering of a simulated schedule.

Turns a finished :class:`~repro.sim.engine.SimulationResult` into a
node-rows × time-columns character grid — a quick way to eyeball
packing quality and backfill holes without a plotting stack, and the
only per-node view of a schedule (``examples/quickstart.py`` step 4
prints one).  Each job is drawn with a letter cycling through the
alphabet; execution modes can optionally be distinguished by case
(backfilled jobs lower-case).
"""

from __future__ import annotations

import string

from repro.sim.engine import SimulationResult
from repro.sim.job import ExecMode, JobState

_GLYPHS = string.ascii_uppercase


def render_gantt(
    result: SimulationResult,
    width: int = 78,
    max_rows: int = 32,
    mark_backfill: bool = True,
) -> str:
    """Render the schedule of ``result`` as a character grid.

    Time is discretized into ``width`` columns over the run's span;
    rows are node indices (subsampled evenly when the system exceeds
    ``max_rows``).  A cell shows the job occupying that node for the
    majority of the column's time slice (``.`` = idle).
    """
    jobs = [j for j in result.jobs if j.state is JobState.FINISHED]
    if not jobs:
        raise ValueError("nothing to render: no finished jobs")
    if width <= 0 or max_rows <= 0:
        raise ValueError("width and max_rows must be positive")
    t0 = min(j.start_time for j in jobs)
    t1 = max(j.end_time for j in jobs)
    span = max(t1 - t0, 1e-9)

    # Recompute a deterministic node assignment by replaying starts in
    # time order against a lowest-free-index allocator (the cluster's
    # actual policy), so the rendering matches the simulation layout.
    num_nodes = result.num_nodes
    free = list(range(num_nodes - 1, -1, -1))  # pop() yields lowest index
    # ends sort before starts at equal timestamps, freeing nodes first
    events = sorted(
        [(j.end_time, 0, j) for j in jobs] + [(j.start_time, 1, j) for j in jobs],
        key=lambda e: (e[0], e[1]),
    )
    placement: dict[int, list[int]] = {}
    for _, kind, job in events:
        if kind == 0 and job.job_id in placement:
            for node in placement[job.job_id]:
                free.append(node)
            free.sort(reverse=True)
        elif kind == 1:
            if len(free) < job.size:
                raise RuntimeError("replay found an infeasible schedule")
            placement[job.job_id] = [free.pop() for _ in range(job.size)]

    rows = min(num_nodes, max_rows)
    node_of_row = [int(r * num_nodes / rows) for r in range(rows)]
    grid = [["."] * width for _ in range(rows)]
    for j_idx, job in enumerate(sorted(jobs, key=lambda j: j.start_time)):
        glyph = _GLYPHS[j_idx % len(_GLYPHS)]
        if mark_backfill and job.mode is ExecMode.BACKFILLED:
            glyph = glyph.lower()
        c0 = int((job.start_time - t0) / span * (width - 1))
        c1 = max(c0, int((job.end_time - t0) / span * (width - 1)))
        nodes = set(placement[job.job_id])
        for r, node in enumerate(node_of_row):
            if node in nodes:
                for c in range(c0, c1 + 1):
                    grid[r][c] = glyph

    header = (
        f"gantt: {len(jobs)} jobs on {num_nodes} nodes, "
        f"{span / 3600:.1f} h span "
        f"({'lower-case = backfilled' if mark_backfill else ''})"
    )
    lines = [header]
    for r, row in enumerate(grid):
        lines.append(f"node {node_of_row[r]:>5d} |" + "".join(row))
    lines.append(" " * 11 + f"t={t0:.0f}" + " " * (width - 16) + f"t={t1:.0f}")
    return "\n".join(lines)
