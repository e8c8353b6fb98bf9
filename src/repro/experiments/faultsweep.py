"""Fault sweep — scheduler robustness under increasing failure rates.

Not a paper artifact: this is the robustness study enabled by
:mod:`repro.sim.faults`.  Every scheduler replays the same Theta-model
trace while the node mean-time-between-failures shrinks across a grid
(plus a no-fault baseline), with killed jobs requeued at the head of
the wait queue.  The sweep reports, per (policy, MTBF) cell, the
classic run metrics next to the resilience accounting — failures,
kills, lost and wasted node-seconds, and utilization of the *surviving*
capacity — so degradation under faults can be compared across policies
at a glance.

Faults are injected from a seeded generator that is independent of
every policy's decision stream, so each column of the sweep sees the
identical failure schedule and the comparison isolates the scheduler's
reaction to it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.analysis.tables import format_table
from repro.experiments.common import system_setup
from repro.schedulers import POLICIES
from repro.sim.engine import run_simulation
from repro.sim.faults import FaultConfig, ResilienceMetrics
from repro.sim.metrics import RunMetrics

if TYPE_CHECKING:
    from repro.experiments.pool import SweepSpec

#: node MTBF grid, seconds; 0 is the fault-free baseline column
MTBF_GRID: tuple[float, ...] = (0.0, 20_000.0, 5_000.0, 2_000.0)

#: base fault process; the sweep overrides ``mtbf`` cell by cell
BASE_FAULTS = FaultConfig(mttr=1_800.0, seed=0, requeue="requeue-front")

#: default per-cell engine wall-clock budget, seconds — a pathological
#: grid point trips the engine's runaway guard instead of hanging a
#: sweep worker forever (0 disables the guard)
CELL_MAX_WALL_S = 600.0

#: the sweep's columns in report order: each display name (a cell key
#: and a ``policies`` param value) with its ``repro.schedulers.POLICIES``
#: key
POLICY_COLUMNS: dict[str, str] = {
    "FCFS": "fcfs", "BinPacking": "binpacking", "SJF": "sjf",
    "Conservative": "conservative"}


@dataclass(frozen=True)
class FaultCell:
    """One (policy, MTBF) cell of the sweep."""

    policy: str
    mtbf: float
    metrics: RunMetrics
    resilience: ResilienceMetrics | None


@dataclass(frozen=True)
class FaultSweepResult:
    """All cells of the sweep, row-major in policy order."""

    system: str
    num_nodes: int
    num_jobs: int
    cells: tuple[FaultCell, ...]


def report(result: FaultSweepResult) -> str:
    """Format the sweep as one table per policy."""
    blocks = []
    by_policy: dict[str, list[FaultCell]] = {}
    for cell in result.cells:
        by_policy.setdefault(cell.policy, []).append(cell)
    for policy, cells in by_policy.items():
        rows = []
        for cell in cells:
            r = cell.resilience
            rows.append([
                "none" if cell.mtbf == 0 else f"{cell.mtbf:.0f}",
                f"{cell.metrics.avg_wait / 3600:.2f}",
                f"{cell.metrics.avg_slowdown:.2f}",
                f"{cell.metrics.utilization:.3f}",
                str(r.node_failures) if r else "0",
                str(r.jobs_killed) if r else "0",
                f"{r.lost_node_seconds / 3600:.1f}" if r else "0.0",
                f"{r.wasted_node_seconds / 3600:.1f}" if r else "0.0",
                f"{r.degraded_utilization:.3f}"
                if r else f"{cell.metrics.utilization:.3f}",
            ])
        blocks.append(
            format_table(
                ["MTBF (s)", "avg wait (h)", "slowdown", "util",
                 "failures", "kills", "lost (node-h)", "wasted (node-h)",
                 "degraded util"],
                rows,
                title=(f"Fault sweep: {policy} on {result.system} "
                       f"({result.num_nodes} nodes, {result.num_jobs} jobs)"),
            )
        )
    return "\n\n".join(blocks)


# -- the sweep's cells (run through repro.experiments.pool) --------------------

def _base_faults(spec: "SweepSpec") -> FaultConfig:
    """The sweep's fault process: ``params["faults"]`` (else
    :data:`BASE_FAULTS`), its seed offset by the sweep seed."""
    faults_spec = spec.params.get("faults")
    base = (FaultConfig.from_spec(faults_spec) if faults_spec
            else BASE_FAULTS)
    return dataclasses.replace(base, seed=base.seed + spec.seed)


def _max_wall_s(spec: "SweepSpec") -> float:
    """The per-cell engine budget: ``params["max_wall_s"]``, else
    :data:`CELL_MAX_WALL_S`; a finite number >= 0, or ``ValueError``."""
    value = spec.params.get("max_wall_s", CELL_MAX_WALL_S)
    if type(value) not in (int, float) or not (
            math.isfinite(value) and value >= 0):
        raise ValueError(
            f"param max_wall_s must be a finite number >= 0, got {value!r}")
    return float(value)


def sweep_cells(spec: "SweepSpec") -> list[dict[str, Any]]:
    """Expand a faultsweep :class:`~repro.experiments.pool.SweepSpec`.

    ``spec.params`` knobs: ``policies`` (a list of
    :data:`POLICY_COLUMNS` names), ``mtbf_grid`` (a list of MTBFs >= 0
    replacing :data:`MTBF_GRID`), ``faults`` (a ``FaultConfig`` spec
    string), ``max_wall_s`` (per-cell engine budget, default
    :data:`CELL_MAX_WALL_S`).  Each is checked here, so a malformed one
    fails before any cell runs.
    """
    policies = spec.list_param("policies", tuple(POLICY_COLUMNS))
    unknown = [p for p in policies
               if not isinstance(p, str) or p not in POLICY_COLUMNS]
    if unknown:
        raise ValueError(
            f"unknown faultsweep policies {unknown}; "
            f"available: {', '.join(POLICY_COLUMNS)}")
    _base_faults(spec)
    _max_wall_s(spec)
    grid = spec.list_param("mtbf_grid", MTBF_GRID)
    bad = [m for m in grid if type(m) not in (int, float) or not m >= 0]
    if bad:
        raise ValueError(f"mtbf_grid values must be numbers >= 0, got {bad}")
    grid = [float(m) for m in grid]
    return [{"policy": policy, "mtbf": mtbf}
            for policy in policies for mtbf in grid]


def run_sweep_cell(spec: "SweepSpec", cell: Mapping[str, Any],
                   derived_seed: int, attempt: int) -> dict[str, Any]:
    """Replay the validation trace under one (policy, MTBF) cell.

    The fault process is seeded from the *sweep*-level seed, not the
    per-cell ``derived_seed``: every policy column must replay the
    identical failure schedule so the comparison isolates the
    scheduler's reaction.  ``derived_seed`` still reaches the cell
    manifest, keeping cell identity deterministic either way.  The
    engine runs under a finite wall-clock budget (``max_wall_s``, 0 to
    disable) so one pathological grid point cannot hang the sweep.
    """
    del derived_seed, attempt  # deterministic cell; see docstring
    mtbf = float(cell["mtbf"])
    faults = dataclasses.replace(_base_faults(spec), mtbf=mtbf)
    max_wall_s = _max_wall_s(spec)
    setup = system_setup("theta", spec.scale, spec.seed)
    policy = POLICIES[POLICY_COLUMNS[cell["policy"]]](
        setup.config.objective, spec.seed)
    result = run_simulation(
        setup.model.num_nodes,
        policy,
        [j.copy_fresh() for j in setup.validation_trace],
        faults=faults if faults.active else None,
        max_wall_s=max_wall_s if max_wall_s > 0 else None,
    )
    return {
        "policy": policy.name,
        "mtbf": mtbf,
        "system": "theta",
        "num_nodes": setup.model.num_nodes,
        "num_jobs": len(setup.validation_trace),
        "max_wall_s": max_wall_s,
        "metrics": RunMetrics.from_result(result).as_dict(),
        "resilience": (result.resilience.as_dict() if result.resilience
                       else None),
    }


def result_from_rollup(spec: "SweepSpec",
                       rollup: Mapping[str, Any]) -> FaultSweepResult:
    """Rebuild a :class:`FaultSweepResult` from a merged pool rollup.

    Cells come back in ``spec``'s canonical policy-major order (the
    rollup stores them sorted by key), so :func:`report` renders the
    same tables a serial run would.  Quarantined cells are simply
    absent — :func:`report` groups by policy, so a policy with no
    surviving cells drops out of the report.
    """
    from repro.experiments.pool import cell_key

    done = {r["key"]: r["summary"] for r in rollup.get("cells", ())}
    summaries = [done[key] for key in map(cell_key, sweep_cells(spec))
                 if key in done]
    first = summaries[0] if summaries else {}
    return FaultSweepResult(
        system=first.get("system", "theta"),
        num_nodes=first.get("num_nodes", 0),
        num_jobs=first.get("num_jobs", 0),
        cells=tuple(FaultCell(
            policy=summary["policy"],
            mtbf=summary["mtbf"],
            metrics=RunMetrics.from_dict(summary["metrics"]),
            resilience=(ResilienceMetrics.from_dict(summary["resilience"])
                        if summary["resilience"] else None),
        ) for summary in summaries))
