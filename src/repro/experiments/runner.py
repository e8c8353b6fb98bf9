"""The experiment table: every sweep kind's cells, cell function, renderer.

Each of the paper's tables and figures, the ablations and the fault
study is one row of :data:`TABLE`, keyed by its experiment id.  Two
rows are not experiments: ``experiments`` (the whole matrix: every
selected experiment's own cells, each tagged with its experiment) and
``selftest`` (deterministic payload cells with injectable failures,
used by the pool's tests and the CI smoke job).

The table is the one dispatch site.  :mod:`repro.experiments.pool`
expands and runs a sweep's cells through its row, and ``repro
reproduce`` renders the merged rollup with the row's renderer:
``reproduce <id>`` is ``pool.run_sweep`` of kind ``<id>``, inline or on
``--workers N``, and ``reproduce all`` the same for ``experiments``.
Every cell of every experiment is a pool cell: the ``experiments`` row
only tags and forwards them.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.experiments.pool import SweepSpec

from repro.experiments import (
    ablations,
    faultsweep,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    overhead,
    table1,
    table2,
    table3,
    table4,
)


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`TABLE`: how a sweep kind expands, runs, renders.

    ``cells(spec)`` lists the cell dicts in canonical order;
    ``run_cell(spec, cell, derived_seed, attempt)`` runs one pool cell
    and returns its JSON-able summary; ``render(spec, rollup)`` turns a
    merged rollup into the printed report (empty for ``selftest``).
    """

    cells: Callable[["SweepSpec"], list[dict[str, Any]]]
    run_cell: Callable[["SweepSpec", Mapping[str, Any], int, int],
                       dict[str, Any]]
    render: Callable[["SweepSpec", Mapping[str, Any]], str]


# -- one paper table or figure: one cell holding its report --------------------

def _report_row(report: Callable[["SweepSpec"], str]) -> Experiment:
    """A row whose one cell runs an experiment and keeps its report.

    Experiments are seeded from the sweep-level seed, not the per-cell
    ``derived_seed``: their identity is the paper's matrix at one seed.
    """
    def run_cell(spec: "SweepSpec", cell: Mapping[str, Any],
                 derived_seed: int, attempt: int) -> dict[str, Any]:
        del cell, derived_seed, attempt  # deterministic cell; see docstring
        return {"exp": spec.kind, "report": report(spec)}

    return Experiment(cells=lambda spec: [{"exp": spec.kind}],
                      run_cell=run_cell, render=_the_report)


def _scaled(module: Any) -> Experiment:
    """The row of an experiment module with ``run(scale, seed=)``."""
    return _report_row(
        lambda spec: module.report(module.run(spec.scale, seed=spec.seed)))


def _the_report(spec: "SweepSpec", rollup: Mapping[str, Any]) -> str:
    """The report a one-cell row's cell kept ("" if it failed)."""
    del spec
    cells = rollup.get("cells") or ()
    return str(cells[0]["summary"]["report"]) if cells else ""


def _render_faultsweep(spec: "SweepSpec", rollup: Mapping[str, Any]) -> str:
    return faultsweep.report(faultsweep.result_from_rollup(spec, rollup))


def _full_size_overhead(spec: "SweepSpec") -> bool:
    """``params["full_size_overhead"]`` (default true): a JSON boolean,
    else ``ValueError`` (``"no"`` or ``"false"`` is a string, not false)."""
    value = spec.params.get("full_size_overhead", True)
    if not isinstance(value, bool):
        raise ValueError(f"param full_size_overhead must be a JSON boolean, "
                         f"got {value!r}")
    return value


def _overhead_cells(spec: "SweepSpec") -> list[dict[str, Any]]:
    _full_size_overhead(spec)  # a malformed param fails at expansion
    return [{"exp": spec.kind}]


# -- the whole matrix ----------------------------------------------------------

#: experiments excluded from the ``experiments`` kind by default: the
#: overhead study reports measured wall times, which would break the
#: sweep's byte-identical-rollup contract (opt in with
#: ``params={"only": [...]}``, as ``reproduce all`` does)
NONDETERMINISTIC_EXPERIMENTS: tuple[str, ...] = ("overhead",)


def sweep_cells(spec: "SweepSpec") -> list[dict[str, Any]]:
    """Expand an ``experiments`` :class:`~repro.experiments.pool.SweepSpec`.

    Every selected experiment's own cells, in report order, each as
    ``{"exp": id, "cell": own cell}`` (a malformed param fails here).
    ``spec.params["only"]``, a non-empty list of ids, selects a subset
    (and may opt nondeterministic experiments back in); the default is
    every experiment except :data:`NONDETERMINISTIC_EXPERIMENTS`.
    """
    only = spec.list_param("only", [
        exp_id for exp_id in EXPERIMENT_IDS
        if exp_id not in NONDETERMINISTIC_EXPERIMENTS])
    unknown = [exp_id for exp_id in only if exp_id not in EXPERIMENT_IDS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")
    ids = [exp_id for exp_id in EXPERIMENT_IDS if exp_id in only]
    return [{"exp": exp_id, "cell": own} for exp_id in ids
            for own in TABLE[exp_id].cells(
                dataclasses.replace(spec, kind=exp_id))]


def run_sweep_cell(spec: "SweepSpec", cell: Mapping[str, Any],
                   derived_seed: int, attempt: int) -> dict[str, Any]:
    """Run one experiment's own cell, seeded as its own sweep seeds it."""
    from repro.experiments.pool import cell_key, derive_cell_seed

    del derived_seed  # the experiment's own sweep derives it below
    own = cell["cell"]
    return TABLE[cell["exp"]].run_cell(
        dataclasses.replace(spec, kind=cell["exp"]), own,
        derive_cell_seed(spec.seed, cell_key(own)), attempt)


def _render_matrix(spec: "SweepSpec", rollup: Mapping[str, Any]) -> str:
    """Render each experiment's cells with its own renderer, combined.

    An experiment with no completed cell is a ``QUARANTINED`` row
    carrying its first failure's type.  A rollup holding a cell this
    spec does not expand to (one cell per experiment, as an older
    matrix stored it) raises ``ValueError``.
    """
    from repro.experiments.pool import cell_key

    cells = sweep_cells(spec)
    done = {r["key"]: r["summary"] for r in rollup.get("cells", ())}
    failed = {r["key"]: str(r.get("error_type", "unknown failure"))
              for r in rollup.get("quarantined", ())}
    if (set(done) | set(failed)) - {cell_key(cell) for cell in cells}:
        raise ValueError("rollup holds cells this experiments sweep does "
                         "not expand to")
    records: dict[str, list[dict[str, Any]]] = {}
    failures: dict[str, str] = {}
    for cell in cells:
        key, exp_id, own = cell_key(cell), cell["exp"], cell["cell"]
        records.setdefault(exp_id, [])
        if key in done:
            records[exp_id].append({"key": cell_key(own),
                                    "summary": done[key]})
        elif key in failed:
            failures.setdefault(exp_id, failed[key])
    reports = {}
    for exp_id, own_records in records.items():
        if own_records:
            reports[exp_id] = TABLE[exp_id].render(
                dataclasses.replace(spec, kind=exp_id), {"cells": own_records})
    return combined_report(reports, spec.scale, expected=list(records),
                           failures=failures)


def combined_report(
    reports: dict[str, str],
    scale: str,
    expected: "tuple[str, ...] | list[str]",
    failures: "Mapping[str, str] | None" = None,
) -> str:
    """Assemble individual reports into one document, in ``expected``
    order.

    Tolerates missing and failed cells: an experiment of ``expected``
    that has no report renders as a ``QUARANTINED`` row carrying its
    reason from ``failures`` — the combined document always covers the
    full expected matrix instead of raising (or silently shrinking)
    when a sweep completes with partial results.
    """
    header = (
        f"DRAS reproduction — full experiment sweep (scale: {scale})\n"
        + "=" * 64
    )
    failures = failures or {}
    blocks = [header]
    quarantined = 0
    for exp_id in expected:
        if exp_id in reports:
            blocks.append(
                f"\n{'-' * 64}\n[{exp_id}]\n{'-' * 64}\n{reports[exp_id]}")
        else:
            reason = failures.get(exp_id, "no result recorded")
            quarantined += 1
            blocks.append(
                f"\n{'-' * 64}\n[{exp_id}] QUARANTINED — {reason}\n"
                f"{'-' * 64}\n(cell failed all attempts; "
                "re-run with --resume to retry it)")
    if quarantined:
        blocks.append(
            f"\n{'=' * 64}\n{quarantined} of {len(expected)} experiment(s) "
            "quarantined; the report above is partial.")
    return "\n".join(blocks)


# -- the pool's self-test ------------------------------------------------------

def selftest_cells(spec: "SweepSpec") -> list[dict[str, Any]]:
    """``params["cells"]`` (default 8) cells ``{"i": 0}``, ``{"i": 1}``, …"""
    n = int(spec.params.get("cells", 8))
    if n < 1:
        raise ValueError(f"selftest needs at least one cell, got {n}")
    return [{"i": i} for i in range(n)]


def run_selftest_cell(spec: "SweepSpec", cell: Mapping[str, Any],
                      derived_seed: int, attempt: int) -> dict[str, Any]:
    """Deterministic payload cell with injectable failure modes.

    ``params`` knobs: ``crash_once`` / ``hang_once`` — cell indices
    whose *first* attempt SIGKILLs its worker / hangs until the parent
    timeout kills it (both succeed on retry, so the rollup is identical
    to an uninjected run); ``fail`` — indices that raise on every
    attempt and end up quarantined; ``sleep_s`` — per-cell work
    duration.  The payload is drawn from the derived-seed RNG, proving
    seed derivation end to end.
    """
    params = spec.params
    index = int(cell["i"])
    if attempt == 1 and index in set(params.get("crash_once", ())):
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt == 1 and index in set(params.get("hang_once", ())):
        while True:  # parent-side timeout reaps this attempt
            time.sleep(0.05)
    if index in set(params.get("fail", ())):
        raise RuntimeError(f"injected failure in cell {index}")
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s:
        time.sleep(sleep_s)
    rng = np.random.default_rng(derived_seed)
    values = [round(float(v), 12) for v in rng.random(8)]
    return {"i": index, "values": values,
            "total": round(float(sum(values)), 12)}


# -- the table -----------------------------------------------------------------

#: every sweep kind by name: the paper's experiments in report order,
#: the ablations, the fault and overhead studies, then the whole matrix
#: and the pool's self-test
TABLE: dict[str, Experiment] = {
    "table1": _report_row(lambda spec: table1.report(table1.run())),
    "table2": _scaled(table2),
    "fig2": _scaled(fig2),
    "fig3": _scaled(fig3),
    "table3": _report_row(lambda spec: table3.report(table3.run())),
    "fig4": _scaled(fig4),
    "fig5": _scaled(fig5),
    "fig6": _scaled(fig6),
    "fig7": _scaled(fig7),
    "table4": _scaled(table4),
    "fig8": _scaled(fig8),
    "fig9": _scaled(fig9),
    "ablations": _scaled(ablations),
    "faultsweep": Experiment(faultsweep.sweep_cells,
                             faultsweep.run_sweep_cell, _render_faultsweep),
    "overhead": dataclasses.replace(
        _report_row(lambda spec: overhead.report(overhead.run(
            full_size=_full_size_overhead(spec)))),
        cells=_overhead_cells),
    "experiments": Experiment(sweep_cells, run_sweep_cell, _render_matrix),
    "selftest": Experiment(selftest_cells, run_selftest_cell,
                           lambda spec, rollup: ""),
}

#: the experiment ids ``reproduce`` accepts, in report order
EXPERIMENT_IDS: tuple[str, ...] = tuple(
    k for k in TABLE if k not in ("experiments", "selftest"))
