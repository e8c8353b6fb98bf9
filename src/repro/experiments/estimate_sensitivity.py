"""Extension experiment: sensitivity to runtime-estimate inaccuracy.

Backfilling (EASY and DRAS's learned variant alike) plans against
*user-supplied walltime estimates*, which production studies — e.g. the
authors' own CLUSTER'17 work on runtime-estimate accuracy, cited by the
paper — find to be over-estimated by large, heavy-tailed factors.  This
experiment sweeps the mean over-estimation factor of the workload model
and reports how FCFS and the DRAS agents degrade, isolating how robust
the learned policy is to estimate noise.

This is not a figure in the paper; it is the natural follow-up the
paper's §II-C backfilling discussion invites, and DESIGN.md lists it as
an extension ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.comparison import evaluate_method
from repro.analysis.tables import format_table
from repro.experiments.common import get_scale, system_setup, trained_agent
from repro.schedulers import FCFSEasy

#: mean multiplicative over-estimation factors swept (0 = perfect
#: estimates; the workload default is 1.0, i.e. walltime ~ 2x runtime)
OVERESTIMATE_FACTORS: tuple[float, ...] = (0.0, 1.0, 3.0)


@dataclass(frozen=True)
class SensitivityRow:
    factor: float
    #: {method: (avg wait h, max wait d, utilization)}
    metrics: dict[str, tuple[float, float, float]]


def run(scale: str = "default", seed: int = 0) -> list[SensitivityRow]:
    get_scale(scale)
    setup = system_setup("theta", scale, seed)

    rows = []
    for factor in OVERESTIMATE_FACTORS:
        runtimes = replace(setup.model.runtimes, mean_overestimate=factor)
        model = replace(setup.model, runtimes=runtimes)
        trace = model.generate(len(setup.test_trace),
                               np.random.default_rng(seed + 13))
        agent, _ = trained_agent("pg", "theta", scale, seed)
        metrics: dict[str, tuple[float, float, float]] = {}
        for scheduler in (FCFSEasy(), agent.eval(online_learning=True)):
            res = evaluate_method(scheduler, trace, model.num_nodes)
            metrics[scheduler.name] = (
                res.metrics.avg_wait / 3600.0,
                res.metrics.max_wait / 86400.0,
                res.metrics.utilization,
            )
        rows.append(SensitivityRow(factor=factor, metrics=metrics))
    return rows


def report(rows: list[SensitivityRow]) -> str:
    methods = list(rows[0].metrics)
    table_rows = []
    for row in rows:
        for method in methods:
            aw, mw, util = row.metrics[method]
            table_rows.append(
                [f"{row.factor:.1f}x", method, f"{aw:.2f}", f"{mw:.2f}",
                 f"{util:.3f}"]
            )
    return format_table(
        ["mean overestimate", "method", "avg wait (h)", "max wait (d)",
         "utilization"],
        table_rows,
        title="Extension: sensitivity to walltime over-estimation (Theta)",
    )
