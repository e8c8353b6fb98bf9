"""Extension benchmark: sensitivity to runtime-estimate inaccuracy.

Backfilling (EASY and DRAS's learned variant alike) plans against
*user-supplied walltime estimates*, which production studies — e.g. the
authors' own CLUSTER'17 work on runtime-estimate accuracy, cited by the
paper — find to be over-estimated by large, heavy-tailed factors.  This
benchmark sweeps the mean over-estimation factor of the workload model
and reports how FCFS and DRAS-PG degrade, isolating how robust the
learned policy is to estimate noise.

This is not a figure in the paper; it is the natural follow-up the
paper's §II-C backfilling discussion invites, and DESIGN.md lists it as
an extension ablation.  No ``repro`` command runs it.
"""

from dataclasses import replace

import numpy as np
from conftest import SCALE, save_report

from repro.analysis import evaluate_method, format_table
from repro.experiments.common import get_scale, system_setup, trained_agent
from repro.schedulers import FCFSEasy

#: mean multiplicative over-estimation factors swept (0 = perfect
#: estimates; the workload default is 1.0, i.e. walltime ~ 2x runtime)
OVERESTIMATE_FACTORS: tuple[float, ...] = (0.0, 1.0, 3.0)


def sweep(scale: str, seed: int = 0) -> dict[float, dict[str, tuple]]:
    """``{factor: {method: (avg wait h, max wait d, utilization)}}``."""
    get_scale(scale)
    setup = system_setup("theta", scale, seed)
    rows = {}
    for factor in OVERESTIMATE_FACTORS:
        runtimes = replace(setup.model.runtimes, mean_overestimate=factor)
        model = replace(setup.model, runtimes=runtimes)
        trace = model.generate(len(setup.test_trace),
                               np.random.default_rng(seed + 13))
        agent, _ = trained_agent("pg", "theta", scale, seed)
        rows[factor] = {}
        for scheduler in (FCFSEasy(), agent.eval(online_learning=True)):
            m = evaluate_method(scheduler, trace, model.num_nodes).metrics
            rows[factor][scheduler.name] = (
                m.avg_wait / 3600.0, m.max_wait / 86400.0, m.utilization)
    return rows


def test_estimate_sensitivity(benchmark, report_dir):
    rows = benchmark.pedantic(lambda: sweep(SCALE), rounds=1, iterations=1)
    text = format_table(
        ["mean overestimate", "method", "avg wait (h)", "max wait (d)",
         "utilization"],
        [[f"{factor:.1f}x", method, f"{aw:.2f}", f"{mw:.2f}", f"{util:.3f}"]
         for factor, metrics in rows.items()
         for method, (aw, mw, util) in metrics.items()],
        title="Extension: sensitivity to walltime over-estimation (Theta)",
    )
    save_report(report_dir, "estimate_sensitivity", text)

    assert list(rows) == list(OVERESTIMATE_FACTORS)
    for metrics in rows.values():
        for avg_wait, max_wait, util in metrics.values():
            assert np.isfinite(avg_wait) and avg_wait >= 0
            assert np.isfinite(max_wait) and max_wait >= 0
            assert 0 <= util <= 1
    # both methods keep scheduling sanely even with perfect estimates
    # (factor 0 removes all backfill slack for long jobs)
    perfect = rows[0.0]
    assert all(m[0] > 0 for m in perfect.values())
