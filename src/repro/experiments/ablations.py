"""Ablations of the design choices DESIGN.md calls out, on Theta.

These go beyond the paper's own evaluation, isolating the effect of:

* the learned level-2 backfilling vs EASY's first-fit rule (the paper
  argues backfill selection "has the potential for more aggressive
  optimization", §II-C);
* the entropy regularizer, without which REINFORCE under Eq. (1)
  collapses into an exact FCFS clone (DESIGN.md / README note);
* the window size ``W``, the starvation-alleviation knob of §III-B;
* EASY vs conservative backfilling on the heuristic side;
* the accuracy of user walltime estimates, which backfilling (EASY and
  DRAS's learned variant alike) plans against.  Production studies,
  e.g. the authors' own CLUSTER'17 work the paper cites, find them
  over-estimated by large, heavy-tailed factors; the sweep scales the
  workload model's mean over-estimation and replays FCFS and DRAS-PG.

Each DRAS-PG variant is :func:`~repro.experiments.common.trained_agent`
with config overrides, so a variant whose config equals Theta's own is
the agent Fig 6 evaluates, trained once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.comparison import MethodResult, evaluate_method
from repro.analysis.tables import format_table
from repro.experiments.common import system_setup, trained_agent
from repro.schedulers import ConservativeBackfill, FCFSEasy
from repro.sim.job import ExecMode

#: entropy coefficients compared (0 disables the regularizer)
ENTROPY_COEFS: tuple[float, ...] = (0.0, 0.05)

#: window sizes ``W`` compared
WINDOWS: tuple[int, ...] = (4, 16, 32)

#: mean multiplicative over-estimation factors swept (0 = perfect
#: estimates; the workload default is 1.0, i.e. walltime ~ 2x runtime)
OVERESTIMATE_FACTORS: tuple[float, ...] = (0.0, 1.0, 3.0)


@dataclass(frozen=True)
class AblationResult:
    #: ``{learned_backfill: result}``, learned first
    backfill: dict[bool, MethodResult]
    #: ``{"FCFS" | "entropy=<coef>": result}``
    entropy: dict[str, MethodResult]
    #: ``{window: result}``
    window: dict[int, MethodResult]
    #: ``{policy name: result}``, EASY (FCFS) first
    conservative: dict[str, MethodResult]
    #: ``{factor: {method: (avg wait h, max wait d, utilization)}}``
    estimates: dict[float, dict[str, tuple[float, float, float]]]


def _evaluate(scheduler, scale: str, seed: int) -> MethodResult:
    setup = system_setup("theta", scale, seed)
    return evaluate_method(scheduler, setup.test_trace, setup.model.num_nodes)


def _variant(scale: str, seed: int, **overrides) -> MethodResult:
    """DRAS-PG trained with ``overrides``, evaluated learning online."""
    agent, _ = trained_agent("pg", "theta", scale, seed, **overrides)
    return _evaluate(agent.eval(online_learning=True), scale, seed)


def learned_backfill(scale: str = "default",
                     seed: int = 0) -> dict[bool, MethodResult]:
    """Learned level-2 selection vs EASY first-fit inside DRAS-PG."""
    return {learned: _variant(scale, seed, learned_backfill=learned)
            for learned in (True, False)}


def entropy(scale: str = "default",
            seed: int = 0) -> dict[str, MethodResult]:
    """FCFS, then DRAS-PG at each of :data:`ENTROPY_COEFS`."""
    out = {"FCFS": _evaluate(FCFSEasy(), scale, seed)}
    for coef in ENTROPY_COEFS:
        out[f"entropy={coef}"] = _variant(scale, seed, entropy_coef=coef)
    return out


def window(scale: str = "default",
           seed: int = 0) -> dict[int, MethodResult]:
    """DRAS-PG at each of :data:`WINDOWS`."""
    return {w: _variant(scale, seed, window=w) for w in WINDOWS}


def easy_vs_conservative(scale: str = "default",
                         seed: int = 0) -> dict[str, MethodResult]:
    """Heuristic-side ablation: EASY vs conservative backfilling."""
    return {s.name: _evaluate(s, scale, seed)
            for s in (FCFSEasy(), ConservativeBackfill())}


def estimate_sensitivity(
    scale: str = "default", seed: int = 0
) -> dict[float, dict[str, tuple[float, float, float]]]:
    """FCFS and DRAS-PG on a test-size trace per over-estimation factor."""
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


def run(scale: str = "default", seed: int = 0) -> AblationResult:
    return AblationResult(
        backfill=learned_backfill(scale, seed),
        entropy=entropy(scale, seed),
        window=window(scale, seed),
        conservative=easy_vs_conservative(scale, seed),
        estimates=estimate_sensitivity(scale, seed),
    )


def report(result: AblationResult) -> str:
    blocks = [
        format_table(
            ["level-2 policy", "avg wait (h)", "max wait (d)",
             "backfilled wait (h)", "utilization"],
            [["learned" if learned else "first-fit",
              r.metrics.avg_wait / 3600, r.metrics.max_wait / 86400,
              r.modes.avg_wait[ExecMode.BACKFILLED] / 3600,
              r.metrics.utilization]
             for learned, r in result.backfill.items()],
            title="Ablation: learned vs first-fit backfilling "
            "(DRAS-PG, theta)",
        ),
        format_table(
            ["variant", "avg wait (h)", "max wait (d)"],
            [[name, r.metrics.avg_wait / 3600, r.metrics.max_wait / 86400]
             for name, r in result.entropy.items()],
            title="Ablation: entropy regularization (DRAS-PG, theta)",
        ),
        format_table(
            ["window W", "avg wait (h)", "max wait (d)", "utilization"],
            [[w, r.metrics.avg_wait / 3600, r.metrics.max_wait / 86400,
              r.metrics.utilization]
             for w, r in result.window.items()],
            title="Ablation: window size (DRAS-PG, theta)",
        ),
        format_table(
            ["policy", "avg wait (h)", "max wait (d)", "backfilled jobs %",
             "utilization"],
            [[name, r.metrics.avg_wait / 3600, r.metrics.max_wait / 86400,
              100 * r.modes.job_share[ExecMode.BACKFILLED],
              r.metrics.utilization]
             for name, r in result.conservative.items()],
            title="Ablation: EASY vs conservative backfilling (theta)",
        ),
        format_table(
            ["mean overestimate", "method", "avg wait (h)", "max wait (d)",
             "utilization"],
            [[f"{factor:.1f}x", method, f"{aw:.2f}", f"{mw:.2f}",
              f"{util:.3f}"]
             for factor, metrics in result.estimates.items()
             for method, (aw, mw, util) in metrics.items()],
            title="Extension: sensitivity to walltime over-estimation "
            "(Theta)",
        ),
    ]
    return "\n\n".join(blocks)
