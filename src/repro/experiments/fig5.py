"""Fig 5 — total reward on the validation set per training episode.

The learning curves of DRAS-PG, DRAS-DQL and Decima-PG are plotted
against the (constant) total reward of the static methods, all scored
by the same capability objective on the same validation jobset.
Expected shape: the three-phase curriculum lets the DRAS agents climb
past every competing method and converge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.plots import line_chart
from repro.analysis.tables import format_table
from repro.core import AGENTS
from repro.experiments.common import system_setup, trained_agent
from repro.rl.meter import RewardMeter
from repro.schedulers import BASELINES, POLICIES
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine


@dataclass(frozen=True)
class LearningCurves:
    #: per-episode validation reward of the learning agents
    curves: dict[str, tuple[float, ...]]
    #: constant validation reward of each static method
    static_rewards: dict[str, float]


def _static_reward(scheduler, jobs, num_nodes, reward_fn) -> float:
    meter = RewardMeter(reward_fn)
    Engine(
        Cluster(num_nodes),
        scheduler,
        [j.copy_fresh() for j in jobs],
        observers=[meter],
    ).run()
    return meter.total


def run(scale: str = "default", seed: int = 0) -> LearningCurves:
    setup = system_setup("theta", scale, seed)
    curves: dict[str, tuple[float, ...]] = {}
    for kind, cls in AGENTS.items():
        history = trained_agent(kind, "theta", scale, seed)[1]
        curves[cls.name] = tuple(float(v) for v in history.validation_curve)

    reward_fn = trained_agent("pg", "theta", scale, seed)[0].reward_fn
    static_rewards = {}
    for key in BASELINES:
        scheduler = POLICIES[key](setup.config.objective, seed)
        static_rewards[scheduler.name] = _static_reward(
            scheduler, setup.validation_trace, setup.model.num_nodes, reward_fn
        )
    return LearningCurves(curves=curves, static_rewards=static_rewards)


def report(result: LearningCurves) -> str:
    rows = [
        [name, f"{reward:.2f}", "static"]
        for name, reward in result.static_rewards.items()
    ]
    for name, curve in result.curves.items():
        rows.append([name, f"{curve[-1]:.2f}", f"episode curve ({len(curve)} eps)"])
    table = format_table(
        ["method", "final validation reward", "kind"],
        rows,
        title="Fig 5: total reward on the Theta validation set",
    )
    curves = "\n".join(
        f"  {name}: " + " ".join(f"{v:.1f}" for v in curve)
        for name, curve in result.curves.items()
    )
    chart = line_chart(
        {name: list(curve) for name, curve in result.curves.items()},
        title="validation reward vs episode:",
    )
    return (table + "\n\nlearning curves (validation reward per episode):\n"
            + curves + "\n\n" + chart)
