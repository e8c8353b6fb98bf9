"""§V-E — runtime overhead of the DRAS agents.

The paper reports, on a personal computer, less than 1 s per DRAS-PG
parameter update and less than 2 s per DRAS-DQL update; production
scheduling must decide within 15-30 s.  This experiment times, on the
*full-size Theta networks*, (a) one decision — a forward pass over a
full window (for DRAS-DQL: ``W`` job blocks scored against the one node
state they share, as ``DRASDQL.select`` does) — and (b) one parameter
update, and checks them against the real-time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.core.config import DRASConfig
from repro.core.dras_dql import DRASDQL
from repro.nn.losses import mse_loss, policy_gradient_loss
from repro.nn.network import build_dras_network
from repro.nn.optim import Adam

REALTIME_BUDGET_S = 15.0


@dataclass(frozen=True)
class OverheadResult:
    agent: str
    decision_s: float
    update_s: float
    params: int

    @property
    def within_budget(self) -> bool:
        return self.decision_s < REALTIME_BUDGET_S


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_pg(config: DRASConfig, batch: int = 10, repeats: int = 3) -> OverheadResult:
    dims = config.pg_dims
    rng = np.random.default_rng(0)
    net = build_dras_network(dims.rows, dims.hidden1, dims.hidden2, dims.outputs, rng=rng)
    opt = Adam(net.parameters(), lr=config.learning_rate)
    x1 = rng.random((1, dims.rows, 2))
    xb = rng.random((batch, dims.rows, 2))
    masks = np.ones((batch, dims.outputs), dtype=bool)
    actions = rng.integers(dims.outputs, size=batch)
    advantages = rng.normal(size=batch)

    decision = _time(lambda: net.forward(x1), repeats)

    def update() -> None:
        logits = net.forward(xb)
        _, grad = policy_gradient_loss(logits, masks, actions, advantages)
        net.backward(grad)
        opt.step()

    return OverheadResult(
        agent="DRAS-PG",
        decision_s=decision,
        update_s=_time(update, repeats),
        params=sum(p.size for p in net.parameters()),
    )


def measure_dql(config: DRASConfig, batch: int = 10, repeats: int = 3) -> OverheadResult:
    dims = config.dql_dims
    rng = np.random.default_rng(0)
    agent = DRASDQL(config)
    net = agent.network
    opt = Adam(net.parameters(), lr=config.learning_rate)
    # one decision = what DRASDQL.select runs: every job block of a full
    # window scored against the one node snapshot they share
    heads = rng.random((config.window, 2, 2))
    nodes = rng.random((config.num_nodes, 2))
    xb = rng.random((batch, dims.rows, 2))
    targets = rng.normal(size=(batch, 1))

    decision = _time(lambda: agent.score_window(heads, nodes), repeats)

    def update() -> None:
        q = net.forward(xb)
        _, grad = mse_loss(q, targets)
        net.backward(grad)
        opt.step()

    return OverheadResult(
        agent="DRAS-DQL",
        decision_s=decision,
        update_s=_time(update, repeats),
        params=sum(p.size for p in net.parameters()),
    )


def run(full_size: bool = True, repeats: int = 3) -> list[OverheadResult]:
    """Measure overheads.

    ``full_size`` times the real Theta architecture (21.9M / 21.4M
    parameters); otherwise a scaled config (useful in tests).
    """
    config = DRASConfig.theta() if full_size else DRASConfig.scaled(256)
    return [measure_pg(config, repeats=repeats), measure_dql(config, repeats=repeats)]


def report(results: list[OverheadResult]) -> str:
    rows = [
        [
            r.agent,
            f"{r.params:,}",
            f"{r.decision_s * 1000:.1f} ms",
            f"{r.update_s * 1000:.1f} ms",
            "yes" if r.within_budget else "NO",
            "paper: <1 s/update" if r.agent == "DRAS-PG" else "paper: <2 s/update",
        ]
        for r in results
    ]
    return format_table(
        ["agent", "parameters", "decision", "parameter update", "within 15 s budget", "reference"],
        rows,
        title="Sec V-E: DRAS runtime overhead (full-size Theta networks)",
    )
