"""§V-E — runtime overhead of the DRAS agents.

The paper reports, on a personal computer, less than 1 s per DRAS-PG
parameter update and less than 2 s per DRAS-DQL update; production
scheduling must decide within 15-30 s.  This experiment times, on the
*full-size Theta networks*, (a) one decision — the agent's own scoring
of a full window (``PGCore.policy`` / ``DRASDQL.q_values``) against a
cluster filled with Theta-model jobs to ``OCCUPANCY``, which is what a
scheduler meets, and against one whose every node is a release group of
its own, which is the most a decision can cost — and (b) one parameter
update, and checks them against the real-time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace

import numpy as np

from repro.analysis.tables import format_table
from repro.core.config import DRASConfig
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.nn.losses import mse_loss, policy_gradient_loss
from repro.sim.cluster import Cluster
from repro.sim.job import Job
from repro.workload.models import ThetaModel

REALTIME_BUDGET_S = 15.0
#: share of the nodes running jobs hold in the typical decision
OCCUPANCY = 0.9

#: decisions per timed parameter update
_BATCH = 10


@dataclass(frozen=True)
class OverheadResult:
    agent: str
    #: one decision against the cluster at ``OCCUPANCY``
    decision_s: float
    #: one decision with every node a release group of its own
    worst_decision_s: float
    update_s: float
    params: int

    @property
    def within_budget(self) -> bool:
        return self.worst_decision_s < REALTIME_BUDGET_S


def _time(fn, repeats: int = 3) -> float:
    fn()  # a first decision also builds the group sums it then reuses
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def decision_states(config: DRASConfig) -> tuple[list[Job], list[SimpleNamespace]]:
    """A full window and the two states it is scored against.

    Jobs of a Theta-model trace start in arrival order until they hold
    ``OCCUPANCY`` of the nodes and the next ``window`` of them wait;
    the second cluster has every node down with a repair time of its
    own.  A state is what the agents read of a ``SchedulingView``: the
    cluster and the clock, ten minutes in.
    """
    rng = np.random.default_rng(0)
    n = config.num_nodes
    jobs = iter(ThetaModel.scaled(n).generate(4 * config.window + n // 8, rng))
    busy = Cluster(n)
    for job in jobs:
        if busy.used_nodes >= OCCUPANCY * n:
            break
        if busy.can_fit(job.size):
            busy.allocate(job, 0.0)
    window = list(islice(jobs, config.window))
    apart = Cluster(n)
    apart.fail_nodes(np.arange(n), 0.0, rng.uniform(60.0, 86400.0, size=n))
    return window, [SimpleNamespace(cluster=c, now=600.0) for c in (busy, apart)]


def _measure(agent, decide, loss, rows: int, repeats: int) -> OverheadResult:
    """Time ``decide(window, state)`` on both states and one update of ``_BATCH``."""
    net, opt = agent.network, agent.optimizer
    window, (typical, worst) = decision_states(agent.config)
    xb = np.random.default_rng(0).random((_BATCH, rows, 2))

    def update() -> None:
        _, grad = loss(net.forward(xb))
        net.backward(grad)
        opt.step()

    return OverheadResult(
        agent=agent.name,
        decision_s=_time(lambda: decide(window, typical), repeats),
        worst_decision_s=_time(lambda: decide(window, worst), repeats),
        update_s=_time(update, repeats),
        params=sum(p.size for p in net.parameters()),
    )


def measure_pg(config: DRASConfig, repeats: int = 3) -> OverheadResult:
    rng = np.random.default_rng(0)
    masks = np.ones((_BATCH, config.window), dtype=bool)
    actions = rng.integers(config.window, size=_BATCH)
    advantages = rng.normal(size=_BATCH)
    agent = DRASPG(config)
    return _measure(
        agent, agent.core.policy,
        lambda logits: policy_gradient_loss(logits, masks, actions, advantages),
        config.pg_dims.rows, repeats)


def measure_dql(config: DRASConfig, repeats: int = 3) -> OverheadResult:
    targets = np.random.default_rng(0).normal(size=(_BATCH, 1))
    agent = DRASDQL(config)
    return _measure(agent, agent.q_values, lambda q: mse_loss(q, targets),
                    config.dql_dims.rows, repeats)


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
            f"{r.worst_decision_s * 1000:.1f} ms",
            f"{r.update_s * 1000:.1f} ms",
            "yes" if r.within_budget else "NO",
            "paper: <1 s/update" if r.agent == "DRAS-PG" else "paper: <2 s/update",
        ]
        for r in results
    ]
    return format_table(
        ["agent", "parameters", f"decision, {OCCUPANCY:.0%} busy",
         "decision, every node apart", "parameter update",
         "within 15 s budget", "reference"],
        rows,
        title="Sec V-E: DRAS runtime overhead (full-size Theta networks)",
    )
