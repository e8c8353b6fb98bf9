"""Fig 4 — quality and convergence of DRAS-PG under jobset orderings.

The paper trains DRAS-PG with the three curriculum phases in different
orders and compares the validation-reward curves.  Expected shape:

* **sampled -> real -> synthetic** converges fastest to the best model;
* **real-first** also converges but to a worse model;
* **synthetic-first** converges slowly;
* the first few episodes alone (real jobsets only) do not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.plots import sparkline
from repro.analysis.tables import format_table
from repro.core.dras_pg import DRASPG
from repro.experiments.common import get_scale, system_setup
from repro.rl.curriculum import compare_phase_orders

ORDERS: tuple[tuple[str, ...], ...] = (
    ("sampled", "real", "synthetic"),
    ("real", "sampled", "synthetic"),
    ("synthetic", "sampled", "real"),
)


@dataclass(frozen=True)
class OrderingResult:
    order: tuple[str, ...]
    validation_curve: tuple[float, ...]
    converged_at: int | None
    final_reward: float
    best_reward: float


def run(scale: str = "default", seed: int = 0) -> list[OrderingResult]:
    sc = get_scale(scale)
    setup = system_setup("theta", scale, seed)
    histories = compare_phase_orders(
        lambda: DRASPG(setup.config),
        setup.model,
        setup.train_trace,
        setup.validation_trace,
        seed=seed,
        orders=ORDERS,
        n_sampled=sc.n_sampled,
        n_real=sc.n_real,
        n_synthetic=sc.n_synthetic,
        jobs_per_set=sc.jobs_per_set,
    )
    out = []
    for order, history in histories.items():
        curve = history.validation_curve
        out.append(
            OrderingResult(
                order=order,
                validation_curve=tuple(float(v) for v in curve),
                converged_at=history.converged_at(),
                final_reward=float(curve[-1]),
                best_reward=float(curve.max()),
            )
        )
    return out


def report(results: list[OrderingResult]) -> str:
    rows = []
    for r in results:
        rows.append(
            [
                " -> ".join(r.order),
                len(r.validation_curve),
                "never" if r.converged_at is None else str(r.converged_at),
                f"{r.final_reward:.2f}",
                f"{r.best_reward:.2f}",
            ]
        )
    table = format_table(
        ["jobset order", "episodes", "converged at", "final val reward", "best"],
        rows,
        title="Fig 4: DRAS-PG convergence under different jobset orderings",
    )
    curves = "\n".join(
        f"  {' -> '.join(r.order)}: "
        + " ".join(f"{v:.1f}" for v in r.validation_curve)
        + "   " + sparkline(r.validation_curve)
        for r in results
    )
    return table + "\n\nvalidation reward per episode:\n" + curves


def history_curves(results: list[OrderingResult]) -> dict[str, np.ndarray]:
    """Curves keyed by ordering label, for plotting or assertions."""
    return {
        " -> ".join(r.order): np.array(r.validation_curve) for r in results
    }


__all__ = ["ORDERS", "OrderingResult", "run", "report", "history_curves"]
