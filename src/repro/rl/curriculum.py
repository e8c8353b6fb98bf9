"""Three-phase curriculum training and the Fig 4 ordering study.

The paper's key training insight: *DRAS starts with simple average
cases and gradually improves its capability with unseen rare cases*
(§III-C).  Training proceeds through sampled, real, then synthetic
jobsets; Fig 4 shows this ordering converges fastest and to the best
model, while synthetic-first converges slowly and real-only never
converges.
"""

from __future__ import annotations

import numpy as np

from repro.rl.trainer import Trainer, TrainingHistory
from repro.sim.job import Job
from repro.workload.jobsets import CurriculumPhase, three_phase_curriculum
from repro.workload.models import WorkloadModel


def _flatten(phases: list[CurriculumPhase]) -> list[tuple[str, list[Job]]]:
    return [(phase.name, jobset) for phase in phases for jobset in phase.jobsets]


def train_with_curriculum(
    agent,
    model: WorkloadModel,
    base_trace: list[Job],
    validation_jobs: list[Job],
    rng: np.random.Generator,
    n_sampled: int = 9,
    n_real: int = 9,
    n_synthetic: int = 82,
    jobs_per_set: int | None = None,
    order: tuple[str, ...] = ("sampled", "real", "synthetic"),
    telemetry=None,
    faults=None,
    checkpoint_path=None,
    history: TrainingHistory | None = None,
) -> TrainingHistory:
    """Train ``agent`` with the three-phase curriculum.

    Defaults mirror the Theta setup of §IV-D (9 sampled + 9 real + 82
    synthetic jobsets); experiments scale the counts down via the
    keyword arguments.  ``telemetry`` (the training log, a
    :class:`~repro.obs.live.SnapshotWriter`), ``faults`` (a
    :class:`~repro.sim.faults.FaultConfig`) and ``checkpoint_path``
    (the agent file) are forwarded to the
    :class:`~repro.rl.trainer.Trainer`; ``history`` resumes a
    checkpointed run (completed episodes are skipped, so the
    curriculum must be regenerated with the *same* ``rng`` seed the
    interrupted run used).
    """
    phases = three_phase_curriculum(
        model,
        base_trace,
        rng,
        n_sampled=n_sampled,
        n_real=n_real,
        n_synthetic=n_synthetic,
        jobs_per_set=jobs_per_set,
        order=order,
    )
    trainer = Trainer(agent, model.num_nodes, validation_jobs=validation_jobs,
                      telemetry=telemetry, faults=faults,
                      checkpoint_path=checkpoint_path)
    return trainer.train(_flatten(phases), history=history)


def compare_phase_orders(
    agent_factory,
    model: WorkloadModel,
    base_trace: list[Job],
    validation_jobs: list[Job],
    seed: int = 0,
    orders: tuple[tuple[str, ...], ...] = (
        ("sampled", "real", "synthetic"),
        ("real", "sampled", "synthetic"),
        ("synthetic", "sampled", "real"),
    ),
    **curriculum_kwargs,
) -> dict[tuple[str, ...], TrainingHistory]:
    """Train one fresh agent per phase ordering (the Fig 4 study).

    ``agent_factory`` builds an identically-initialized agent for every
    ordering; the jobset RNG is reseeded per ordering so each agent
    sees statistically identical (but order-permuted) curricula.
    """
    results: dict[tuple[str, ...], TrainingHistory] = {}
    for order in orders:
        rng = np.random.default_rng(seed)
        agent = agent_factory()
        results[order] = train_with_curriculum(
            agent,
            model,
            base_trace,
            validation_jobs,
            rng,
            order=order,
            **curriculum_kwargs,
        )
    return results
