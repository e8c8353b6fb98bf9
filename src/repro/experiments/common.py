"""Shared experiment infrastructure: scales, traces, trained agents.

The expensive pieces (workload generation, agent training, the
seven-method evaluation) are cached per ``(scale, seed)`` inside one
process so that the Fig 6 / Fig 7 / Fig 8 / Table IV benchmarks — which
all analyze the same evaluation runs, exactly as the paper does — share
the work.  A trained agent is handed out as a copy: every caller gets
the complete trained state (weights, Adam moments and step, PG
baseline or DQL epsilon, RNG stream) to learn online on, and no caller
changes what the next one gets.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.analysis.comparison import MethodResult, evaluate_method
from repro.core import AGENTS
from repro.core.config import DRASConfig
from repro.rl.curriculum import train_with_curriculum
from repro.rl.trainer import TrainingHistory
from repro.schedulers import BASELINES, POLICIES
from repro.sim.job import Job
from repro.workload.models import CoriModel, ThetaModel, WorkloadModel


@dataclass(frozen=True)
class Scale:
    """Knobs controlling experiment cost.

    ``paper`` reproduces the full-size setup; smaller scales shrink the
    system, the traces and the curriculum together, preserving offered
    load and the train/validate/test structure.
    """

    name: str
    theta_nodes: int
    cori_nodes: int
    window: int
    #: jobs in the reference ("real") trace used for training material
    train_jobs: int
    #: jobs in the held-out validation trace
    validation_jobs: int
    #: jobs in the test trace (the paper tests on 21 months / 15 weeks)
    test_jobs: int
    #: curriculum sizes (sampled, real, synthetic)
    n_sampled: int
    n_real: int
    n_synthetic: int
    jobs_per_set: int
    #: capacity systems see far more (small) jobs than capability
    #: systems over the same horizon; Cori trace sizes are multiplied
    #: by this factor
    cori_jobs_factor: int = 3


_SCALES: dict[str, Scale] = {
    "tiny": Scale(
        name="tiny",
        theta_nodes=64,
        cori_nodes=96,
        window=8,
        train_jobs=500,
        validation_jobs=250,
        test_jobs=350,
        n_sampled=2,
        n_real=2,
        n_synthetic=2,
        jobs_per_set=100,
    ),
    "default": Scale(
        name="default",
        theta_nodes=256,
        cori_nodes=384,
        window=16,
        train_jobs=2000,
        validation_jobs=400,
        test_jobs=1200,
        n_sampled=4,
        n_real=4,
        n_synthetic=12,
        jobs_per_set=250,
    ),
    "paper": Scale(
        name="paper",
        theta_nodes=4360,
        cori_nodes=12076,
        window=50,
        train_jobs=10000,
        validation_jobs=5000,
        test_jobs=100000,
        n_sampled=9,
        n_real=9,
        n_synthetic=82,
        jobs_per_set=3200,
    ),
}


def get_scale(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return _SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; available: {sorted(_SCALES)}"
        ) from None


@dataclass(frozen=True)
class SystemSetup:
    """One system's model, traces and DRAS configuration."""

    system: str
    model: WorkloadModel
    config: DRASConfig
    train_trace: list[Job]
    validation_trace: list[Job]
    test_trace: list[Job]


@lru_cache(maxsize=8)
def system_setup(system: str, scale_name: str, seed: int = 0) -> SystemSetup:
    """Build the model, traces and agent config for one system."""
    scale = get_scale(scale_name)
    if system == "theta":
        model = ThetaModel.scaled(scale.theta_nodes)
        objective = "capability"
        time_scale = ThetaModel.MAX_RUNTIME
    elif system == "cori":
        model = CoriModel.scaled(scale.cori_nodes)
        objective = "capacity"
        time_scale = CoriModel.MAX_RUNTIME
    else:
        raise ValueError(f"unknown system {system!r}; expected 'theta' or 'cori'")
    config = DRASConfig.scaled(
        model.num_nodes,
        objective=objective,
        window=scale.window,
        time_scale=time_scale,
        seed=seed,
    )
    factor = scale.cori_jobs_factor if system == "cori" else 1
    rng = np.random.default_rng(seed)
    return SystemSetup(
        system=system,
        model=model,
        config=config,
        train_trace=model.generate(scale.train_jobs * factor, rng),
        validation_trace=model.generate(scale.validation_jobs * factor, rng),
        test_trace=model.generate(scale.test_jobs * factor, rng),
    )


@lru_cache(maxsize=16)
def _train(
    kind: str, system: str, scale_name: str, seed: int,
    overrides: tuple[tuple[str, object], ...],
) -> tuple[object, TrainingHistory]:
    scale = get_scale(scale_name)
    setup = system_setup(system, scale_name, seed)
    agent = AGENTS[kind](replace(setup.config, **dict(overrides)))
    history = train_with_curriculum(
        agent,
        setup.model,
        setup.train_trace,
        setup.validation_trace,
        np.random.default_rng(seed),
        n_sampled=scale.n_sampled,
        n_real=scale.n_real,
        n_synthetic=scale.n_synthetic,
        jobs_per_set=scale.jobs_per_set,
    )
    return agent, history


def trained_agent(
    kind: str, system: str, scale_name: str, seed: int = 0, **overrides
) -> tuple[object, TrainingHistory]:
    """A private copy of one agent trained with the three-phase curriculum.

    ``overrides`` replace fields of the system's :class:`DRASConfig`
    (an ablation's variant).  Training runs once per ``(kind, system,
    scale, seed)`` and resulting config in a process: the cache key
    holds only the overrides that differ from the system's config, so a
    variant equal to it is the agent every figure shares.  Each call
    returns a deep copy of the agent and its history.
    """
    base = system_setup(system, scale_name, seed).config
    changed = tuple(sorted((name, value) for name, value in overrides.items()
                           if getattr(base, name) != value))
    return copy.deepcopy(_train(kind, system, scale_name, seed, changed))


@lru_cache(maxsize=8)
def full_comparison(
    system: str, scale_name: str, seed: int = 0
) -> dict[str, MethodResult]:
    """Evaluate all seven methods on the test trace (cached).

    DRAS and Decima agents are trained first, then a copy of each is
    evaluated with online learning enabled (the paper's deployment
    mode).  Returns ``{method name: MethodResult}``; :data:`METHOD_ORDER`
    is the paper's order of the names.
    """
    setup = system_setup(system, scale_name, seed)
    methods: list = [POLICIES[key](setup.config.objective, seed)
                     for key in BASELINES]
    for kind in AGENTS:
        agent, _ = trained_agent(kind, system, scale_name, seed)
        agent.eval(online_learning=True)
        methods.append(agent)
    results: dict[str, MethodResult] = {}
    for scheduler in methods:
        results[scheduler.name] = evaluate_method(
            scheduler, setup.test_trace, setup.model.num_nodes
        )
    return results


#: canonical method display order used by the paper's figures
METHOD_ORDER = (
    "FCFS",
    "BinPacking",
    "Random",
    "Optimization",
    "Decima-PG",
    "DRAS-PG",
    "DRAS-DQL",
)
