"""The six benchmark workloads: inputs, latency probes, one repetition each.

A workload owns three things: how its inputs are made from ``--seed``,
how a (frozen) agent is built, and what one repetition runs inside the
timed region.  Everything the program under test receives is a
``list[Job]`` plus objects built from its own public constructors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, ClassVar

import numpy as np

from calibrate import BlasKernel, InterpreterKernel
from repro.core.agent import HierarchicalAgent
from repro.core.config import DRASConfig
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.nn.network import count_parameters
from repro.obs.trace import Tracer
from repro.rl.trainer import Trainer
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.sim.job import Job
from repro.workload.models import CoriModel, ThetaModel, WorkloadModel

#: seed of the base trace every workload perturbs.  A heavy-tailed
#: trace re-drawn from scratch moves the simulator's work between seeds
#: by far more than any bound could resolve: 27% (Theta, total
#: backfill-scan length) to over 100% (Cori, queue depth) at 20,000
#: jobs and load 1.1, still 11-14% (Cori, release-time queries and the
#: nodes they sort) at the surge sizes used here — where the rare
#: 2,048- and 6,000-node jobs land decides the backlog.  The base trace
#: fixes who arrives when and how big; ``--seed`` re-draws every job's
#: runtime, walltime and inter-arrival gap around it, which moves the
#: same counts by 0.3-4%.
TRACE_SEED = 2021
#: sigma of the lognormal factors ``--seed`` applies to each job
JITTER_SIGMA = 0.1
#: nodes of a smoke run's machine
SMOKE_NODES = 64

#: Table III bottom row for Theta, asserted against the built networks
THETA_PG_PARAMS = 21_890_053
THETA_DQL_PARAMS = 21_449_004


def make_trace(model: WorkloadModel, n_jobs: int, load_factor: float,
               seed: int) -> list[Job]:
    """The workload's base trace with every job perturbed from ``seed``.

    Runtime and walltime of a job scale by one lognormal factor (the
    user's over-estimate ratio is kept), each inter-arrival gap by
    another.  Sizes, priorities, order and dependencies are the base
    trace's.
    """
    jobs = model.generate(n_jobs, np.random.default_rng(TRACE_SEED),
                          load_factor=load_factor)
    rng = np.random.default_rng(seed)
    stretch = rng.lognormal(0.0, JITTER_SIGMA, size=n_jobs)
    gaps = rng.lognormal(0.0, JITTER_SIGMA, size=n_jobs)
    previous = now = 0.0
    for job, factor, gap in zip(jobs, stretch, gaps):
        now += (job.submit_time - previous) * gap
        previous = job.submit_time
        job.submit_time = now
        job.runtime *= factor
        job.walltime *= factor
    return jobs


def fresh(jobs: list[Job]) -> list[Job]:
    """Pristine copies of ``jobs`` for one repetition."""
    return [job.copy_fresh() for job in jobs]


class LatencyProbe:
    """Times every ``schedule`` call of the scheduler class it is mixed into.

    The two clock reads and the append are the only benchmark code on
    the timed path of an untraced run, and they are the same on every
    commit.
    """

    latencies: list[float]

    def schedule(self, view) -> None:  # noqa: ANN001 - SchedulingView
        start = perf_counter()
        super().schedule(view)
        self.latencies.append(perf_counter() - start)


class ProbedFCFSEasy(LatencyProbe, FCFSEasy):
    pass


class ProbedDRASPG(LatencyProbe, DRASPG):
    pass


class ProbedDRASDQL(LatencyProbe, DRASDQL):
    pass


class TrainingDRASPG(ProbedDRASPG):
    """Also keeps what each engine run of a ``Trainer`` produced.

    ``Trainer`` copies its jobsets and drops the ``SimulationResult``,
    so the engine's end-of-run hook is the one place the finished jobs
    can be collected for the validity check.
    """

    finished_runs: list[tuple[list[Job], int]]

    def on_simulation_end(self, engine) -> None:  # noqa: ANN001 - Engine
        super().on_simulation_end(engine)
        # no public accessor lists an engine's jobs after a run
        self.finished_runs.append(
            (list(engine._jobs.values()), engine.num_instances))


@dataclass
class Repetition:
    """What one repetition produced; timings are raw host seconds."""

    started: float
    ended: float
    latencies: list[float]
    #: ``(jobs, num_instances)`` of every engine run, in order
    runs: list[tuple[list[Job], int]]
    agent: HierarchicalAgent | None = None
    #: the run's ``SimulationResult`` (simulation workloads only)
    result: Any = None

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    @property
    def jobs(self) -> int:
        return sum(len(jobs) for jobs, _ in self.runs)


@dataclass(frozen=True)
class Workload:
    """One named workload.  Subclasses say what a repetition runs."""

    name: str
    why: str
    system: type                    # ThetaModel or CoriModel
    num_nodes: int
    n_jobs: int
    load_factor: float = 1.0
    #: calibration kernel whose instruction mix matches the workload
    kernel: ClassVar[type] = InterpreterKernel
    #: jobs a smoke run replays at most
    smoke_jobs: ClassVar[int] = 120

    def model(self) -> WorkloadModel:
        return self.system.scaled(self.num_nodes)

    def sizes(self) -> dict[str, Any]:
        """The pinned sizes, for the result file's environment block."""
        return {"system": self.system.__name__, "num_nodes": self.num_nodes,
                "n_jobs": self.n_jobs, "load_factor": self.load_factor}

    def smoke(self) -> "Workload":
        """The same code paths at a size that finishes in a second."""
        return replace(self, num_nodes=SMOKE_NODES,
                       n_jobs=min(self.n_jobs, self.smoke_jobs))

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def repetition(self, state: Any) -> Repetition:
        raise NotImplementedError


@dataclass(frozen=True)
class EasyWorkload(Workload):
    """A trace replayed under FCFS/EASY, dark or with the tracer live."""

    traced: bool = False

    def setup(self, seed: int) -> list[Job]:
        return make_trace(self.model(), self.n_jobs, self.load_factor, seed)

    def repetition(self, state: list[Job]) -> Repetition:
        jobs = fresh(state)
        scheduler = ProbedFCFSEasy()
        scheduler.latencies = []
        tracer = Tracer(os.devnull) if self.traced else None
        started = perf_counter()
        result = run_simulation(self.num_nodes, scheduler, jobs, trace=tracer)
        ended = perf_counter()
        if tracer is not None:
            tracer.close()
        return Repetition(started, ended, scheduler.latencies,
                          [(result.jobs, result.num_instances)], result=result)


@dataclass
class AgentState:
    jobs: list[Job]
    agent: HierarchicalAgent
    #: the agent generator's state right after construction
    rng_state: dict


@dataclass(frozen=True)
class AgentWorkload(Workload):
    """Shared by the agent workloads: Table III networks at paper scale."""

    agent_class: type = ProbedDRASPG
    kernel: ClassVar[type] = BlasKernel

    def config(self) -> DRASConfig:
        if self.num_nodes == ThetaModel.PAPER_NODES:
            return DRASConfig.theta()
        return DRASConfig.scaled(self.num_nodes, window=10)

    def build_agent(self) -> HierarchicalAgent:
        config = self.config()
        agent = self.agent_class(config)
        if self.num_nodes == ThetaModel.PAPER_NODES:
            dql = isinstance(agent, DRASDQL)
            dims = config.dql_dims if dql else config.pg_dims
            expected = THETA_DQL_PARAMS if dql else THETA_PG_PARAMS
            built = count_parameters(agent.network)
            if not dims.param_count == built == expected:
                raise RuntimeError(
                    f"{self.name}: network has {built} parameters, Table III "
                    f"says {expected} (dims give {dims.param_count})")
        return agent

    def sizes(self) -> dict[str, Any]:
        config = self.config()
        return {**super().sizes(), "window": config.window,
                "hidden1": config.hidden1, "hidden2": config.hidden2}


@dataclass(frozen=True)
class DecideWorkload(AgentWorkload):
    """A frozen agent deciding every scheduling instance of a trace."""

    smoke_jobs: ClassVar[int] = 40

    def setup(self, seed: int) -> AgentState:
        jobs = make_trace(self.model(), self.n_jobs, self.load_factor, seed)
        agent = self.build_agent()
        agent.eval(online_learning=False)
        return AgentState(jobs, agent, agent.rng.bit_generator.state)

    def repetition(self, state: AgentState) -> Repetition:
        jobs = fresh(state.jobs)
        agent = state.agent
        # PG samples its actions: rewind the generator in place (the
        # policy core holds a reference to the same object)
        agent.rng.bit_generator.state = state.rng_state
        agent.latencies = []
        started = perf_counter()
        result = run_simulation(self.num_nodes, agent, jobs)
        ended = perf_counter()
        return Repetition(started, ended, agent.latencies,
                          [(result.jobs, result.num_instances)], agent=agent,
                          result=result)


@dataclass
class TrainState:
    jobsets: list[tuple[str, list[Job]]]
    validation: list[Job]


@dataclass(frozen=True)
class TrainWorkload(AgentWorkload):
    """``Trainer.train`` over surge jobsets with a fresh agent each time.

    ``n_jobs`` is the size of one training jobset; the validation set
    is a quarter of that.
    """

    agent_class: type = TrainingDRASPG
    episodes: int = 2

    def sizes(self) -> dict[str, Any]:
        return {**super().sizes(), "episodes": self.episodes,
                "validation_jobs": self.validation_jobs}

    @property
    def validation_jobs(self) -> int:
        return max(2, self.n_jobs // 4)

    def setup(self, seed: int) -> TrainState:
        model = self.model()
        # one perturbed trace cut into jobsets: every jobset starts at
        # its own first submission, as a Trainer's jobsets do
        total = self.episodes * self.n_jobs + self.validation_jobs
        trace = make_trace(model, total, self.load_factor, seed)
        cuts = [trace[i * self.n_jobs:(i + 1) * self.n_jobs]
                for i in range(self.episodes)]
        jobsets = [(f"surge-{i}", _without_outside_deps(cut))
                   for i, cut in enumerate(cuts)]
        validation = _without_outside_deps(trace[self.episodes * self.n_jobs:])
        return TrainState(jobsets, validation)

    def repetition(self, state: TrainState) -> Repetition:
        agent = self.build_agent()
        agent.latencies = []
        agent.finished_runs = []
        trainer = Trainer(agent, self.num_nodes,
                          validation_jobs=state.validation)
        started = perf_counter()
        trainer.train(state.jobsets)
        ended = perf_counter()
        return Repetition(started, ended, agent.latencies,
                          agent.finished_runs, agent=agent)


def _without_outside_deps(jobs: list[Job]) -> list[Job]:
    """Drop dependencies on jobs that are not part of the jobset.

    A jobset is replayed alone, so a dependency on a job of another
    jobset could never be met.
    """
    ids = {job.job_id for job in jobs}
    for job in jobs:
        job.dependencies = tuple(d for d in job.dependencies if d in ids)
    return jobs


THETA = ThetaModel.PAPER_NODES
CORI = CoriModel.PAPER_NODES

#: the workloads, in the order they run.  Node counts, models,
#: schedulers and network dimensions are fixed by name; job counts and
#: load factors are sized so that one repetition takes 0.4-2.5 s and
#: its work barely moves with ``--seed`` (see README.md: "Sizing").
WORKLOADS: tuple[Workload, ...] = (
    EasyWorkload(
        "theta_easy",
        "capability surge: a queue thousands deep drains under few running "
        "jobs, so backfill scans and queue upkeep dominate; nn does nothing",
        ThetaModel, THETA, n_jobs=2500, load_factor=100.0),
    EasyWorkload(
        "cori_easy",
        "capacity surge, thousands of 1-node jobs running: release-time "
        "queries and allocate/release over 12k-element arrays dominate",
        CoriModel, CORI, n_jobs=3000, load_factor=10.0),
    EasyWorkload(
        "theta_easy_traced",
        "the theta_easy trace with every instrumentation site live: a gain "
        "on the dark path that costs the observed path shows here",
        ThetaModel, THETA, n_jobs=2500, load_factor=100.0, traced=True),
    DecideWorkload(
        "theta_pg_decide",
        "frozen DRAS-PG, one [1,4460,2] forward per decision: a memory-bound "
        "GEMV over 143 MB of weights; the paper's decision-latency claim",
        ThetaModel, THETA, n_jobs=100, load_factor=20.0,
        agent_class=ProbedDRASPG),
    DecideWorkload(
        "theta_dql_decide",
        "frozen DRAS-DQL scores the whole window per decision: [B,4362,2] "
        "encodings and a compute-bound GEMM at B up to 50",
        ThetaModel, THETA, n_jobs=50, load_factor=1000.0,
        agent_class=ProbedDRASDQL),
    TrainWorkload(
        "theta_pg_train",
        "Trainer.train on DRAS-PG: backward and Adam over 21.9M parameters "
        "and per-episode 175 MB snapshots dominate; inference is minor",
        ThetaModel, THETA, n_jobs=12, load_factor=200.0),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
