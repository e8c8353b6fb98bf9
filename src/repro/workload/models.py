"""Statistical workload models for Theta and Cori (Table II, Fig 2).

The paper evaluates on two production systems with opposite profiles:

* **Theta** (ALCF) — *capability* computing.  4,392 KNL nodes of which
  4,360 serve user jobs; the smallest allowed job is 128 nodes; maximum
  job length is 1 day; 121,837 jobs over 24 months (~170/day); ~2.25%
  of jobs have dependencies.  Core hours are dominated by large jobs.
* **Cori** (NERSC) — *capacity* computing.  12,076 nodes; a majority of
  jobs use one or a few nodes; maximum job length is 7 days; 2,607,054
  jobs over ~4 months (~21k/day).

The real logs are not redistributable, so :class:`WorkloadModel`
generates statistically similar traces; every experiment consumes
traces through the same ``list[Job]`` interface, so a real SWF log can
be substituted via :func:`repro.workload.swf.read_swf`.

``scaled()`` constructors shrink the node count and arrival rate
together so the *offered load* (requested node-seconds per available
node-second) is preserved — that is what determines queueing behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sim.job import Job
from repro.workload.generator import (
    DEFAULT_DAILY_PROFILE,
    DEFAULT_HOURLY_PROFILE,
    CategoricalSizes,
    DiurnalArrivals,
    LognormalRuntimes,
)
from repro.workload.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: offered load of the Theta and Cori models (above 1: a queue builds)
UTILIZATION = 1.10


@dataclass(frozen=True)
class WorkloadModel:
    """A complete statistical model of one system's workload."""

    name: str
    num_nodes: int
    arrivals: DiurnalArrivals
    sizes: CategoricalSizes
    runtimes: LognormalRuntimes
    #: jobs at least this many nodes get ``priority=1`` (capability jobs)
    priority_threshold: int
    #: probability that a job depends on a recent earlier job
    dependency_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if max(self.sizes.sizes) > self.num_nodes:
            raise ValueError(
                f"size mix contains {max(self.sizes.sizes)}-node jobs but the "
                f"system has only {self.num_nodes} nodes"
            )
        if not 0.0 <= self.dependency_prob <= 1.0:
            raise ValueError("dependency_prob must be in [0, 1]")

    # -- generation --------------------------------------------------------
    def generate(
        self,
        n_jobs: int,
        rng: np.random.Generator,
        start: float = 0.0,
        load_factor: float = 1.0,
    ) -> list[Job]:
        """Generate ``n_jobs`` jobs.

        ``load_factor`` scales the arrival rate (``>1`` produces demand
        surges, used by the Fig 9 adaptation experiment).
        """
        if n_jobs <= 0:
            raise ValueError("n_jobs must be positive")
        if load_factor <= 0:
            raise ValueError("load_factor must be positive")
        arrivals = replace(
            self.arrivals, base_rate=self.arrivals.base_rate * load_factor
        )
        times = arrivals.sample(n_jobs, rng, start=start)
        sizes = self.sizes.sample(n_jobs, rng)
        runtimes, walltimes = self.runtimes.sample(n_jobs, rng)

        jobs: list[Job] = []
        for i in range(n_jobs):
            deps: tuple[int, ...] = ()
            if (
                self.dependency_prob > 0
                and jobs
                and rng.random() < self.dependency_prob
            ):
                parent = jobs[-1 - int(rng.integers(min(10, len(jobs))))]
                deps = (parent.job_id,)
            jobs.append(
                Job(
                    size=int(sizes[i]),
                    walltime=float(walltimes[i]),
                    runtime=float(runtimes[i]),
                    submit_time=float(times[i]),
                    priority=1 if sizes[i] >= self.priority_threshold else 0,
                    dependencies=deps,
                )
            )
        return jobs

    def generate_span(
        self,
        duration: float,
        rng: np.random.Generator,
        start: float = 0.0,
        load_factor: float = 1.0,
    ) -> list[Job]:
        """Generate jobs covering ``duration`` seconds of arrivals."""
        expected = max(1, int(self.arrivals.base_rate * load_factor * duration))
        jobs = self.generate(
            int(expected * 1.3) + 8, rng, start=start, load_factor=load_factor
        )
        return [j for j in jobs if j.submit_time < start + duration]

    # -- characterization helpers (Table II / Fig 2) --------------------------
    def offered_load(self) -> float:
        """Expected requested node-seconds per available node-second."""
        mean_size = self.sizes.mean()
        # mean of the clipped lognormal, estimated numerically
        rng = np.random.default_rng(0)
        runtimes, _ = self.runtimes.sample(20_000, rng)
        mean_runtime = float(np.mean(runtimes))
        return self.arrivals.base_rate * mean_size * mean_runtime / self.num_nodes


def _theta_size_mix(num_nodes: int) -> dict[int, float]:
    """Capability size mix following Fig 2 (Theta).

    Job counts concentrate at the minimum size (128 nodes) while core
    hours concentrate in the large categories.  Sizes are expressed as
    fractions of the system and snapped to powers of two.
    """
    fractions = {
        128 / 4360: 0.47,
        256 / 4360: 0.20,
        512 / 4360: 0.15,
        1024 / 4360: 0.10,
        2048 / 4360: 0.06,
        4096 / 4360: 0.02,
    }
    mix: dict[int, float] = {}
    for frac, prob in fractions.items():
        size = max(1, min(num_nodes, int(round(frac * num_nodes))))
        mix[size] = mix.get(size, 0.0) + prob
    return mix


def _cori_size_mix(num_nodes: int) -> dict[int, float]:
    """Capacity size mix following Fig 2 (Cori): 1-node jobs dominate."""
    fractions = {
        1 / 12076: 0.58,
        2 / 12076: 0.12,
        4 / 12076: 0.08,
        8 / 12076: 0.06,
        16 / 12076: 0.05,
        32 / 12076: 0.04,
        64 / 12076: 0.03,
        128 / 12076: 0.02,
        512 / 12076: 0.013,
        2048 / 12076: 0.006,
        6000 / 12076: 0.001,
    }
    mix: dict[int, float] = {}
    for frac, prob in fractions.items():
        size = max(1, min(num_nodes, int(round(frac * num_nodes))))
        mix[size] = mix.get(size, 0.0) + prob
    return mix


class ThetaModel:
    """Factory for Theta-like capability workloads."""

    PAPER_NODES = 4360
    MAX_RUNTIME = SECONDS_PER_DAY  # max job length: 1 day

    @classmethod
    def paper(cls) -> WorkloadModel:
        """Full-scale Theta (4,360 user nodes)."""
        return cls.scaled(cls.PAPER_NODES)

    @classmethod
    def scaled(cls, num_nodes: int) -> WorkloadModel:
        """A Theta-like system shrunk to ``num_nodes``.

        The offered load is :data:`UTILIZATION`; the arrival rate is
        derived so that ``rate * E[size] * E[runtime] = UTILIZATION * N``.
        """
        sizes = CategoricalSizes.from_dict(_theta_size_mix(num_nodes))
        runtimes = LognormalRuntimes(
            median=SECONDS_PER_HOUR,  # 1 h median runtime
            sigma=1.1,
            max_runtime=cls.MAX_RUNTIME,
            min_runtime=300.0,
            mean_overestimate=1.0,
        )
        rng = np.random.default_rng(1234)
        mean_runtime = float(np.mean(runtimes.sample(20_000, rng)[0]))
        rate = UTILIZATION * num_nodes / (sizes.mean() * mean_runtime)
        arrivals = DiurnalArrivals(
            base_rate=rate,
            hourly=DEFAULT_HOURLY_PROFILE,
            daily=DEFAULT_DAILY_PROFILE,
        )
        return WorkloadModel(
            name=f"theta-{num_nodes}",
            num_nodes=num_nodes,
            arrivals=arrivals,
            sizes=sizes,
            runtimes=runtimes,
            priority_threshold=max(1, num_nodes // 8),  # capability jobs
            dependency_prob=0.0225,                     # 2.25% on Theta
        )


class CoriModel:
    """Factory for Cori-like capacity workloads."""

    PAPER_NODES = 12076
    MAX_RUNTIME = 7 * SECONDS_PER_DAY  # max job length: 7 days

    @classmethod
    def paper(cls) -> WorkloadModel:
        """Full-scale Cori (12,076 nodes)."""
        return cls.scaled(cls.PAPER_NODES)

    @classmethod
    def scaled(cls, num_nodes: int) -> WorkloadModel:
        """A Cori-like system shrunk to ``num_nodes`` (see ThetaModel.scaled)."""
        sizes = CategoricalSizes.from_dict(_cori_size_mix(num_nodes))
        runtimes = LognormalRuntimes(
            median=2400.0,            # 40 min median runtime
            sigma=1.6,
            max_runtime=cls.MAX_RUNTIME,
            min_runtime=60.0,
            mean_overestimate=1.5,
        )
        rng = np.random.default_rng(1234)
        mean_runtime = float(np.mean(runtimes.sample(20_000, rng)[0]))
        rate = UTILIZATION * num_nodes / (sizes.mean() * mean_runtime)
        arrivals = DiurnalArrivals(
            base_rate=rate,
            hourly=DEFAULT_HOURLY_PROFILE,
            daily=DEFAULT_DAILY_PROFILE,
        )
        return WorkloadModel(
            name=f"cori-{num_nodes}",
            num_nodes=num_nodes,
            arrivals=arrivals,
            sizes=sizes,
            runtimes=runtimes,
            priority_threshold=max(1, num_nodes // 4),
            dependency_prob=0.0,
        )
