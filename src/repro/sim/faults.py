"""Seeded fault injection: node failures, repairs, and job kills.

Real Theta operation has to survive node outages; the simulator models
them as a renewal process per failure *event* (not per node): the gap
between consecutive cluster-wide failures is exponential with mean
``mtbf`` seconds, each failure takes down a small group of nodes (a
"blade" — correlated multi-node failures are the common case on real
bladed systems), and each downed node is repaired after an exponential
``mttr``-mean interval (floored at ``min_repair``).  Independently, a
Poisson job-kill process aborts one running job per event, modelling
application-level crashes that do not damage the node.

All randomness comes from the injector's own :class:`numpy.random`
``Generator`` seeded from :class:`FaultConfig` — the fault stream is
decoupled from workload and agent RNGs, so the same ``(seed, config)``
pair yields a bit-identical fault schedule regardless of scheduler.

The injector only *samples*; the :class:`~repro.sim.engine.Engine`
owns event scheduling and the kill/requeue mechanics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

#: allowed dispositions for jobs killed by a fault
REQUEUE_POLICIES = ("requeue-front", "requeue-back", "abandon")

#: the numeric ``--faults`` keys, each with its parser
_SPEC_NUMBERS = {"seed": int, "blade_size": int, "max_requeues": int,
                 **dict.fromkeys(("mtbf", "mttr", "blade_prob",
                                  "job_kill_mtbf", "min_repair"), float)}


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault model (immutable, manifest-serializable).

    Parameters
    ----------
    mtbf:
        Mean time between node-failure events, seconds.  ``0`` disables
        node failures entirely.
    mttr:
        Mean time to repair a downed node, seconds.  Must be positive
        when ``mtbf > 0``.
    seed:
        Seed of the injector's private RNG stream.
    blade_size:
        Maximum nodes taken down by one failure event; the actual count
        is uniform in ``[1, blade_size]`` when a blade failure triggers.
    blade_prob:
        Probability that a failure event is a correlated blade failure
        (more than one node) instead of a single-node failure.
    job_kill_mtbf:
        Mean time between job-kill faults, seconds.  ``0`` disables
        application-level kills.
    requeue:
        Disposition of fault-killed jobs: ``requeue-front`` (head of
        queue, default), ``requeue-back`` (tail, like a resubmission),
        or ``abandon`` (the job is lost and dependents are cancelled).
    min_repair:
        Floor on sampled repair times, so a node is never repaired in
        the same instant it fails.
    max_requeues:
        Cap on per-job requeues; once a job has been killed this many
        times it is abandoned instead.  ``None`` means unlimited.
    """

    mtbf: float = 0.0
    mttr: float = 3600.0
    seed: int = 0
    blade_size: int = 4
    blade_prob: float = 0.25
    job_kill_mtbf: float = 0.0
    requeue: str = "requeue-front"
    min_repair: float = 60.0
    max_requeues: int | None = None

    def __post_init__(self) -> None:
        if self.mtbf < 0:
            raise ValueError(f"mtbf must be >= 0, got {self.mtbf}")
        if self.mtbf > 0 and self.mttr <= 0:
            raise ValueError(f"mttr must be positive, got {self.mttr}")
        if self.blade_size < 1:
            raise ValueError(f"blade_size must be >= 1, got {self.blade_size}")
        if not 0.0 <= self.blade_prob <= 1.0:
            raise ValueError(
                f"blade_prob must be in [0, 1], got {self.blade_prob}"
            )
        if self.job_kill_mtbf < 0:
            raise ValueError(
                f"job_kill_mtbf must be >= 0, got {self.job_kill_mtbf}"
            )
        if self.requeue not in REQUEUE_POLICIES:
            raise ValueError(
                f"requeue must be one of {REQUEUE_POLICIES}, got {self.requeue!r}"
            )
        if self.min_repair < 0:
            raise ValueError(f"min_repair must be >= 0, got {self.min_repair}")
        if self.max_requeues is not None and self.max_requeues < 0:
            raise ValueError(
                f"max_requeues must be >= 0 or None, got {self.max_requeues}"
            )

    @property
    def active(self) -> bool:
        """Whether any fault process is enabled at all."""
        return self.mtbf > 0 or self.job_kill_mtbf > 0

    def as_dict(self) -> dict:
        """Plain-JSON form for run manifests (round-trips via from_dict)."""
        return {
            "mtbf": self.mtbf,
            "mttr": self.mttr,
            "seed": self.seed,
            "blade_size": self.blade_size,
            "blade_prob": self.blade_prob,
            "job_kill_mtbf": self.job_kill_mtbf,
            "requeue": self.requeue,
            "min_repair": self.min_repair,
            "max_requeues": self.max_requeues,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultConfig":
        """Rebuild a config from its :meth:`as_dict` form."""
        known = {
            "mtbf", "mttr", "seed", "blade_size", "blade_prob",
            "job_kill_mtbf", "requeue", "min_repair", "max_requeues",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault config key(s): {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_spec(cls, spec: str) -> "FaultConfig":
        """Parse the CLI ``--faults`` mini-language.

        ``spec`` is a comma-separated ``key=value`` list, e.g.
        ``"mtbf=7200,mttr=1800,seed=3,requeue=abandon"``.  Keys match
        the dataclass fields; numeric values are coerced, ``requeue``
        stays a string, and ``max_requeues=none`` clears the cap.
        """
        values: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad --faults entry {part!r}: expected key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            number = _SPEC_NUMBERS.get(key)
            if key == "requeue":
                values[key] = raw
            elif key == "max_requeues" and raw.lower() == "none":
                values[key] = None
            elif number is None:
                raise ValueError(f"unknown --faults key {key!r}")
            else:
                try:
                    values[key] = number(raw)
                except ValueError:
                    raise ValueError(f"bad --faults value {key}={raw!r}: "
                                     "expected a number") from None
        return cls(**values)


@dataclass(frozen=True, slots=True)
class ResilienceMetrics:
    """End-of-run summary of fault impact and graceful degradation.

    ``degraded_utilization`` is useful work over the capacity that was
    *actually up*: ``used / (N * elapsed - lost_node_seconds)`` — the
    fair utilization figure for a run where nodes were down part of the
    time.  (It lives here rather than :mod:`repro.sim.metrics` because
    the engine builds it and the metrics module imports the engine.)
    """

    node_failures: int        #: failure events (one may hit several nodes)
    nodes_failed: int         #: individual node-down transitions
    node_repairs: int         #: individual node-up transitions
    jobs_killed: int          #: running jobs aborted by any fault
    requeues: int             #: kills that returned the job to the queue
    abandoned: int            #: jobs permanently lost (incl. doomed deps)
    lost_node_seconds: float  #: capacity lost to node downtime
    wasted_node_seconds: float  #: partial work destroyed by kills
    degraded_utilization: float  #: useful work over *up* capacity

    def as_dict(self) -> dict:
        """Flat JSON-serialisable mapping (manifest / report payloads)."""
        return {
            "node_failures": self.node_failures,
            "nodes_failed": self.nodes_failed,
            "node_repairs": self.node_repairs,
            "jobs_killed": self.jobs_killed,
            "requeues": self.requeues,
            "abandoned": self.abandoned,
            "lost_node_seconds": self.lost_node_seconds,
            "wasted_node_seconds": self.wasted_node_seconds,
            "degraded_utilization": self.degraded_utilization,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResilienceMetrics":
        """Rebuild metrics from their :meth:`as_dict` form.

        Round-trip partner of :meth:`as_dict`; sweep rollups persist
        cells as JSON and reports rebuild them through here.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(
                f"unknown ResilienceMetrics key(s): {sorted(unknown)}")
        return cls(**{name: data[name] for name in fields})


@dataclass(slots=True)
class FaultCounters:
    """Running tallies of what the fault model has done so far."""

    node_failures: int = 0     #: failure events (one may hit several nodes)
    nodes_failed: int = 0      #: individual node-down transitions
    node_repairs: int = 0      #: individual node-up transitions
    jobs_killed: int = 0       #: running jobs aborted by any fault
    requeues: int = 0          #: kills that returned the job to the queue
    abandons: int = 0          #: jobs permanently lost (incl. doomed deps)

    def as_dict(self) -> dict:
        """Plain-dict form for metrics/trace payloads."""
        return {
            "node_failures": self.node_failures,
            "nodes_failed": self.nodes_failed,
            "node_repairs": self.node_repairs,
            "jobs_killed": self.jobs_killed,
            "requeues": self.requeues,
            "abandons": self.abandons,
        }


class FaultInjector:
    """Samples the fault processes from a private seeded RNG stream.

    The engine asks three questions, all answered deterministically
    from the config seed:

    * :meth:`next_failure_gap` — seconds until the next node-failure
      event;
    * :meth:`sample_failure` — which node count / repair durations the
      current failure event carries (victim *indices* are chosen by the
      engine from currently-up nodes, but the random draws happen here);
    * :meth:`next_kill_gap` / :meth:`choose_victim` — the job-kill
      process and its target among currently running jobs.

    Isolation contract: ``_rng`` is consumed by the engine's fault
    bookkeeping only, never by scheduler decision code, so the (time,
    nodes) failure stream is policy-independent by construction —
    swapping schedulers cannot perturb when or where faults strike.
    ``tests/test_faults.py::TestDeterminism::test_faults_independent_of_policy_decisions``
    checks it by running: FCFS, BinPacking, Random and DRAS-PG must all
    see the same (time, nodes) failure stream, and the last two draw
    from their own generators on every decision.
    """

    def __init__(self, config: FaultConfig) -> None:
        if not config.active:
            raise ValueError(
                "FaultInjector requires an active FaultConfig "
                "(mtbf > 0 or job_kill_mtbf > 0)"
            )
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.counters = FaultCounters()

    # -- node failure process ---------------------------------------------
    def next_failure_gap(self) -> float:
        """Seconds until the next node-failure event (exponential)."""
        return float(self._rng.exponential(self.config.mtbf))

    def sample_failure(self) -> tuple[int, list[float]]:
        """Draw the shape of one failure event.

        Returns ``(n_nodes, repair_times)``: how many nodes this event
        takes down (1, or uniform in ``[2, blade_size]`` for a blade
        failure) and the per-node repair durations (exponential with
        mean ``mttr``, floored at ``min_repair``).
        """
        cfg = self.config
        n_nodes = 1
        if cfg.blade_size > 1 and self._rng.random() < cfg.blade_prob:
            n_nodes = int(self._rng.integers(2, cfg.blade_size + 1))
        repairs = [
            max(cfg.min_repair, float(self._rng.exponential(cfg.mttr)))
            for _ in range(n_nodes)
        ]
        return n_nodes, repairs

    def choose_failed_nodes(self, up_free_first: np.ndarray, n: int) -> np.ndarray:
        """Pick ``n`` victim nodes uniformly from the candidate array.

        ``up_free_first`` is the engine-provided candidate pool (all
        currently-up nodes); sampling is without replacement from the
        injector's RNG so the choice is part of the deterministic fault
        stream.
        """
        n = min(n, up_free_first.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        chosen = self._rng.choice(up_free_first, size=n, replace=False)
        chosen.sort()
        return chosen.astype(np.int64)

    # -- job-kill process -----------------------------------------------------
    def next_kill_gap(self) -> float:
        """Seconds until the next job-kill fault (exponential)."""
        return float(self._rng.exponential(self.config.job_kill_mtbf))

    def choose_victim(self, running_ids: list[int]) -> int:
        """Pick the job id a kill fault aborts (uniform over running)."""
        if not running_ids:
            raise ValueError("no running jobs to kill")
        return int(running_ids[int(self._rng.integers(len(running_ids)))])

    def reset(self) -> None:
        """Re-seed the RNG and zero counters (fresh episode, same stream)."""
        self._rng = np.random.default_rng(self.config.seed)
        self.counters = FaultCounters()
