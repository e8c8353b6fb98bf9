"""Scheduling reward functions (paper section III-A, Eq. 1 and Eq. 2).

Reward functions reflect scheduling objectives and are supplied by the
site.  The paper gives two examples:

* **Capability computing** (Eq. 1) balances three goals — starvation
  avoidance, capability-job promotion, and utilization:

  .. math::

     w_1 \\frac{\\bar t_i}{t_{max}} + w_2 \\frac{\\bar n_i}{N}
         + w_3 \\frac{N_{used}}{N}

  where :math:`\\bar t_i` is the mean wait of the *selected* jobs,
  :math:`t_{max}` the maximum wait over queued jobs, :math:`\\bar n_i`
  the mean size of the selected jobs, and :math:`N_{used}` the occupied
  node count.  Selecting long-waiting and large jobs, and keeping nodes
  busy, all raise the reward.

* **Capacity computing** (Eq. 2) targets fast turnaround:

  .. math::

     \\frac{\\sum_{j \\in J} -1/t_j}{c}

  Interpretation note (documented in DESIGN.md §4): we take ``t_j`` to
  be the *runtime estimate* of waiting job ``j``.  Each waiting short
  job then contributes a large negative term, so the agent is pushed to
  drain short jobs quickly — the shortest-job-first flavour that
  minimizes average wait.  (Reading ``t_j`` as the elapsed wait time
  would reward *aging* the queue, contradicting the paper's stated goal
  of minimizing average wait.)

Both rewards are evaluated after each individual job selection using
the state the selection produced, matching the paper's decomposition of
one scheduling decision into a series of single-job selections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.sim.cluster import Cluster
from repro.sim.job import Job


class RewardFunction(Protocol):
    """Computes the reward of the current scheduling situation.

    Parameters mirror what a DRAS agent observes: the jobs selected so
    far in this scheduling instance, the jobs still waiting, the
    cluster, and the current time.
    """

    def __call__(
        self,
        selected: Sequence[Job],
        waiting: Sequence[Job],
        cluster: Cluster,
        now: float,
    ) -> float: ...


@dataclass(frozen=True)
class CapabilityReward:
    """Eq. (1): starvation avoidance + capability promotion + utilization.

    The paper's Theta experiments use ``w1 = w2 = w3 = 1/3``.  A higher
    ``w1`` enforces a more stringent starvation requirement.
    """

    w1: float = 1.0 / 3.0
    w2: float = 1.0 / 3.0
    w3: float = 1.0 / 3.0

    def __call__(
        self,
        selected: Sequence[Job],
        waiting: Sequence[Job],
        cluster: Cluster,
        now: float,
    ) -> float:
        starvation = 0.0
        if selected:
            mean_wait = sum(j.queued_time(now) if j.start_time is None
                            else j.wait_time for j in selected) / len(selected)
            t_max = max(
                (j.queued_time(now) for j in waiting),
                default=0.0,
            )
            t_max = max(
                t_max,
                max(
                    (j.queued_time(now) if j.start_time is None else j.wait_time
                     for j in selected),
                    default=0.0,
                ),
            )
            if t_max > 0:
                starvation = mean_wait / t_max
        # normalize by *live* capacity: when nodes are down, keeping the
        # surviving capacity busy should still earn full reward
        capacity = max(1, cluster.up_nodes)
        capability = 0.0
        if selected:
            mean_size = sum(j.size for j in selected) / len(selected)
            capability = mean_size / capacity
        utilization = cluster.used_nodes / capacity
        return self.w1 * starvation + self.w2 * capability + self.w3 * utilization


@dataclass(frozen=True)
class CapacityReward:
    """Eq. (2): penalize keeping short jobs in the queue.

    ``min_walltime`` guards the ``1/t_j`` singularity for (unrealistic)
    sub-second estimates.
    """

    min_walltime: float = 1.0

    def __call__(
        self,
        selected: Sequence[Job],
        waiting: Sequence[Job],
        cluster: Cluster,
        now: float,
    ) -> float:
        if not waiting:
            return 0.0
        total = sum(-1.0 / max(j.walltime, self.min_walltime) for j in waiting)
        return total / len(waiting)


def make_reward(objective: str, **kwargs: float) -> RewardFunction:
    """Factory: ``"capability"`` -> Eq. (1), ``"capacity"`` -> Eq. (2)."""
    if objective == "capability":
        return CapabilityReward(**kwargs)
    if objective == "capacity":
        return CapacityReward(**kwargs)
    raise ValueError(
        f"unknown objective {objective!r}; expected 'capability' or 'capacity'"
    )


def job_value(job: Job, objective: str, waiting: Sequence[Job],
              cluster: Cluster, now: float) -> float:
    """Per-job marginal value under a scheduling objective.

    Used by the Optimization (0-1 knapsack) baseline so that it pursues
    *the same objectives* as DRAS (paper section IV-A): under the
    capability objective a job contributes its normalized wait (the
    starvation term), its normalized size (the capability term) and its
    normalized size again (its utilization contribution), each weighted
    1/3; under the capacity objective it contributes the ``1/t_j``
    penalty it removes from the queue by leaving it.
    """
    if objective == "capability":
        t_max = max((j.queued_time(now) for j in waiting), default=0.0)
        starve = job.queued_time(now) / t_max if t_max > 0 else 0.0
        frac = job.size / max(1, cluster.up_nodes)
        w = 1.0 / 3.0
        return w * starve + w * frac + w * frac
    if objective == "capacity":
        return 1.0 / max(job.walltime, 1.0)
    raise ValueError(f"unknown objective {objective!r}")
