"""Runtime sanitizer: invariant assertions for the simulator and NN stack.

Activation
----------
Hooks are compiled into the hot paths but cost a single boolean check
when inactive.  They activate when either

* the environment variable ``REPRO_SANITIZE`` is set to a truthy value
  (anything except ``""``, ``"0"``, ``"false"``, ``"no"``, ``"off"``), or
* the caller opts in explicitly (``Engine(sanitize=True)``,
  ``run_simulation(..., sanitize=True)``), which also covers the
  cluster owned by that engine.

On violation every hook raises :class:`SanitizerError` with a message
naming the invariant, the offending object and the simulation time —
fail loud and early instead of producing a silently-corrupt trajectory.

Checked invariants
------------------
* **node conservation** — after every allocate/release/fail/repair:
  ``used + free + down == total``, and every allocation owns its data
  (no view pinning a free list), is strictly increasing and names only
  nodes marked with its job, together covering every busy node; and the
  free list is exactly the nodes marked free, ascending;
* **release index** — after the same mutations: the cluster's
  release-time index, expanded to one time per node, equals the release
  times recomputed from the per-node arrays (mask, gather, sort — the
  definition the index replaced), and its sizes sum to the nodes that
  are not free;
* **queue index** — after every ``WaitQueue`` mutator: the size census
  and its minimum, the arrival keys, the size/walltime arrays the
  backfill scan reads, and the dependents map with every
  held job's open-dependency count equal their recomputed definitions;
* **event-time monotonicity** — ``Engine.run`` never moves the clock
  backwards;
* **metric sanity** — per-job wait and turnaround are non-negative when
  summarised by :class:`repro.sim.metrics.RunMetrics`;
* **scheduling-view integrity** — no double-start, and a reservation is
  never created for a running job or in the past;
* **NN numerics** — every forward/backward tensor and every Adam update
  is finite (no NaN/Inf), with shape preservation across updates;
* **NN dtype purity** — every layer output, every backward gradient and
  every array an Adam update touches has the network's dtype, and no
  scalar entering the update would widen it (one promoted activation
  turns every later ``x @ W`` into an up-cast of the whole weight
  block);
* **shared forward** — ``Network.forward(x, shared=)`` equals the plain
  forward over the materialised ``[B, k + N, 2]`` input (the definition
  the factored first layer replaced: every node row multiplied, no
  group sum, no cache) to a bound scaled by the network dtype's machine
  epsilon — which is also what catches a weight written in place
  without its ``version`` counted, the one thing the cached sums
  cannot see.
"""

from __future__ import annotations

import os
from collections import Counter
from math import inf
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.cluster import Cluster
    from repro.sim.queue import WaitQueue

_TRUTHY_OFF = ("", "0", "false", "no", "off")

#: ``Cluster._job_of`` value of a free node (``repro.sim.cluster``
#: imports this module, so it is mirrored here instead of imported)
_FREE = -1

#: test/CLI override: None = follow the environment variable
_FORCED: bool | None = None


class SanitizerError(RuntimeError):
    """A runtime invariant of the simulator or NN stack was violated."""


def sanitizer_enabled() -> bool:
    """Is the sanitizer globally active (env var or forced override)?"""
    if _FORCED is not None:
        return _FORCED
    # sanctioned observability gate: toggles extra *assertions*, never
    # results — a sanitized and an unsanitized run produce identical
    # traces, so the env read cannot break run-from-config determinism
    return os.environ.get(
        "REPRO_SANITIZE", "").strip().lower() not in _TRUTHY_OFF


def force_sanitizer(value: bool | None) -> bool | None:
    """Override env detection (``None`` restores it); returns the old value."""
    global _FORCED
    previous = _FORCED
    _FORCED = value
    return previous


def _fail(invariant: str, detail: str) -> None:
    raise SanitizerError(f"sanitizer[{invariant}]: {detail}")


# -- simulator invariants ------------------------------------------------------

def check_node_conservation(cluster: "Cluster", context: str = "") -> None:
    """``used + free + down == total`` and the allocation table matches.

    Without faults ``down`` is zero, reducing to the classic
    ``used + free == total`` conservation law.  ``used`` and ``down``
    are recounted from the per-node array, so the cluster's cached
    free/down counts are cross-checked rather than trusted.  Each
    allocation is checked on its own (``O(N + busy)`` in all).
    """
    total = cluster.num_nodes
    free = cluster.available_nodes
    used = int(np.count_nonzero(cluster._job_of >= 0))
    down = int(np.count_nonzero(cluster.down_mask))
    where = f" after {context}" if context else ""
    if down != cluster.down_nodes:
        _fail(
            "node-conservation",
            f"{down} nodes are marked down but the cached down count is "
            f"{cluster.down_nodes}{where}",
        )
    if used + free + down != total:
        _fail(
            "node-conservation",
            f"used ({used}) + free ({free}) + down ({down}) != "
            f"total ({total}){where}",
        )
    # every allocation at once, each node tagged with the job holding it:
    # one NumPy pass over the busy nodes, not a few calls per job
    table = cluster._alloc
    views = [job_id for job_id, nodes in table.items() if nodes.base is not None]
    held = np.concatenate([np.empty(0, np.int64), *table.values()])
    owner = np.repeat(
        np.fromiter(table, np.int64, len(table)),
        np.fromiter((nodes.size for nodes in table.values()), np.int64, len(table)))
    unordered = owner[1:][(owner[1:] == owner[:-1]) & (held[1:] <= held[:-1])]
    misplaced = owner[cluster._job_of[held] != owner]
    for jobs, problem in ((views, "is a view that keeps another array alive"),
                          (unordered, "is not strictly increasing"),
                          (misplaced, "holds nodes marked with another job")):
        if len(jobs):
            _fail("node-conservation",
                  f"the allocation of job {jobs[0]} {problem}{where}")
    # allocations are disjoint (each node names its job) and non-empty, so
    # covering ``used`` nodes means covering every busy node
    if held.size != used:
        _fail(
            "node-conservation",
            f"allocation table covers {held.size} nodes but {used} nodes "
            f"are marked busy{where}",
        )
    if not np.array_equal(cluster._free, np.flatnonzero(cluster._job_of == _FREE)):
        _fail("node-conservation", f"the free list of {cluster._free.size} "
              f"nodes is not the nodes marked free{where}")


def check_release_index(cluster: "Cluster", context: str = "") -> None:
    """The release-time index agrees with the per-node arrays.

    The oracle is the definition the index replaced: mask the non-free
    nodes, gather their estimated available times, sort.
    """
    where = f" after {context}" if context else ""
    group_times, group_sizes = cluster.release_groups(-np.inf)  # unclipped
    indexed = int(group_sizes.sum())
    unavailable = cluster.num_nodes - cluster.available_nodes
    if indexed != unavailable:
        _fail(
            "release-index",
            f"index groups cover {indexed} nodes but {unavailable} nodes "
            f"are busy or down{where}",
        )
    busy = cluster._job_of != _FREE
    times = cluster._avail_at[busy]
    times.sort()
    expanded = np.repeat(group_times, group_sizes)
    if not np.array_equal(expanded, times):
        _fail(
            "release-index",
            f"index expands to {expanded.size} release times that differ "
            f"from the {times.size} recomputed from the per-node arrays{where}",
        )


def check_cluster(cluster: "Cluster", context: str = "") -> None:
    """Every cluster invariant; the hook ``Cluster`` runs per mutation."""
    check_node_conservation(cluster, context)
    check_release_index(cluster, context)


def check_queue_index(queue: "WaitQueue", context: str = "") -> None:
    """The wait queue's four indexes agree with its plain lists.

    The oracle is what the indexes replaced: count sizes down the waiting
    list, number it, read each waiting job's size and walltime, test held
    jobs' dependencies against the finished set.
    """
    where = f" after {context}" if context else ""
    ids = [job.job_id for job in queue._waiting]
    keys = queue._keys
    census = Counter(job.size for job in queue._waiting)
    open_count: dict[int, int] = {}
    dependents: dict[int, list[int]] = {}
    for job_id, job in queue._held.items():
        open_deps = set(job.dependencies) - queue._finished
        open_count[job_id] = len(open_deps)
        for dep in open_deps:
            dependents.setdefault(dep, []).append(job_id)
    blocked = {dep: [job.job_id for job in jobs]
               for dep, jobs in queue._dependents.items()}
    for name, indexed, recomputed in (
        ("size census", (queue._census, queue.min_size),
         (census, min(census, default=inf))),
        ("arrival keys", (len(keys), keys, queue._key_of),
         (len(ids), sorted(set(keys)), dict(zip(ids, keys)))),
        ("size/walltime arrays",
         (queue._sizes.tolist(), queue._walltimes.tolist()),
         ([job.size for job in queue._waiting],
          [job.walltime for job in queue._waiting])),
        ("dependents map", (queue._open, blocked), (open_count, dependents)),
    ):
        if indexed != recomputed:
            _fail("queue-index",
                  f"{name} {indexed} differs from {recomputed}, recomputed "
                  f"from the waiting and held jobs{where}")


def check_monotonic_time(previous: float, now: float) -> None:
    """Fail if the simulation clock moved backwards."""
    if now < previous:
        _fail(
            "time-monotonic",
            f"simulation clock moved backwards: {previous} -> {now}",
        )


def check_job_start(job, now: float, already_running: Iterable[int]) -> None:
    """Fail on double-starts and starts before submission."""
    if job.job_id in set(already_running):
        _fail(
            "double-start",
            f"job {job.job_id} started while already running (t={now})",
        )
    if job.submit_time > now:
        _fail(
            "causality",
            f"job {job.job_id} started at t={now} before its submission "
            f"at t={job.submit_time}",
        )


def check_reservation(job, reservation, now: float, running: Iterable[int]) -> None:
    """Fail on reservations that violate backfill invariants."""
    if job.job_id in set(running):
        _fail(
            "reservation",
            f"reservation created for already-running job {job.job_id} (t={now})",
        )
    if reservation.job_id != job.job_id:
        _fail(
            "reservation",
            f"reservation is for job {reservation.job_id}, expected "
            f"{job.job_id}",
        )
    if reservation.shadow_time < now:
        _fail(
            "reservation",
            f"reservation for job {job.job_id} has a shadow time in the "
            f"past ({reservation.shadow_time} < now={now})",
        )


def check_job_metrics(job) -> None:
    """Non-negative wait/turnaround for one finished job."""
    if job.wait_time < 0:
        _fail(
            "metrics",
            f"job {job.job_id} has negative wait time {job.wait_time} "
            f"(submit={job.submit_time}, start={job.start_time})",
        )
    if job.response_time < 0:
        _fail(
            "metrics",
            f"job {job.job_id} has negative turnaround {job.response_time} "
            f"(submit={job.submit_time}, end={job.end_time})",
        )
    if job.response_time < job.wait_time:
        _fail(
            "metrics",
            f"job {job.job_id} turnaround {job.response_time} is below its "
            f"wait time {job.wait_time}",
        )


# -- NN numerics -------------------------------------------------------------

def check_finite(name: str, array: np.ndarray) -> None:
    """Raise unless every entry of ``array`` is finite."""
    if np.isfinite(array).all():
        return
    arr = np.asarray(array)
    nans = int(np.isnan(arr).sum())
    infs = int(np.isinf(arr).sum())
    _fail(
        "non-finite",
        f"{name} contains {nans} NaN / {infs} Inf entries "
        f"(shape {arr.shape})",
    )


def check_dtype(name: str, value, dtype: np.dtype) -> None:
    """Raise unless ``value`` keeps arithmetic in ``dtype``.

    An array must have exactly ``dtype``; a scalar must not widen it
    when the two are combined (a Python float never does, a NumPy
    scalar of a wider type does under NEP 50 promotion).
    """
    got = (value.dtype if isinstance(value, np.ndarray)
           else np.result_type(dtype, value))
    if got != dtype:
        _fail("nn-dtype", f"{name} is {got}, expected {dtype}")


#: ``shared-forward`` bound in units of the output dtype's machine
#: epsilon: absolute, scaled by ``max |out|`` above 1 — 2.3e-13 for a
#: float64 network, 1.2e-4 for a float32 one.  The two paths differ by
#: float reassociation only: ~2 eps observed in either dtype over
#: Theta's 4,362-row dot products (per node or summed by group), while
#: a wrong slice or a stale sum moves O(0.1).
SHARED_FORWARD_EPS = 1024


def check_shared_forward(factored: np.ndarray, plain: np.ndarray) -> None:
    """Fail if the two-input forward drifted from the plain forward."""
    worst = float(np.max(np.abs(factored - plain)))
    scale = max(1.0, float(np.max(np.abs(plain))))
    bound = SHARED_FORWARD_EPS * float(np.finfo(plain.dtype).eps) * scale
    if not worst <= bound:
        _fail(
            "shared-forward",
            f"forward(x, shared=) differs from the forward over the "
            f"concatenated input by {worst:.3e} (shape {plain.shape}, "
            f"{plain.dtype} bound {bound:.1e})",
        )


def check_same_shape(name: str, before: tuple[int, ...], after: tuple[int, ...]) -> None:
    """Fail if a parameter changed shape during an update."""
    if before != after:
        _fail("shape", f"{name} changed shape {before} -> {after} during update")
