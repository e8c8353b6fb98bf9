"""Node pool management.

The cluster keeps, for every node, the job occupying it and the node's
*estimated available time* (job start + user walltime estimate).  The
paper encodes each node as a ``[1, 2]`` vector: a binary availability
flag and the difference between the estimated available time and the
current time (section III-A).  We store these as NumPy arrays so the
state encoding is vectorized.  Only the agents' state encoding, fault
injection and the sanitizer read which node holds what; a heuristic
run asks only how many nodes are free and when more come free.  So
the per-node arrays are brought up to date when they are read, not
at every start and finish.

Fault support: nodes can be *down* (failed, awaiting repair).  A down
node is neither free nor occupied by a job; its ``_avail_at`` entry
holds the expected repair time, so the EASY shadow-time machinery and
the RL node-state encoding treat it exactly like a busy node that
frees at the repair — no policy needs fault-specific code.

Release-time index: EASY reserves for the blocked head job at every
scheduling instance, so "when are ``size`` nodes expected to be free?"
is asked far more often than the node pool changes.  The cluster keeps
one entry ``(est_release, running node count, key)`` per *release
group* — a running job or a down node — sorted by ``est_release`` and
updated by every mutator, so a query is a binary search or two instead
of a mask, gather and sort over every busy node.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.check import sanitize as _san
from repro.sim.job import Job

_FREE = -1
_DOWN = -2


def _distinct(nodes: np.ndarray | list[int]) -> np.ndarray:
    """``nodes`` as an index array; a repeated node raises ``ValueError``
    before the caller mutates anything."""
    idx = np.asarray(nodes, dtype=np.int64)
    if np.unique(idx).size != idx.size:
        raise ValueError(f"repeated node in {idx.tolist()}")
    return idx


class Cluster:
    """A pool of ``num_nodes`` identical compute nodes.

    Nodes are interchangeable (no topology) — allocation picks the
    lowest-indexed free nodes, which matches the level of detail of the
    paper's simulator.

    The state is in two parts.  *Accounting* is kept current by every
    mutator: the free-node count, each running job's
    ``(est_release, size)`` in ``_jobs`` (in allocation order) and the
    release-time index; every query reads accounting only.
    *Placement* — ``_free``, ``_job_of``, ``_avail_at`` and ``_alloc``
    — says which nodes.  A start or a finish only appends
    ``(job id, size)`` or ``(~job id, size)`` to the log
    ``_log_keys`` / ``_log_sizes`` (two ``array("q")``: 16 B per
    entry), and :meth:`_place`, the one writer of starts and finishes
    into placement, replays the log in order before every placement
    read (:meth:`nodes_of`, :meth:`jobs_on`, :meth:`node_state`,
    :meth:`node_groups`, :attr:`down_mask`, the fault mutators and the
    sanitizer).  Replaying a history in one go or one entry at a time
    places the same nodes, so how often placement is read changes
    nothing but when the work is done.

    Allocation table.  ``_alloc`` maps each running job to its node
    indices: a fresh object owning exactly the job's nodes (``base`` is
    ``None``, ``job.size`` elements, strictly increasing), never a view
    of the free list it was cut from and never written, so a running job
    costs ``8 * job.size`` bytes and nothing else.  The node-conservation
    sanitizer checks each entry.

    Release-time index.  ``_rel_times`` / ``_rel_cum`` / ``_rel_keys``
    hold, in their first ``_rel_n`` slots, one entry per release group:
    the time its nodes are expected to come free (unclipped: a job
    running past its estimate keeps a time in the past), the running
    count of nodes released by this group and every group before it,
    and who holds the group.  A group's size is the step of the running
    count.  Invariant, re-established by every mutator: entries are
    sorted by ``est_release`` (ties in insertion order); the running
    count rises by at least one node per group and ends at the busy
    plus down nodes, i.e. ``num_nodes - available_nodes``; a key is a
    job id (``>= 0``, one entry of ``job.size`` nodes per running job)
    or a down-node token (``-1 - node``, one single-node entry per down
    node, freeing at the expected repair).  An insert or delete shifts
    the tail one slot and adds or subtracts the group's size over it,
    so the running count is always current and no query sums anything.
    All release-time queries read this index only.

    Free list.  ``_free`` holds the indices of the free, up nodes in
    ascending order, i.e. ``np.flatnonzero(_job_of == -1)``.  A placed
    start takes its first ``job.size`` entries and keeps the rest; a
    placed finish merges the job's nodes back (two sorted runs: one
    timsort merge).  Faults and :meth:`reset` rebuild it.  Once placed,
    its length is :attr:`available_nodes`.

    With the sanitizer active (:mod:`repro.check.sanitize`), every
    mutation ends with the node-conservation and release-index checks;
    they place first, so a sanitized run places after every mutation.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        # -- accounting (see the class docstring)
        #: free, up nodes
        self._nfree = self.num_nodes
        #: running job id -> (est_release, size), in allocation order
        self._jobs: dict[int, tuple[float, int]] = {}
        #: cached count of down nodes, maintained by fail/repair/reset;
        #: the node-conservation sanitizer recomputes used/down counts
        #: from placement, so it cross-checks both counts
        self._down_count = 0
        #: release-time index (see the class docstring); a group holds
        #: at least one node, so ``num_nodes`` slots always suffice
        self._rel_times = np.zeros(self.num_nodes, dtype=np.float64)
        self._rel_cum = np.zeros(self.num_nodes, dtype=np.int64)
        self._rel_keys = np.zeros(self.num_nodes, dtype=np.int64)
        self._rel_n = 0
        #: running node-seconds of *actual* useful work accumulated by
        #: finished jobs, used by utilization accounting.
        self._used_node_seconds = 0.0
        #: node-seconds of partial work destroyed by fault kills
        self._wasted_node_seconds = 0.0
        #: node-seconds of capacity lost to completed down intervals
        self._lost_node_seconds = 0.0
        #: node index -> time it went down (open down intervals)
        self._down_since: dict[int, float] = {}
        # -- placement, current as of the last :meth:`_place`
        #: job id occupying each node; ``-1`` free, ``-2`` down (failed)
        self._job_of = np.full(self.num_nodes, _FREE, dtype=np.int64)
        #: estimated available time of each node (0 when free); for a
        #: down node this is the expected repair time
        self._avail_at = np.zeros(self.num_nodes, dtype=np.float64)
        #: free list (see the class docstring)
        self._free = np.flatnonzero(self._job_of == _FREE)
        #: job id -> allocated node indices
        self._alloc: dict[int, np.ndarray] = {}
        #: starts and finishes not yet placed: ``(job id, size)`` or
        #: ``(~job id, size)``
        self._log_keys = array("q")
        self._log_sizes = array("q")

    # -- queries -------------------------------------------------------------
    @property
    def available_nodes(self) -> int:
        """Number of currently free (up and unoccupied) nodes."""
        return self._nfree

    @property
    def used_nodes(self) -> int:
        """Number of nodes occupied by jobs (``N_used`` in Eq. (1)).

        Down nodes are neither used nor available; without faults this
        equals ``num_nodes - available_nodes`` as before.
        """
        return self.num_nodes - self._nfree - self._down_count

    @property
    def down_nodes(self) -> int:
        """Number of currently failed (down) nodes."""
        return self._down_count

    @property
    def up_nodes(self) -> int:
        """Live capacity: nodes not currently down.

        This is the denominator of capacity-relative quantities (reward
        utilization, state normalization) under faults; it equals
        ``num_nodes`` whenever no fault model is active.
        """
        return self.num_nodes - self._down_count

    @property
    def down_mask(self) -> np.ndarray:
        """Boolean per-node mask of currently-down nodes (a copy)."""
        self._place()
        return self._job_of == _DOWN

    @property
    def running_job_ids(self) -> list[int]:
        """IDs of all currently running jobs, in allocation order."""
        return list(self._jobs)

    def is_running(self, job_id: int) -> bool:
        """Whether ``job_id`` currently holds an allocation."""
        return job_id in self._jobs

    def nodes_of(self, job_id: int) -> np.ndarray:
        """Node indices allocated to a running job."""
        self._place()
        return self._alloc[job_id].copy()

    def jobs_on(self, nodes: np.ndarray | list[int]) -> list[int]:
        """Distinct job ids occupying any of ``nodes``, ascending."""
        self._place()
        ids = np.unique(self._job_of[np.asarray(nodes, dtype=np.int64)])
        return [int(j) for j in ids if j >= 0]

    def can_fit(self, size: int) -> bool:
        """Whether ``size`` nodes could be allocated right now."""
        return size <= self.available_nodes

    # -- paper state encoding --------------------------------------------------
    def node_state(self, now: float) -> np.ndarray:
        """Per-node ``[N, 2]`` state matrix (paper section III-A).

        Column 0 is the binary availability flag (1 free / 0 busy);
        column 1 is ``estimated_available_time - now`` for busy nodes and
        0 for free nodes.  A down node reads as busy until its expected
        repair time.
        """
        self._place()
        busy = self._job_of != _FREE
        remaining = np.where(
            busy, np.maximum(self._avail_at - now, 0.0), 0.0)
        state = np.empty((self.num_nodes, 2), dtype=np.float64)
        state[:, 0] = ~busy
        state[:, 1] = remaining
        return state

    def node_groups(
        self, now: float, min_size: int
    ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """:meth:`node_state` with one row per large allocation.

        Returns ``(state, allocations, lone)``.  ``state`` is
        ``[1 + G + S, 2]``: the free row ``[1, 0]``, then the row every
        node of ``allocations[g]`` has, then the row of node
        ``lone[s]``; a node in neither is free.  ``allocations`` are the
        node-index arrays of the running jobs of ``min_size`` nodes or
        more — the arrays :meth:`_place` stored, one per start, each a
        fresh object owning exactly the job's nodes and never written,
        so *which array* names the allocation (a killed job that
        restarts elsewhere under its old id is a new one).  Read-only:
        callers must not write them.  ``lone`` lists every other busy
        node and every down node, one row each.
        """
        self._place()
        allocations = [nodes for nodes in self._alloc.values()
                       if nodes.size >= min_size]
        if len(allocations) == self._rel_n:  # every release group is one
            lone = np.empty(0, dtype=np.intp)
        else:
            alone = self._job_of != _FREE
            for nodes in allocations:
                alone[nodes] = False
            lone = np.flatnonzero(alone)
        of_rows = lone
        if allocations:
            of_rows = np.concatenate(
                [[nodes[0] for nodes in allocations], lone])
        state = np.zeros((1 + of_rows.size, 2), dtype=np.float64)
        state[0, 0] = 1.0
        np.maximum(self._avail_at[of_rows] - now, 0.0, out=state[1:, 1])
        return state, allocations, lone

    # -- release-time index ------------------------------------------------
    def _index_add(self, when: float, size: int, key: int) -> None:
        """Insert the group ``(when, size, key)``, after any equal times.

        The tail shifts one slot right and its running counts grow by
        ``size``.
        """
        n = self._rel_n
        times, cum, keys = self._rel_times, self._rel_cum, self._rel_keys
        pos = int(times[:n].searchsorted(when, side="right"))
        if pos < n:
            times[pos + 1:n + 1] = times[pos:n]
            keys[pos + 1:n + 1] = keys[pos:n]
            cum[pos + 1:n + 1] = cum[pos:n]
            cum[pos + 1:n + 1] += size
        times[pos] = when
        cum[pos] = (cum[pos - 1] if pos else 0) + size
        keys[pos] = key
        self._rel_n = n + 1

    def _index_remove(self, when: float, key: int) -> None:
        """Delete the group ``key``, which was inserted at time ``when``.

        The tail shifts one slot left and its running counts shrink by
        the group's size.
        """
        n = self._rel_n
        times, cum, keys = self._rel_times, self._rel_cum, self._rel_keys
        pos = int(times[:n].searchsorted(when, side="left"))
        if keys[pos] != key:
            # tied release times: the group is somewhere in the run
            end = int(times[:n].searchsorted(when, side="right"))
            pos += int(np.flatnonzero(keys[pos:end] == key)[0])
        if pos < n - 1:
            size = cum[pos] - (cum[pos - 1] if pos else 0)
            times[pos:n - 1] = times[pos + 1:n]
            keys[pos:n - 1] = keys[pos + 1:n]
            cum[pos:n - 1] = cum[pos + 1:n]
            cum[pos:n - 1] -= size
        self._rel_n = n - 1

    def _released_by(self, when: float) -> int:
        """Nodes of all groups with ``est_release <= when``."""
        times = self._rel_times[:self._rel_n]
        upto = int(times.searchsorted(when, side="right"))
        return self._rel_cum.item(upto - 1) if upto else 0

    def _check_size(self, size: int) -> None:
        """Refuse a job larger than the whole cluster.

        Shared by :meth:`shadow_time` and :meth:`reservation_point`: the
        public queries never call one another, so a tracer that wraps
        them from outside counts each query once.
        """
        if size > self.num_nodes:
            raise ValueError(
                f"job size {size} exceeds cluster size {self.num_nodes}"
            )

    def release_groups(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """``(times, sizes)`` of the release groups, times ascending.

        One entry per running job and per down node: ``sizes[i]`` nodes
        are expected to come free at ``times[i]`` (>= ``now``; equal
        times are not merged).  Both arrays are copies; the sizes are
        the steps of the running count.
        """
        n = self._rel_n
        return (np.maximum(self._rel_times[:n], now),
                np.diff(self._rel_cum[:n], prepend=0))

    # no program calls this; kept while benchmarks/perf/layers.py wraps it
    def estimated_release_times(self, now: float) -> np.ndarray:
        """Sorted estimated release times of busy nodes (>= ``now``).

        This is the input to the EASY shadow-time computation: assuming
        every running job occupies its nodes until its walltime estimate
        (and every down node until its expected repair), when does each
        unavailable node come free?  It is the index expanded to one
        element per node.
        """
        return np.repeat(*self.release_groups(now))

    # no program calls this; kept while benchmarks/perf/layers.py wraps it
    def shadow_time(self, size: int, now: float) -> float:
        """Earliest time at which ``size`` nodes are expected to be free.

        Uses walltime estimates of running jobs (jobs can finish early,
        in which case the actual availability is sooner).  Returns
        ``now`` when the job already fits.
        """
        self._check_size(size)
        needed = size - self._nfree
        if needed <= 0:
            return now
        # the group whose release first brings the running count to
        # ``needed``; clipping to ``now`` preserves the sort order
        cum = self._rel_cum[:self._rel_n]
        group = int(cum.searchsorted(needed, side="left"))
        return float(max(self._rel_times.item(group), now))

    # no program calls this; kept while benchmarks/perf/layers.py wraps it
    def free_nodes_at(self, when: float, now: float) -> int:
        """Expected number of free nodes at time ``when`` (``when >= now``)."""
        if when < now:
            # every release is clipped to ``now``, so none precedes it
            return self._nfree
        return self._nfree + self._released_by(when)

    def reservation_point(self, size: int, now: float) -> tuple[float, int]:
        """``(shadow_time, free_nodes_at(shadow_time))`` in one call.

        This pair is computed for the queue head on every EASY-backfill
        scheduler pass.  One binary search over the running count finds
        the shadow group.  When the next group releases after the
        shadow, the running count at the shadow group is the answer;
        when it does not (it is tied with the shadow group, or overdue
        like it so both clip to ``now``), one more search over the times
        finds the last group released by the shadow.
        """
        self._check_size(size)
        free = self._nfree
        needed = size - free
        if needed <= 0:
            return now, free + self._released_by(now)
        n, times, cum = self._rel_n, self._rel_times, self._rel_cum
        group = int(cum[:n].searchsorted(needed, side="left"))
        shadow = float(max(times.item(group), now))
        if group + 1 < n and times.item(group + 1) <= shadow:
            return shadow, free + self._released_by(shadow)
        return shadow, free + cum.item(group)

    # -- allocation -------------------------------------------------------------
    def allocate(self, job: Job, now: float) -> None:
        """Start ``job`` on the lowest-indexed free nodes.

        Raises if the job does not fit or is already running.  The job
        becomes one release group of ``job.size`` nodes at
        ``now + job.walltime``; which nodes it holds is placed when
        read (:meth:`nodes_of`).
        """
        job_id, size = job.job_id, job.size
        if job_id in self._jobs:
            raise RuntimeError(f"job {job_id} already allocated")
        if size > self._nfree:
            raise RuntimeError(
                f"job {job_id} needs {size} nodes, only {self._nfree} free"
            )
        est_release = now + job.walltime
        self._nfree -= size
        self._jobs[job_id] = (est_release, size)
        self._index_add(est_release, size, job_id)
        self._log_keys.append(job_id)
        self._log_sizes.append(size)
        if _san.sanitizer_enabled():
            _san.check_cluster(self, f"allocate(job {job_id})")

    def _deallocate(self, job_id: int) -> None:
        """Free a running job's nodes and drop its release group."""
        try:
            est_release, size = self._jobs.pop(job_id)
        except KeyError:
            raise RuntimeError(f"job {job_id} is not allocated") from None
        self._index_remove(est_release, job_id)
        self._nfree += size
        self._log_keys.append(~job_id)
        self._log_sizes.append(size)

    def _place(self) -> None:
        """Replay the logged starts and finishes onto the placement, in order.

        A start takes the lowest-indexed free nodes, a finish merges
        them back.  A start writes the release time ``_jobs`` holds for
        its id: its own, unless a later finish of that id in this log
        frees the nodes again, and then the value is never read.
        """
        keys = self._log_keys
        if not keys:
            return
        job_of, avail_at = self._job_of, self._avail_at
        alloc, jobs = self._alloc, self._jobs
        free = self._free
        for key, size in zip(keys, self._log_sizes):
            if key >= 0:
                # a copy: a slice would keep the whole free list alive
                # while the job runs
                chosen = free[:size].copy()
                free = free[size:]
                job_of[chosen] = key
                avail_at[chosen] = jobs[key][0] if key in jobs else 0.0
                alloc[key] = chosen
            else:
                nodes = alloc.pop(~key)
                job_of[nodes] = _FREE
                avail_at[nodes] = 0.0
                # both runs are ascending and disjoint: timsort merges them
                free = np.concatenate((free, nodes))
                free.sort(kind="stable")
        self._free = free
        del keys[:]
        del self._log_sizes[:]

    def release(self, job: Job) -> None:
        """Free the nodes held by ``job`` and account its useful work."""
        self._deallocate(job.job_id)
        self._used_node_seconds += job.node_seconds
        if _san.sanitizer_enabled():
            _san.check_cluster(self, f"release(job {job.job_id})")

    def release_killed(self, job: Job, now: float) -> np.ndarray:
        """Free the nodes of a fault-killed job; its work is wasted.

        Unlike :meth:`release`, the partial execution contributes to
        :attr:`wasted_node_seconds` instead of the useful-work integral.
        Returns the node indices the job held (so the caller can take a
        failed subset down).
        """
        self._place()
        nodes = self._alloc.get(job.job_id)
        self._deallocate(job.job_id)
        if job.start_time is not None:
            self._wasted_node_seconds += job.size * max(0.0, now - job.start_time)
        if _san.sanitizer_enabled():
            _san.check_cluster(self, f"release_killed(job {job.job_id})")
        return nodes.copy()

    # -- faults -----------------------------------------------------------------
    def fail_nodes(self, nodes: np.ndarray | list[int], now: float,
                   expected_up_at: "float | np.ndarray") -> None:
        """Take currently-free ``nodes`` down until ``expected_up_at``.

        ``expected_up_at`` is a scalar, or an array giving each node its
        own expected repair time (one failure event can take a whole
        blade down with independent repairs).  Callers must evacuate
        occupying jobs first (the engine kills them via
        :meth:`release_killed`); failing an occupied or already-down
        node is a programming error and raises.  Each node becomes its
        own one-node release group at its expected repair time.
        """
        idx = _distinct(nodes)
        if idx.size == 0:
            return
        expected_up_at = np.asarray(expected_up_at, dtype=np.float64)
        if np.any(expected_up_at < now):
            raise ValueError(
                f"expected_up_at {expected_up_at} precedes now {now}"
            )
        self._place()
        states = self._job_of[idx]
        if np.any(states != _FREE):
            bad = idx[states != _FREE]
            raise RuntimeError(
                f"cannot fail non-free node(s) {bad.tolist()} at t={now}"
            )
        self._job_of[idx] = _DOWN
        self._avail_at[idx] = expected_up_at
        self._free = np.flatnonzero(self._job_of == _FREE)
        self._nfree -= int(idx.size)
        self._down_count += int(idx.size)
        for node, up_at in zip(idx.tolist(), self._avail_at[idx].tolist()):
            self._down_since[node] = now
            self._index_add(up_at, 1, -1 - node)
        if _san.sanitizer_enabled():
            _san.check_cluster(self, f"fail_nodes({idx.tolist()})")

    def repair_nodes(self, nodes: np.ndarray | list[int], now: float) -> None:
        """Bring down ``nodes`` back up, closing their downtime intervals.

        Their release groups go with them, whether the repair comes
        before or after the expected time.
        """
        idx = _distinct(nodes)
        if idx.size == 0:
            return
        self._place()
        states = self._job_of[idx]
        if np.any(states != _DOWN):
            bad = idx[states != _DOWN]
            raise RuntimeError(
                f"cannot repair node(s) {bad.tolist()} that are not down"
            )
        for node, up_at in zip(idx.tolist(), self._avail_at[idx].tolist()):
            since = self._down_since.pop(node)
            self._lost_node_seconds += max(0.0, now - since)
            self._index_remove(up_at, -1 - node)
        self._job_of[idx] = _FREE
        self._avail_at[idx] = 0.0
        self._free = np.flatnonzero(self._job_of == _FREE)
        self._nfree += int(idx.size)
        self._down_count -= int(idx.size)
        if _san.sanitizer_enabled():
            _san.check_cluster(self, f"repair_nodes({idx.tolist()})")

    # -- utilization accounting ----------------------------------------------
    def used_node_seconds(self, running_jobs: dict[int, Job] | None = None,
                          now: float | None = None) -> float:
        """Node-seconds of useful work completed so far.

        If ``running_jobs`` and ``now`` are given, partial work of
        currently running jobs is included.
        """
        total = self._used_node_seconds
        if running_jobs is not None and now is not None:
            for job_id in self._jobs:
                job = running_jobs[job_id]
                assert job.start_time is not None
                total += job.size * max(0.0, min(now, job.start_time + job.runtime)
                                        - job.start_time)
        return total

    @property
    def wasted_node_seconds(self) -> float:
        """Node-seconds of partial work destroyed by fault kills."""
        return self._wasted_node_seconds

    def lost_node_seconds(self, until: float | None = None) -> float:
        """Node-seconds of capacity lost to node downtime so far.

        Completed down intervals are always included; ``until`` extends
        the open intervals of still-down nodes to that time.
        """
        total = self._lost_node_seconds
        if until is not None:
            for since in self._down_since.values():
                total += max(0.0, until - since)
        return total

    def reset(self) -> None:
        """Return the cluster to the all-idle, all-up initial state.

        The release-time index and the log empty with it.
        """
        self._nfree = self.num_nodes
        self._jobs.clear()
        self._job_of.fill(_FREE)
        self._avail_at.fill(0.0)
        self._free = np.flatnonzero(self._job_of == _FREE)
        self._alloc.clear()
        del self._log_keys[:]
        del self._log_sizes[:]
        self._down_count = 0
        self._rel_n = 0
        self._used_node_seconds = 0.0
        self._wasted_node_seconds = 0.0
        self._lost_node_seconds = 0.0
        self._down_since.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={self.num_nodes}, free={self.available_nodes}, "
            f"running={len(self._jobs)}, down={self.down_nodes})"
        )
