"""State encoding (paper section III-A).

Each waiting job is a ``[2, 2]`` block with four features::

    [[size,     estimated runtime],
     [priority, queued time      ]]

Each node is a ``[1, 2]`` row: a binary availability flag and, for busy
nodes, the difference between the node's estimated available time and
the current time.  Job blocks and node rows concatenate into a
fixed-size matrix — ``[2W + N, 2]`` for the level networks (W jobs) and
``[2 + N, 2]`` for the DQL per-job network.  Every node of a running
job has the same row, so a decision is scored from the job blocks plus
the node rows *by group* (:class:`NodeGroups`); the full matrix is
built only for a transition an agent records to train on.

The paper feeds raw values; raw seconds and node counts differ by
orders of magnitude, so (like any practical implementation) we
normalize by the system size and a time scale.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.nn import layers as _layers
from repro.sim.cluster import Cluster
from repro.sim.job import Job


class NodeGroups(NamedTuple):
    """The ``[N, 2]`` node rows, one row for all nodes of a large job.

    What ``Network.forward(x, shared=)`` takes: the node state of one
    cluster at one instant
    (:meth:`~repro.sim.cluster.Cluster.node_groups`), with a group for
    each allocation large enough for the first dense layer to keep a
    weight-row sum for (``repro.nn.layers.MIN_GROUP_ROWS``).
    """

    #: ``[1 + G + S, 2]``: the free row, one row per entry of ``nodes``,
    #: one row per entry of ``lone``
    rows: np.ndarray
    #: node indices of each large allocation; the array object itself
    #: identifies the allocation and must not be written
    nodes: tuple[np.ndarray, ...]
    #: ``[S]`` indices of the other busy nodes and of the down nodes
    lone: np.ndarray

    def expand(self, num_nodes: int) -> np.ndarray:
        """The ``[N, 2]`` matrix of :meth:`StateEncoder.node_rows`, bit for bit."""
        row_of = np.zeros(num_nodes, dtype=np.intp)  # 0: the free row
        for g, nodes in enumerate(self.nodes, 1):
            row_of[nodes] = g
        row_of[self.lone] = np.arange(1 + len(self.nodes), len(self.rows))
        return self.rows[row_of]


class StateEncoder:
    """Encodes jobs + cluster into network inputs.

    Parameters
    ----------
    num_nodes:
        System size ``N``.
    window:
        Window size ``W`` (jobs visible to the level networks).
    time_scale:
        Seconds used to normalize all time features (runtime estimates,
        queued times, node availability horizons).  A natural choice is
        the system's maximum job length.
    """

    def __init__(
        self,
        num_nodes: int,
        window: int,
        time_scale: float = 86400.0,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.num_nodes = num_nodes
        self.window = window
        self.time_scale = time_scale

    # -- shapes ---------------------------------------------------------------
    @property
    def pg_rows(self) -> int:
        """Input rows of the window network: ``2W + N``."""
        return 2 * self.window + self.num_nodes

    @property
    def dql_rows(self) -> int:
        """Input rows of the per-job network: ``2 + N``."""
        return 2 + self.num_nodes

    # -- pieces ---------------------------------------------------------------
    def job_block(self, job: Job, now: float,
                  capacity: int | None = None) -> np.ndarray:
        """The ``[2, 2]`` feature block of one job.

        ``capacity`` is the live node count used to normalize the size
        feature; under fault injection the encoders pass the cluster's
        current up-node count so a job's relative footprint reflects the
        capacity that actually exists.  Defaults to the static ``N``.
        """
        size = job.size / max(1, capacity if capacity is not None
                              else self.num_nodes)
        walltime = job.walltime / self.time_scale
        queued = job.queued_time(now) / self.time_scale
        return np.array(
            [[size, walltime], [float(job.priority), queued]], dtype=np.float64
        )

    def node_rows(self, cluster: Cluster, now: float) -> np.ndarray:
        """The ``[N, 2]`` node-state matrix."""
        state = cluster.node_state(now)  # freshly allocated per call
        state[:, 1] /= self.time_scale
        return state

    def node_groups(self, cluster: Cluster, now: float) -> NodeGroups:
        """:meth:`node_rows` by allocation; ``expand`` gives it back."""
        state, allocations, lone = cluster.node_groups(now, _layers.MIN_GROUP_ROWS)
        state[:, 1] /= self.time_scale
        return NodeGroups(state, tuple(allocations), lone)

    # -- full encodings ----------------------------------------------------------
    def encode_window(
        self, jobs: Sequence[Job], cluster: Cluster, now: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """PG-style input: ``([2W + N, 2] matrix, [W] validity mask)``.

        When fewer than ``W`` jobs are waiting, the remaining job blocks
        are zero and masked out; the agent rescales the valid action
        probabilities (§III-B).
        """
        if len(jobs) > self.window:
            raise ValueError(
                f"{len(jobs)} jobs exceed the window size {self.window}"
            )
        x = np.zeros((self.pg_rows, 2), dtype=np.float64)
        mask = np.zeros(self.window, dtype=bool)
        capacity = cluster.up_nodes
        for i, job in enumerate(jobs):
            x[2 * i : 2 * i + 2] = self.job_block(job, now, capacity)
            mask[i] = True
        x[2 * self.window :] = self.node_rows(cluster, now)
        return x, mask

    def encode_windows(
        self, windows: Sequence[Sequence[Job]], cluster: Cluster, now: float
    ) -> tuple[np.ndarray, np.ndarray, NodeGroups]:
        """PG-style input for many windows, node rows passed once.

        Returns ``(heads [B, 2W, 2], masks [B, W], groups)`` for
        ``B = len(windows)``: ``concat(heads[b], groups.expand(N))`` and
        ``masks[b]`` are :meth:`encode_window` of ``windows[b]``.  The
        node state is one snapshot of the same cluster at the same
        instant, identical across the batch;
        ``Network.forward(heads, shared=groups)`` scores the pair.  A
        single decision is the ``B = 1`` case.
        """
        if not windows:
            raise ValueError("empty window batch")
        window = self.window
        heads = np.zeros((len(windows), 2 * window, 2), dtype=np.float64)
        mask = np.zeros((len(windows), window), dtype=bool)
        capacity = cluster.up_nodes
        for b, jobs in enumerate(windows):
            if len(jobs) > window:
                raise ValueError(
                    f"{len(jobs)} jobs exceed the window size {window}"
                )
            for i, job in enumerate(jobs):
                heads[b, 2 * i : 2 * i + 2] = self.job_block(job, now, capacity)
                mask[b, i] = True
        return heads, mask, self.node_groups(cluster, now)

    def encode_job(self, job: Job, cluster: Cluster, now: float) -> np.ndarray:
        """DQL-style input for one job: ``[2 + N, 2]``."""
        x = np.empty((self.dql_rows, 2), dtype=np.float64)
        x[:2] = self.job_block(job, now, cluster.up_nodes)
        x[2:] = self.node_rows(cluster, now)
        return x

    def encode_jobs_batch(
        self, jobs: Sequence[Job], cluster: Cluster, now: float
    ) -> tuple[np.ndarray, NodeGroups]:
        """DQL-style input for many jobs: ``(heads [B, 2, 2], groups)``.

        ``concat(heads[i], groups.expand(N))`` is :meth:`encode_job` of
        ``jobs[i]``.  The node state is one snapshot of the same cluster
        at the same instant, identical for every job, so it is returned
        once, by group, rather than copied into each row of a
        ``[B, 2 + N, 2]`` batch; ``Network.forward(heads, shared=groups)``
        scores the pair.
        """
        if not jobs:
            raise ValueError("empty job batch")
        heads = np.empty((len(jobs), 2, 2), dtype=np.float64)
        capacity = cluster.up_nodes
        for i, job in enumerate(jobs):
            heads[i] = self.job_block(job, now, capacity)
        return heads, self.node_groups(cluster, now)
