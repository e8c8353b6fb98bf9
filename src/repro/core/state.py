"""State encoding (paper section III-A).

Each waiting job is a ``[2, 2]`` block with four features::

    [[size,     estimated runtime],
     [priority, queued time      ]]

Each node is a ``[1, 2]`` row: a binary availability flag and, for busy
nodes, the difference between the node's estimated available time and
the current time.  Job blocks and node rows concatenate into a
fixed-size matrix — ``[2W + N, 2]`` for the level networks (W jobs) and
``[2 + N, 2]`` for the DQL per-job network (scored as ``B`` job blocks
plus one shared ``[N, 2]`` node matrix, see ``encode_jobs_batch``).

The paper feeds raw values; raw seconds and node counts differ by
orders of magnitude, so (like any practical implementation) we
normalize by the system size and a time scale.  Set ``normalize=False``
for the paper-literal encoding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.job import Job


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
    normalize:
        Disable to reproduce the paper-literal raw encoding.
    """

    def __init__(
        self,
        num_nodes: int,
        window: int,
        time_scale: float = 86400.0,
        normalize: bool = True,
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
        self.normalize = normalize

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
        size = job.size
        walltime = job.walltime
        queued = job.queued_time(now)
        if self.normalize:
            size = size / max(1, capacity if capacity is not None
                              else self.num_nodes)
            walltime = walltime / self.time_scale
            queued = queued / self.time_scale
        return np.array(
            [[size, walltime], [float(job.priority), queued]], dtype=np.float64
        )

    def node_rows(self, cluster: Cluster, now: float) -> np.ndarray:
        """The ``[N, 2]`` node-state matrix."""
        state = cluster.node_state(now)  # freshly allocated per call
        if self.normalize:
            state[:, 1] /= self.time_scale
        return state

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack :meth:`encode_window` for many windows: batch-first.

        Returns ``([B, 2W + N, 2] observations, [B, W] validity masks)``
        for ``B = len(windows)`` — the obs matrix a batched
        ``score_window`` consumes in one forward pass.  The node rows
        are identical across the batch (one snapshot of the same
        cluster at the same instant), so they are computed once and
        broadcast.  A single decision is the ``B = 1`` case; agents
        route every window scoring through this batched encoding rather
        than reshaping per decision.
        """
        if not windows:
            raise ValueError("empty window batch")
        window = self.window
        x = np.zeros((len(windows), self.pg_rows, 2), dtype=np.float64)
        mask = np.zeros((len(windows), window), dtype=bool)
        capacity = cluster.up_nodes
        nodes = self.node_rows(cluster, now)
        for b, jobs in enumerate(windows):
            if len(jobs) > window:
                raise ValueError(
                    f"{len(jobs)} jobs exceed the window size {window}"
                )
            for i, job in enumerate(jobs):
                x[b, 2 * i : 2 * i + 2] = self.job_block(job, now, capacity)
                mask[b, i] = True
            x[b, 2 * window :] = nodes
        return x, mask

    def encode_job(self, job: Job, cluster: Cluster, now: float) -> np.ndarray:
        """DQL-style input for one job: ``[2 + N, 2]``."""
        x = np.empty((self.dql_rows, 2), dtype=np.float64)
        x[:2] = self.job_block(job, now, cluster.up_nodes)
        x[2:] = self.node_rows(cluster, now)
        return x

    def encode_jobs_batch(
        self, jobs: Sequence[Job], cluster: Cluster, now: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """DQL-style input for many jobs: ``(heads [B, 2, 2], nodes [N, 2])``.

        ``concat(heads[i], nodes)`` is :meth:`encode_job` of ``jobs[i]``.
        The node rows are one snapshot of the same cluster at the same
        instant, identical for every job, so they are returned once
        rather than copied into each row of a ``[B, 2 + N, 2]`` batch;
        ``Network.forward(heads, shared=nodes)`` scores the pair.
        """
        if not jobs:
            raise ValueError("empty job batch")
        heads = np.empty((len(jobs), 2, 2), dtype=np.float64)
        capacity = cluster.up_nodes
        for i, job in enumerate(jobs):
            heads[i] = self.job_block(job, now, capacity)
        return heads, self.node_rows(cluster, now)
