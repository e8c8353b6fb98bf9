"""DRAS-DQL: the deep Q-learning variant (paper §III-B, Eq. 4).

The network processes *one job at a time*: input ``[2 + N, 2]`` (one
job block plus all node rows), output a single neuron — the expected
Q-value of scheduling that job now.  The same network scores every job
in the window against the same node rows, so a decision passes the job
blocks and the node rows — one row for all nodes of a large job —
separately and the first dense layer multiplies one cached weight-row
sum per such job.  The agent normally takes the job with the highest Q-value, but with probability
ε it explores a random job instead.
ε starts at 1.0 and decays by 0.995 per parameter update (§III-B).

Learning minimizes the TD error between the *old value*
:math:`Q(s_k, a_k)` and the *new value*
:math:`r_k + \\max_a Q(s_{k+1}, a)`, where the maximum runs over the
candidate jobs of the next selection.  The final selection of an
episode bootstraps with 0 (terminal).  Updates happen every 10
scheduling instances with Adam, after which the memory is cleared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agent import HierarchicalAgent
from repro.core.config import DRASConfig
from repro.core.rewards import RewardFunction
from repro.core.state import NodeGroups
from repro.nn.losses import mse_loss
from repro.nn.network import build_dras_network
from repro.nn.optim import Adam
from repro.obs import trace as _trace
from repro.sim.engine import SchedulingView
from repro.sim.job import Job


@dataclass(slots=True)
class _QTransition:
    x: np.ndarray                 #: the chosen job's network input
    reward: float | None = None
    next_max_q: float | None = None


class DRASDQL(HierarchicalAgent):
    """The hierarchical deep-Q-learning DRAS agent."""

    name = "DRAS-DQL"

    def __init__(self, config: DRASConfig, reward: RewardFunction | None = None) -> None:
        super().__init__(config, reward)
        dims = config.dql_dims
        self.network = build_dras_network(
            dims.rows, dims.hidden1, dims.hidden2, dims.outputs, rng=self.rng
        )
        self.optimizer = Adam(
            self.network.parameters(),
            lr=config.learning_rate,
            grad_clip=config.grad_clip,
        )
        self.epsilon = config.epsilon_start
        self._pending: list[_QTransition] = []
        self.losses: list[float] = []
        #: transitions stacked into the most recent TD update (the
        #: minibatch one backward + Adam step amortized over)
        self.last_update_batch = 0

    # -- Q evaluation --------------------------------------------------------
    def score_window(self, x: np.ndarray, shared: NodeGroups) -> np.ndarray:
        """Q-values for a batch of candidate jobs against one node state.

        ``x`` is the ``[B, 2, 2]`` stack of job blocks and ``shared``
        the node state they are all scored against (the pair
        :meth:`~repro.core.state.StateEncoder.encode_jobs_batch`
        returns) — the ``[2 + N, 2]`` per-job input of §III-B with the
        node rows, identical for every candidate, passed once and by
        group.  One network forward scores all ``B`` candidates and
        returns the ``[B]`` Q-vector.  This is the single inference
        entry point — the whole window is scored per decision.
        """
        if x.ndim != 3:
            raise ValueError(f"score_window expects [B, 2, 2], got {x.shape}")
        return self.network.forward(x, shared=shared)[:, 0]

    def q_values(
        self, window: list[Job], view: SchedulingView
    ) -> tuple[np.ndarray, NodeGroups, np.ndarray]:
        """Q-values of every job in the window: ``(heads, nodes, q)``."""
        with _trace.span("agent.encode"):
            heads, nodes = self.encoder.encode_jobs_batch(
                window, view.cluster, view.now)
        return heads, nodes, self.score_window(heads, nodes)

    # -- HierarchicalAgent interface -------------------------------------------
    def select(self, window: list[Job], view: SchedulingView, level: int) -> Job:
        """ε-greedy pick: best Q-value, or a random job with prob. ε."""
        heads, nodes, q = self.q_values(window, view)
        if self.learning:
            # Bootstrap the previous transition with max_a Q(s_{k+1}, a).
            if self._pending and self._pending[-1].next_max_q is None \
                    and self._pending[-1].reward is not None:
                self._pending[-1].next_max_q = float(q.max())
            explore = self.rng.random() < self.epsilon
            action = (
                int(self.rng.integers(len(window))) if explore else int(np.argmax(q))
            )
            # only the chosen job's [2 + N, 2] input is ever materialised
            self._pending.append(_QTransition(x=np.concatenate(
                [heads[action], nodes.expand(self.config.num_nodes)])))
        else:
            action = int(np.argmax(q))
        return window[action]

    def record_reward(self, reward: float) -> None:
        """Attach the post-action reward to the pending transition."""
        if not self._pending or self._pending[-1].reward is not None:
            raise RuntimeError("no pending transition awaiting a reward")
        self._pending[-1].reward = float(reward)

    def _has_observations(self) -> bool:
        return any(
            t.reward is not None and t.next_max_q is not None for t in self._pending
        )

    def update(self) -> None:
        """One TD/Adam step over the completed transitions.

        The completed transitions stack into one ``[K, rows, 2]``
        minibatch scored by a single batched forward; one backward and
        one Adam step consume the whole batch.  The most recent
        transition usually has no successor Q yet; it is held back for
        the next batch (or terminated at episode end).
        """
        ready = [
            t for t in self._pending
            if t.reward is not None and t.next_max_q is not None
        ]
        incomplete = [
            t for t in self._pending
            if t.reward is None or t.next_max_q is None
        ]
        self._pending = incomplete
        self.last_update_batch = len(ready)
        if not ready:
            return
        x = np.stack([t.x for t in ready])
        gamma = self.config.gamma
        targets = np.array(
            [t.reward + gamma * t.next_max_q for t in ready]
        ).reshape(-1, 1)
        q = self.network.forward(x)
        loss, grad = mse_loss(q, targets)
        self.network.backward(grad)
        self.optimizer.step()
        self.losses.append(loss)
        self.epsilon = max(
            self.config.epsilon_min, self.epsilon * self.config.epsilon_decay
        )

    def learning_stats(self) -> dict[str, float]:
        """The latest update's signals, keyed as DRAS-PG's (a Q-network
        has no policy entropy: NaN), plus the exploration rate."""
        return {
            "loss": float(self.losses[-1]) if self.losses else float("nan"),
            "grad_norm": self.optimizer.last_grad_norm,
            "entropy": float("nan"),
            "update_batch": float(self.last_update_batch),
            "epsilon": float(self.epsilon),
        }

    def episode_end(self) -> None:
        """Terminate the trailing transition with a zero future value."""
        if self.learning:
            for t in self._pending:
                if t.reward is not None and t.next_max_q is None:
                    t.next_max_q = 0.0
            self._pending = [t for t in self._pending if t.reward is not None]
        super().episode_end()
        self._pending.clear()

    # -- persistence --------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Network parameters keyed by position-qualified names."""
        return self.network.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore network parameters from :meth:`state_dict` output."""
        self.network.load_state_dict(state)
