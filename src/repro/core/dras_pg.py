"""DRAS-PG: the policy-gradient variant (paper §III-B, Eq. 3).

The network parameterizes the scheduling policy
:math:`\\pi_\\theta(s_k, a_k)`: input ``[2W + N, 2]``, output ``W``
softmax probabilities — one per window slot.  A decision passes the
``2W`` job rows and the node rows — one row for all nodes of a large
job — separately (``Network.forward(x, shared=)``); the full matrix is
built only for a transition kept to train on.  Actions are drawn
stochastically; invalid slots (window not full, or jobs that a flat
agent may not start) are masked and the valid probabilities rescaled.

Learning is REINFORCE with a per-step baseline:

.. math::

   \\theta \\leftarrow \\theta + \\alpha \\sum_{k=1}^{K}
       \\nabla_\\theta \\log \\pi_\\theta(s_k, a_k)
       \\Big( \\sum_{k'=k}^{K} r_{k'} - b_k \\Big)

with :math:`b_k` the cumulative reward from step ``k`` onwards averaged
over all past parameter updates.  The step is taken with Adam
(lr = 0.001) every 10 scheduling instances, after which the memory is
cleared (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.agent import HierarchicalAgent
from repro.core.config import DRASConfig
from repro.core.rewards import RewardFunction
from repro.core.state import NodeGroups, StateEncoder
from repro.nn.losses import masked_softmax, policy_gradient_loss, sample_from_probs
from repro.nn.network import Network, build_dras_network
from repro.nn.optim import Adam
from repro.obs import trace as _trace
from repro.sim.engine import SchedulingView
from repro.sim.job import Job


class BaselineTracker:
    """Per-step running average of returns over past parameter updates.

    Implements the paper's baseline :math:`b_k`: the cumulative reward
    from step ``k`` onwards averaged over every previous update.  The
    arrays grow lazily as longer trajectories appear.
    """

    def __init__(self) -> None:
        self._sums = np.zeros(0)
        self._counts = np.zeros(0)

    def baselines(self, k: int) -> np.ndarray:
        """Baselines for steps ``0..k-1`` (zero where nothing seen yet)."""
        out = np.zeros(k)
        n = min(k, self._sums.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            seen = self._counts[:n] > 0
            out[:n][seen] = self._sums[:n][seen] / self._counts[:n][seen]
        return out

    def observe(self, returns: np.ndarray) -> None:
        """Fold one trajectory's returns into the running averages."""
        k = returns.size
        if k > self._sums.size:
            self._sums = np.concatenate([self._sums, np.zeros(k - self._sums.size)])
            self._counts = np.concatenate(
                [self._counts, np.zeros(k - self._counts.size)]
            )
        self._sums[:k] += returns
        self._counts[:k] += 1


@dataclass(slots=True)
class _Transition:
    x: np.ndarray
    mask: np.ndarray
    action: int
    reward: float | None = None


@dataclass
class PGCore:
    """Policy-gradient machinery of DRAS-PG (and of its subclass Decima-PG)."""

    network: Network
    optimizer: Adam
    encoder: StateEncoder
    rng: np.random.Generator
    gamma: float = 1.0
    entropy_coef: float = 0.0
    baseline: BaselineTracker = field(default_factory=BaselineTracker)
    pending: list[_Transition] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    #: mean policy entropy (nats/decision) of the most recent update
    #: batch; NaN until the first update
    last_entropy: float = float("nan")
    #: transitions stacked into the most recent parameter update — the
    #: minibatch the single backward + Adam step amortized over (0
    #: until the first update; always-on, the counter is free)
    last_update_batch: int = 0

    def policy(self, window: list[Job], view: SchedulingView,
               extra_mask: np.ndarray | None = None
               ) -> tuple[np.ndarray, NodeGroups, np.ndarray, np.ndarray]:
        """Scores of the window's slots: ``(head, groups, mask, logits)``.

        ``head`` is the window's ``[2W, 2]`` job rows and ``groups`` the
        node state — the ``[2W + N, 2]`` input of §III-B with the node
        rows passed once and by group — scored by one network forward
        as a batch of one.  ``extra_mask`` ANDs additional validity
        constraints (e.g. Decima-PG's runnable-only rule) into the
        window mask.
        """
        with _trace.span("agent.encode"):
            heads, masks, groups = self.encoder.encode_windows(
                [window], view.cluster, view.now)
        if extra_mask is not None:
            masks = masks & extra_mask[None, :]
        logits = self.network.forward(heads, shared=groups)
        return heads[0], groups, masks[0], logits[0]

    def act(self, window: list[Job], view: SchedulingView, record: bool,
            extra_mask: np.ndarray | None = None) -> int:
        """Sample one window slot from the masked softmax of the
        :meth:`policy` scores.

        With ``record=True`` the transition is kept for the next
        REINFORCE update, as the ``[2W + N, 2]`` input the update's
        plain forward takes.
        """
        head, groups, mask, logits = self.policy(window, view, extra_mask)
        with _trace.span("agent.sample"):
            action = sample_from_probs(masked_softmax(logits, mask), self.rng)
        if record:
            x = np.concatenate([head, groups.expand(self.encoder.num_nodes)])
            self.pending.append(_Transition(x=x, mask=mask, action=action))
        return action

    def record_reward(self, reward: float) -> None:
        """Attach the post-action reward to the pending transition."""
        if not self.pending or self.pending[-1].reward is not None:
            raise RuntimeError("no pending transition awaiting a reward")
        self.pending[-1].reward = float(reward)

    def has_observations(self) -> bool:
        """Whether any pending transition has its reward and can train."""
        return any(t.reward is not None for t in self.pending)

    def update(self) -> float:
        """One REINFORCE/Adam step over the collected trajectory.

        The stacked transitions form one ``[K, rows, 2]`` minibatch:
        a single batched forward/backward produces gradients summed
        over all ``K`` decisions, and one Adam step applies them —
        never one optimizer step per sample.
        """
        batch = [t for t in self.pending if t.reward is not None]
        self.pending.clear()
        self.last_update_batch = len(batch)
        if not batch:
            return 0.0
        rewards = np.array([t.reward for t in batch])
        if self.gamma >= 1.0:
            returns = np.cumsum(rewards[::-1])[::-1].copy()
        else:
            returns = np.empty_like(rewards)
            acc = 0.0
            for i in range(rewards.size - 1, -1, -1):
                acc = rewards[i] + self.gamma * acc
                returns[i] = acc
        advantages = returns - self.baseline.baselines(returns.size)
        self.baseline.observe(returns)

        x = np.stack([t.x for t in batch])
        masks = np.stack([t.mask for t in batch])
        actions = np.array([t.action for t in batch])

        logits = self.network.forward(x)
        loss, grad = policy_gradient_loss(
            logits, masks, actions, advantages, entropy_coef=self.entropy_coef
        )
        self.network.backward(grad)
        self.optimizer.step()
        self.losses.append(loss)
        probs = masked_softmax(logits, masks)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.where(probs > 0, np.log(probs), 0.0)
        self.last_entropy = float(np.mean(-(probs * log_p).sum(axis=1)))
        return loss


class DRASPG(HierarchicalAgent):
    """The hierarchical policy-gradient DRAS agent."""

    name = "DRAS-PG"

    def __init__(self, config: DRASConfig, reward: RewardFunction | None = None) -> None:
        super().__init__(config, reward)
        dims = config.pg_dims
        self.network = build_dras_network(
            dims.rows, dims.hidden1, dims.hidden2, dims.outputs, rng=self.rng
        )
        self.optimizer = Adam(
            self.network.parameters(),
            lr=config.learning_rate,
            grad_clip=config.grad_clip,
        )
        self.core = PGCore(
            network=self.network,
            optimizer=self.optimizer,
            encoder=self.encoder,
            rng=self.rng,
            gamma=config.gamma,
            entropy_coef=config.entropy_coef,
        )

    # -- HierarchicalAgent interface ----------------------------------------
    def select(self, window: list[Job], view: SchedulingView, level: int) -> Job:
        """Draw one job from the masked policy over the window."""
        action = self.core.act(window, view, record=self.learning)
        return window[action]

    def record_reward(self, reward: float) -> None:
        """Attach the post-action reward to the pending transition."""
        self.core.record_reward(reward)

    def update(self) -> None:
        """One REINFORCE/Adam step over the collected transitions."""
        self.core.update()

    def _has_observations(self) -> bool:
        return self.core.has_observations()

    def learning_stats(self) -> dict[str, float]:
        """The latest update's signals, for the trainer's per-episode
        record: loss, global pre-clip gradient norm and mean policy
        entropy (each NaN before the first update) and update minibatch
        size."""
        core = self.core
        return {
            "loss": float(core.losses[-1]) if core.losses else float("nan"),
            "grad_norm": self.optimizer.last_grad_norm,
            "entropy": core.last_entropy,
            "update_batch": float(core.last_update_batch),
        }

    # -- persistence -----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Network parameters keyed by position-qualified names."""
        return self.network.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore network parameters from :meth:`state_dict` output."""
        self.network.load_state_dict(state)
