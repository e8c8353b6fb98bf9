"""Loss heads and action-distribution helpers.

DRAS-PG needs a *masked* softmax over the window (invalid actions are
masked out and the valid probabilities rescaled, §III-B) and the
REINFORCE gradient; DRAS-DQL needs a mean-squared TD error.

The heads compute in float64 whatever the network's dtype: a ``[B, W]``
array costs nothing, the softmax keeps its headroom, and
:meth:`Network.backward <repro.nn.network.Network.backward>` casts the
returned gradient back at its boundary.
"""

from __future__ import annotations

import numpy as np


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over ``logits`` with invalid entries masked to zero.

    ``mask`` is boolean with at least one valid entry per row.  Works on
    1-D (single sample) or 2-D (batch) inputs.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs mask {mask.shape}")
    squeeze = logits.ndim == 1
    if squeeze:
        logits = logits[None, :]
        mask = mask[None, :]
    if not mask.any(axis=1).all():
        raise ValueError("every row needs at least one valid action")
    shifted = np.where(mask, logits, -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        # -inf - max stays -inf; the overflow warning on that path is benign
        shifted = shifted - shifted.max(axis=1, keepdims=True)
    exp = np.exp(shifted, where=mask, out=np.zeros_like(shifted))
    probs = exp / exp.sum(axis=1, keepdims=True)
    return probs[0] if squeeze else probs


def sample_from_probs(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Stochastically draw an action index from a probability vector."""
    p = np.asarray(probs, dtype=np.float64)
    p = p / p.sum()
    return int(rng.choice(len(p), p=p))


def policy_gradient_loss(
    logits: np.ndarray,
    masks: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    entropy_coef: float = 0.0,
) -> tuple[float, np.ndarray]:
    """REINFORCE loss and its gradient w.r.t. the logits.

    Loss is ``-sum_k advantage_k * log pi(a_k | s_k)`` (Eq. 3 ascends
    the negated quantity), optionally minus ``entropy_coef`` times the
    policy entropy.  The entropy bonus prevents the softmax from
    saturating into a deterministic policy before it has explored
    enough job combinations (with Eq. 1's wait term, an unregularized
    policy quickly collapses into always-pick-the-oldest — an FCFS
    clone).  Returns ``(loss, dloss/dlogits)`` with the gradient zeroed
    on masked entries.
    """
    logits = np.atleast_2d(logits)
    masks = np.atleast_2d(masks).astype(bool)
    actions = np.asarray(actions, dtype=np.int64).ravel()
    advantages = np.asarray(advantages, dtype=np.float64).ravel()
    B = logits.shape[0]
    if not (masks.shape == logits.shape and actions.shape[0] == B
            and advantages.shape[0] == B):
        raise ValueError("inconsistent batch shapes")
    probs = masked_softmax(logits, masks)
    chosen = probs[np.arange(B), actions]
    if np.any(chosen <= 0):
        raise ValueError("an invalid (masked) action was taken")
    loss = float(-(advantages * np.log(chosen)).sum())
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(B), actions] = 1.0
    grad = advantages[:, None] * (probs - one_hot)
    if entropy_coef:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.where(probs > 0, np.log(probs), 0.0)
        entropy = -(probs * log_p).sum(axis=1)
        loss -= entropy_coef * float(entropy.sum())
        # d(-H)/dz_j = p_j * (log p_j + H)
        grad += entropy_coef * probs * (log_p + entropy[:, None])
    grad[~masks] = 0.0
    return loss, grad


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. ``pred``."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = max(1, pred.size)
    return float(np.mean(diff**2)), (2.0 / n) * diff
