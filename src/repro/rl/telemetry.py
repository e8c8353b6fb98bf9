"""Anomaly flags on the per-episode training record.

The :class:`~repro.rl.trainer.Trainer` builds one ``kind="train"``
record per episode — the learning signals (loss, gradient norm, policy
entropy, epsilon), the reward curve and the simulator-side load
statistics (queue depth, utilization) — publishes it on the live bus
and appends it to the training log, a ``repro.live/v1`` shard
(:class:`~repro.obs.live.SnapshotWriter`).  This module answers "is
training healthy?" over those records, in two layers:

* :func:`detect_anomalies` is pure — it flags suspicious episodes
  (``nan_grad``, ``reward_collapse``, ``utilization_drop``) from the
  record plus its history and returns the flags, which the trainer
  stores in the record itself;
* :func:`raise_hard_anomalies` routes the one *hard* failure
  (non-finite learning signals) through the existing sanitizer
  machinery: under ``REPRO_SANITIZE=1`` it raises
  :class:`~repro.check.sanitize.SanitizerError` — after the record has
  been written to the training log, so the evidence survives the crash.

The soft flags (reward collapse, utilization drop) never raise; real
training runs regularly brush against them early on.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from repro.check.sanitize import SanitizerError, sanitizer_enabled

#: anomaly flag names (the only values that appear in ``anomalies``)
ANOMALY_NAN_GRAD = "nan_grad"
ANOMALY_REWARD_COLLAPSE = "reward_collapse"
ANOMALY_UTILIZATION_DROP = "utilization_drop"


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _values(history: Sequence[Mapping[str, Any]], key: str) -> list[float]:
    return [float(r[key]) for r in history if _finite(r.get(key))]


def detect_anomalies(
    record: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]] = (),
) -> list[str]:
    """Flag suspicious signals in one episode record (pure; never raises).

    ``history`` is the episode records *before* this one.  Flags:

    * ``nan_grad`` — ``grad_norm`` or ``loss`` is present but
      non-finite.  The learning signal is corrupt; later parameters
      are garbage.
    * ``reward_collapse`` — with at least 3 prior finite train rewards,
      this episode's train reward sits more than 4 standard deviations
      below their mean.  The policy fell off a cliff (often a sign of
      an exploding update the clip did not catch).
    * ``utilization_drop`` — with at least 3 prior finite utilization
      samples averaging above zero, this episode's utilization is below
      half that average.  The policy stopped packing the machine.
    """
    flags: list[str] = []
    for key in ("grad_norm", "loss"):
        value = record.get(key)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            flags.append(ANOMALY_NAN_GRAD)
            break

    reward = record.get("train_reward")
    prior_rewards = _values(history, "train_reward")
    if _finite(reward) and len(prior_rewards) >= 3:
        mean = sum(prior_rewards) / len(prior_rewards)
        var = sum((v - mean) ** 2 for v in prior_rewards) / len(prior_rewards)
        std = math.sqrt(var)
        if std > 0 and float(reward) < mean - 4.0 * std:
            flags.append(ANOMALY_REWARD_COLLAPSE)

    utilization = record.get("utilization")
    prior_util = _values(history, "utilization")
    if _finite(utilization) and len(prior_util) >= 3:
        mean = sum(prior_util) / len(prior_util)
        if mean > 0 and float(utilization) < 0.5 * mean:
            flags.append(ANOMALY_UTILIZATION_DROP)
    return flags


def raise_hard_anomalies(
    flags: Sequence[str], record: Mapping[str, Any]
) -> None:
    """Escalate hard anomalies through the sanitizer machinery.

    Only ``nan_grad`` is hard — a non-finite learning signal poisons
    every later parameter, so continuing silently is the worst outcome.
    Under ``REPRO_SANITIZE=1`` this raises
    :class:`~repro.check.sanitize.SanitizerError`; otherwise it is a
    no-op (the flag is already durable in the training log).  Soft
    flags (reward collapse, utilization drop) never raise.
    """
    if ANOMALY_NAN_GRAD in flags and sanitizer_enabled():
        raise SanitizerError(
            "telemetry: non-finite learning signal at episode "
            f"{record.get('episode')} (phase {record.get('phase')!r}): "
            f"loss={record.get('loss')} grad_norm={record.get('grad_norm')}"
        )
