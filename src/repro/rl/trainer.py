"""Episodic training with validation and per-episode checkpoints.

Training follows §III-C: the network parameters start random, each
episode replays one jobset from an all-idle initial state, parameters
update every ten scheduling instances, and the model is kept after
every episode: on disk, as the agent file at ``checkpoint_path`` when
it is set, written from the live weights without lending them.  An
unseen validation jobset measures progress; the convergence monitor declares convergence
when the validation reward plateaus.  The trained model is the agent
itself: ``train()`` takes no snapshot, so every optimizer step updates
the weights in place.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import Any

import numpy as np

from repro.core.persistence import save_agent
from repro.obs import live as _live
from repro.obs import trace as _trace
from repro.rl import telemetry as _telemetry
from repro.rl.meter import RewardMeter
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine, SchedulingView
from repro.sim.faults import FaultConfig
from repro.sim.job import Job
from repro.sim.metrics import RunMetrics


@dataclass(frozen=True)
class EpisodeStats:
    """Bookkeeping of one training episode."""

    episode: int
    phase: str
    num_jobs: int
    train_reward: float
    validation_reward: float
    updates_done: int


@dataclass
class TrainingHistory:
    """Episode statistics of a training run; no weights.

    The trained weights are the agent's own, and the per-episode record
    of them is the trainer's ``checkpoint_path``; the best-validating
    episode's weights are not kept.
    """

    episodes: list[EpisodeStats] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: list[dict]) -> "TrainingHistory":
        """The history an agent file's training record describes."""
        return cls([EpisodeStats(**record) for record in records])

    @property
    def validation_curve(self) -> np.ndarray:
        return np.array([e.validation_reward for e in self.episodes])

    def converged_at(self) -> int | None:
        """First episode where the validation reward plateaus.

        The curve is considered converged at episode ``i`` when the last
        five validation rewards vary by at most 5% of their mean
        magnitude.  Returns ``None`` if the curve never converges.
        """
        window, rel_tol = 5, 0.05
        curve = self.validation_curve
        for i in range(window - 1, curve.size):
            chunk = curve[i - window + 1 : i + 1]
            scale = max(abs(float(np.mean(chunk))), 1e-12)
            if float(np.ptp(chunk)) <= rel_tol * scale:
                return i
        return None


class _QueueLoad:
    """Observer: the wait-queue depth each scheduling instance opens with.

    ``last`` is the latest sample; ``min`` / ``max`` are ``None`` until
    the first instance.
    """

    __slots__ = ("last", "min", "max")

    def __init__(self) -> None:
        self.last = 0
        self.min: int | None = None
        self.max: int | None = None

    def on_schedule_begin(self, view: SchedulingView) -> None:
        """Sample the depth the policy is about to see."""
        depth = self.last = view.queue_depth
        if self.min is None or depth < self.min:
            self.min = depth
        if self.max is None or depth > self.max:
            self.max = depth


class Trainer:
    """Trains a DRAS (or Decima) agent over a sequence of jobsets.

    Parameters
    ----------
    agent:
        An agent exposing ``schedule`` plus ``train`` / ``eval`` mode
        toggles, ``state_dict`` and ``learning_stats`` (DRASPG,
        DRASDQL, DecimaPG).
    num_nodes:
        System size for the simulated cluster.
    validation_jobs:
        The unseen jobset scored after every episode (§IV-D uses one
        held-out month).  Without it, validation rewards are NaN.
    telemetry:
        The training log, a :class:`~repro.obs.live.SnapshotWriter`
        (source ``"train"``).  The trainer appends each episode's
        record (see below) itself, so a failed write raises out of
        :meth:`train`, an episode's record is on disk before the agent
        file is written (a resume cuts the log back to the file's
        episodes), and a ``nan_grad`` record is on disk before
        :func:`~repro.rl.telemetry.raise_hard_anomalies` raises.
    checkpoint_path:
        When set, the agent file (:func:`repro.core.persistence.save_agent`,
        with this run's history and faults as its training
        record) is written atomically after every completed episode.
        Resume by loading it
        (:func:`~repro.core.persistence.load_checkpoint`) and passing
        the restored agent and :meth:`TrainingHistory.from_records` of
        its episodes back into :meth:`train` (``train --out FILE
        --resume`` on the CLI); ``repro simulate --agent`` reads the
        same file.
    faults:
        Optional :class:`~repro.sim.faults.FaultConfig`: training
        episodes run under fault injection (the fault seed is offset by
        the episode index so every episode sees a fresh but
        reproducible fault schedule); validation always replays the
        base seed so scores stay comparable across episodes.

    After every completed episode, watched or not, the trainer builds
    one record, ``kind="train"`` with ``seq = episode + 1``: the
    episode's rewards, its queue depth and utilization, and the agent's
    :meth:`~repro.core.agent.HierarchicalAgent.learning_stats` (its
    fields are tabled in ``docs/observability.md``, "Training log").
    The sinks decide only where it goes: the current live bus
    (:func:`repro.obs.trace.channels`, which its episodes' engines
    publish to as well), if any, and the ``telemetry`` log, if set.
    Nothing in the record feeds back into training, so an observed run
    is bit-identical to a dark one.
    """

    def __init__(
        self,
        agent,
        num_nodes: int,
        validation_jobs: list[Job] | None = None,
        telemetry: "_live.SnapshotWriter | None" = None,
        checkpoint_path: str | Path | None = None,
        faults: FaultConfig | None = None,
    ) -> None:
        self.agent = agent
        self.num_nodes = num_nodes
        self.validation_jobs = validation_jobs
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.faults = faults
        #: the training log (None: no records are written)
        self.telemetry = telemetry
        self._records: list[dict[str, Any]] = []
        self._episode_load: dict[str, Any] = {}
        self._episode_wall_s = 0.0

    def _episode_faults(self, episode: int) -> FaultConfig | None:
        """Per-episode fault config: base seed offset by episode index."""
        if self.faults is None:
            return None
        return dataclasses.replace(self.faults,
                                   seed=self.faults.seed + episode)

    # -- single pieces -----------------------------------------------------------
    def run_episode(self, jobset: list[Job], episode: int = 0) -> float:
        """One training episode; returns the total collected reward."""
        self.agent.train()
        meter = RewardMeter(self.agent.reward_fn)
        load = _QueueLoad()
        engine = Engine(
            Cluster(self.num_nodes),
            self.agent,
            [j.copy_fresh() for j in jobset],
            observers=[meter, load],
            faults=self._episode_faults(episode),
        )
        start = _perf_counter()
        with _trace.span("train.episode", jobs=len(jobset)):
            result = engine.run()
        self._episode_wall_s = _perf_counter() - start
        self._episode_load = {
            "instances": engine.num_instances,
            "queue_depth": load.last,
            "queue_depth_min": load.min,
            "queue_depth_max": load.max,
            "utilization": RunMetrics.from_result(result).utilization,
        }
        return meter.total

    def validate(self) -> float:
        """Score the frozen current policy on the validation jobset."""
        if self.validation_jobs is None:
            return float("nan")
        was_learning = self.agent.learning
        self.agent.eval(online_learning=False)
        meter = RewardMeter(self.agent.reward_fn)
        engine = Engine(
            Cluster(self.num_nodes),
            self.agent,
            [j.copy_fresh() for j in self.validation_jobs],
            observers=[meter],
            faults=self.faults,
        )
        with _trace.span("train.validate", jobs=len(self.validation_jobs)):
            engine.run()
        self.agent.learning = was_learning
        return meter.total

    # -- full loop ------------------------------------------------------------------
    def train(
        self,
        jobsets: list[tuple[str, list[Job]]],
        history: TrainingHistory | None = None,
    ) -> TrainingHistory:
        """Train over ``(phase_name, jobset)`` pairs in order.

        When ``history`` already holds ``k`` episodes (a checkpoint
        resume), the first ``k`` jobsets are skipped: they were
        completed by the interrupted run and their effects live in the
        restored agent state.  The trained model is the agent: no
        snapshot is taken, on return or during the run.
        """
        history = history or TrainingHistory()
        done = len(history.episodes)
        if done > len(jobsets):
            raise ValueError(
                f"history already has {done} episodes but only "
                f"{len(jobsets)} jobsets were supplied"
            )
        live = _trace.channels().live
        for phase, jobset in jobsets[done:]:
            episode = len(history.episodes)
            train_reward = self.run_episode(jobset, episode=episode)
            val_reward = self.validate()
            updates = getattr(self.agent, "updates_done", 0)
            history.episodes.append(EpisodeStats(
                episode=episode,
                phase=phase,
                num_jobs=len(jobset),
                train_reward=train_reward,
                validation_reward=val_reward,
                updates_done=updates,
            ))
            self._record_episode(live, history.episodes[-1], len(jobsets))
            if self.checkpoint_path is not None:
                self._write_checkpoint(history)
        return history

    def _write_checkpoint(self, history: TrainingHistory) -> None:
        """Atomically persist a resumable checkpoint of the run so far."""
        assert self.checkpoint_path is not None
        save_agent(self.agent, self.checkpoint_path, history,
                   faults=self.faults)
        tracer = _trace.channels().tracer
        if tracer is not None:
            tracer.event("train.checkpoint",
                         episode=len(history.episodes) - 1,
                         path=str(self.checkpoint_path))

    def _record_episode(self, live: "_live.LiveBus | None",
                        stats: EpisodeStats, total: int) -> None:
        """Build one episode's record; publish it, log it, escalate.

        The record is flushed to the log *before*
        :func:`~repro.rl.telemetry.raise_hard_anomalies` runs, so when a
        non-finite learning signal aborts training under
        ``REPRO_SANITIZE=1`` the evidence is already on disk.
        """
        done = stats.episode + 1
        record: dict[str, Any] = {
            "schema": _live.LIVE_SCHEMA,
            "kind": "train",
            "seq": done,
            "wall": _perf_counter(),
            "episode": stats.episode,
            "phase": stats.phase,
            "num_jobs": stats.num_jobs,
            "train_reward": stats.train_reward,
            "validation_reward": stats.validation_reward,
            "updates_done": stats.updates_done,
            "episode_wall_s": self._episode_wall_s,
            "done": done,
            "total": total,
        }
        if done >= total:
            record["final"] = True
        record.update(self.agent.learning_stats())
        record.update(self._episode_load)
        flags = _telemetry.detect_anomalies(record, self._records)
        record["anomalies"] = flags
        self._records.append(record)
        if live is not None:
            live.publish("train", record)
        if self.telemetry is not None:
            self.telemetry.append(record)
            _telemetry.raise_hard_anomalies(flags, record)
