"""The training log: one record per episode, anomaly flags, escalation."""

import json
import math

import numpy as np
import pytest

from repro.check.sanitize import SanitizerError, sanitizing
from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.obs.live import LIVE_SCHEMA, SnapshotWriter, read_log
from repro.rl.telemetry import (
    ANOMALY_NAN_GRAD,
    ANOMALY_REWARD_COLLAPSE,
    ANOMALY_UTILIZATION_DROP,
    detect_anomalies,
    raise_hard_anomalies,
)
from repro.rl.trainer import Trainer
from repro.workload.models import ThetaModel

NODES = 16


def _agent(seed=0, window=4):
    config = DRASConfig.scaled(
        NODES, window=window, time_scale=ThetaModel.MAX_RUNTIME, seed=seed
    )
    return DRASPG(config)


def _jobsets(n_sets=2, jobs=30, seed=0):
    model = ThetaModel.scaled(NODES)
    rng = np.random.default_rng(seed)
    return [("sampled", model.generate(jobs, rng)) for _ in range(n_sets)]


def _log(path):
    """A training log at ``path``, as ``train --run-dir DIR --live``
    opens one."""
    return SnapshotWriter(path, source="train")


def _train_rows(path):
    """The ``kind="train"`` records of a training log, in file order."""
    return read_log(path)["train"]


class TestWriterReader:
    def test_meta_line_and_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SnapshotWriter(path, source="train") as writer:
            writer.append({"kind": "train", "seq": 1, "loss": 1.5})
            writer.append({"kind": "train", "seq": 2, "loss": float("nan")})
        log = read_log(path)
        assert log["schema"] == LIVE_SCHEMA
        assert log["source"] == "train"
        rows = _train_rows(path)
        assert [r["seq"] for r in rows] == [1, 2]
        assert math.isnan(rows[1]["loss"])  # NaN survives the round trip

    def test_write_after_close_rejected(self, tmp_path):
        """The trainer writes its log itself: a write that fails raises
        out of ``train`` instead of being dropped like a bus sink's."""
        writer = SnapshotWriter(tmp_path / "t.jsonl")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            Trainer(_agent(), NODES, telemetry=writer).train(
                _jobsets(n_sets=1))

    def test_lenient_read_skips_garbage(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "log.jsonl"  # a run directory's training log
        Trainer(_agent(), NODES, telemetry=_log(path)).train(_jobsets())
        with path.open("a", encoding="utf-8") as fh:
            fh.write('not json\n[1, 2]\n{"kind": "train", "seq"')
        assert read_log(path)["skipped"] == 3
        assert [r["episode"] for r in _train_rows(path)] == [0, 1]
        assert main(["report", str(tmp_path)]) == 0
        html = tmp_path / "report.html"
        assert "Training telemetry" in html.read_text(encoding="utf-8")


class TestAnomalyDetection:
    def test_nan_grad_flagged(self):
        assert detect_anomalies({"grad_norm": float("nan")}) == [
            ANOMALY_NAN_GRAD]
        assert detect_anomalies({"loss": float("inf")}) == [ANOMALY_NAN_GRAD]
        assert detect_anomalies({"grad_norm": 1.0, "loss": 2.0}) == []

    def test_reward_collapse_needs_history(self):
        history = [{"train_reward": 10.0 + i * 0.1} for i in range(4)]
        collapsed = {"train_reward": -50.0}
        assert ANOMALY_REWARD_COLLAPSE in detect_anomalies(collapsed, history)
        normal = {"train_reward": 10.2}
        assert detect_anomalies(normal, history) == []
        # too little history: never flagged
        assert detect_anomalies(collapsed, history[:2]) == []

    def test_utilization_drop(self):
        history = [{"utilization": 0.8} for _ in range(3)]
        assert detect_anomalies({"utilization": 0.1}, history) == [
            ANOMALY_UTILIZATION_DROP]
        assert detect_anomalies({"utilization": 0.7}, history) == []

    def test_hard_escalation_only_under_sanitizer(self):
        record = {"episode": 3, "phase": "real", "loss": float("nan")}
        flags = [ANOMALY_NAN_GRAD]
        with sanitizing(True):
            with pytest.raises(SanitizerError, match="episode 3"):
                raise_hard_anomalies(flags, record)
            # soft flags never raise, sanitizer or not
            raise_hard_anomalies([ANOMALY_REWARD_COLLAPSE], record)
        with sanitizing(False):
            raise_hard_anomalies(flags, record)  # no-op when sanitizer off


class TestTrainerIntegration:
    def test_records_written_per_episode(self, tmp_path):
        path = tmp_path / "train.jsonl"
        trainer = Trainer(_agent(), NODES, telemetry=_log(path))
        trainer.train(_jobsets())
        episodes = _train_rows(path)
        assert len(episodes) == 2
        assert [(r["seq"], r["done"], r["total"]) for r in episodes] == [
            (1, 1, 2), (2, 2, 2)]
        assert "final" not in episodes[0] and episodes[1]["final"] is True
        first = episodes[0]
        assert first["phase"] == "sampled"
        assert first["num_jobs"] == 30
        assert math.isfinite(first["train_reward"])
        assert math.isfinite(first["loss"])
        assert math.isfinite(first["grad_norm"]) and first["grad_norm"] >= 0
        assert math.isfinite(first["entropy"]) and first["entropy"] >= 0
        assert 0.0 <= first["utilization"] <= 1.0
        assert first["queue_depth_max"] >= first["queue_depth"] \
            >= first["queue_depth_min"] >= 0
        assert first["instances"] > 0
        assert first["episode_wall_s"] > 0.0
        assert first["anomalies"] == []

    @pytest.mark.parametrize("kind", ["pg", "dql"])
    def test_bus_made_current_after_the_trainer_gets_the_signals(self, kind):
        """The record does not depend on what was current when the
        trainer was built: one built before its bus publishes the same
        finite learning signals as one built under it."""
        from repro.core import AGENTS
        from repro.obs.live import LiveBus
        from repro.obs.trace import sinks

        published = []

        class Sink:
            def on_snapshot(self, record):
                if record["kind"] == "train":
                    published.append(dict(record))

        config = DRASConfig.scaled(NODES, window=4,
                                   time_scale=ThetaModel.MAX_RUNTIME)
        trainer = Trainer(AGENTS[kind](config), NODES)
        bus = LiveBus()
        bus.attach(Sink())
        with sinks(live=bus):
            trainer.train(_jobsets(jobs=60))
        assert len(published) == 2
        for record in published:
            assert math.isfinite(record["loss"])
            assert math.isfinite(record["grad_norm"])
            assert math.isfinite(record["entropy"]) == (kind == "pg")

    def test_telemetry_does_not_perturb_training(self, tmp_path):
        """Telemetry is observe-only: the learned weights are identical."""
        plain = _agent(seed=7)
        Trainer(plain, NODES).train(_jobsets(seed=7))
        observed = _agent(seed=7)
        Trainer(observed, NODES,
                telemetry=_log(tmp_path / "t.jsonl")).train(_jobsets(seed=7))
        for key, value in plain.state_dict().items():
            np.testing.assert_array_equal(value, observed.state_dict()[key])

    def test_seeded_nan_raises_through_sanitizer(self, tmp_path, monkeypatch):
        """A poisoned learning signal aborts under REPRO_SANITIZE=1 with
        the evidence already durable in the training log."""
        path = tmp_path / "train.jsonl"
        agent = _agent()
        trainer = Trainer(agent, NODES, telemetry=_log(path))
        # poison the recorded loss after the first update; the gradient
        # itself stays finite so the Adam-level check does not fire first
        original = agent.core.update

        def poisoned_update():
            loss = original()
            agent.core.losses[-1] = float("nan")
            return loss

        monkeypatch.setattr(agent.core, "update", poisoned_update)
        with sanitizing(True), pytest.raises(SanitizerError,
                                             match="non-finite"):
            trainer.train(_jobsets())
        episodes = _train_rows(path)
        assert episodes, "the flagged record must be durable"
        assert ANOMALY_NAN_GRAD in episodes[-1]["anomalies"]

    def test_seeded_nan_flagged_but_not_raised_without_sanitizer(
            self, tmp_path, monkeypatch):
        path = tmp_path / "train.jsonl"
        agent = _agent()
        trainer = Trainer(agent, NODES, telemetry=_log(path))
        original = agent.core.update

        def poisoned_update():
            loss = original()
            agent.core.losses[-1] = float("nan")
            return loss

        monkeypatch.setattr(agent.core, "update", poisoned_update)
        with sanitizing(False):
            history = trainer.train(_jobsets())
        assert len(history.episodes) == 2  # training ran to completion
        episodes = _train_rows(path)
        assert all(ANOMALY_NAN_GRAD in r["anomalies"] for r in episodes)

    def test_crashed_training_leaves_readable_telemetry(self, tmp_path):
        """Per-record flushing: a crash mid-training loses nothing."""
        path = tmp_path / "train.jsonl"
        trainer = Trainer(_agent(), NODES, telemetry=_log(path))
        jobsets = _jobsets(n_sets=3)
        calls = {"n": 0}
        original = trainer.run_episode

        def crashing(jobset, episode=0):
            if calls["n"] == 2:
                raise RuntimeError("simulated crash")
            calls["n"] += 1
            return original(jobset, episode=episode)

        trainer.run_episode = crashing
        with pytest.raises(RuntimeError, match="simulated crash"):
            trainer.train(jobsets)
        # no close() ever ran, yet both completed episodes are on disk
        episodes = _train_rows(path)
        assert [r["episode"] for r in episodes] == [0, 1]
        for line in path.read_text().splitlines():
            json.loads(line)  # every line parses

    def test_queue_depth_fields_are_the_depths_schedule_begin_sees(
            self, tmp_path, monkeypatch):
        """``queue_depth`` (the last) and ``queue_depth_min/max`` are the
        depths each scheduling
        instance of the same episode opens with."""
        import repro.rl.trainer as trainer_mod

        seen = []

        class Depths:
            def on_schedule_begin(self, view):
                seen[-1].append(view.queue_depth)

        real_engine = trainer_mod.Engine

        def engine(*args, observers=(), **kwargs):
            seen.append([])
            return real_engine(*args, observers=[*observers, Depths()],
                               **kwargs)

        monkeypatch.setattr(trainer_mod, "Engine", engine)
        path = tmp_path / "t.jsonl"
        Trainer(_agent(), NODES, telemetry=_log(path)).train(_jobsets())
        episodes = _train_rows(path)
        assert len(seen) == len(episodes) == 2     # no validation engine
        for record, depths in zip(episodes, seen):
            assert record["instances"] == len(depths)
            assert max(depths) > min(depths)
            assert (record["queue_depth"], record["queue_depth_min"],
                    record["queue_depth_max"]) == (
                depths[-1], min(depths), max(depths))

    def test_live_bus_alone_publishes_learning_and_load_stats(self):
        """Without telemetry, a current live bus still gets the learning
        and load stats, and training stays bit-identical."""
        from repro.obs.live import LiveBus
        from repro.obs.trace import sinks

        class Sink:
            def __init__(self):
                self.records = []

            def on_snapshot(self, record):
                self.records.append(dict(record))

        bus = LiveBus()
        sink = bus.attach(Sink())
        watched = _agent()
        with sinks(live=bus):
            Trainer(watched, NODES).train(_jobsets())
        dark = _agent()
        Trainer(dark, NODES).train(_jobsets())
        train = [r for r in sink.records if r["kind"] == "train"]
        assert len(train) == 2
        for record in train:
            assert math.isfinite(record["grad_norm"])
            assert math.isfinite(record["entropy"])
            assert record["queue_depth"] >= 0
            assert 0.0 <= record["utilization"] <= 1.0
        for key, value in dark.state_dict().items():
            np.testing.assert_array_equal(value, watched.state_dict()[key])

    def test_bus_and_log_carry_one_record(self, tmp_path):
        """Each episode's record is built once: the log holds exactly
        what the bus published, stamped ``kind="train"`` and
        ``seq = episode + 1`` on both."""
        from repro.obs.live import LiveBus
        from repro.obs.trace import sinks

        published = []

        class Sink:
            def on_snapshot(self, record):
                if record["kind"] == "train":  # not the episodes' "sim"
                    published.append(dict(record))

        bus = LiveBus()
        bus.attach(Sink())
        path = tmp_path / "t.jsonl"
        with sinks(live=bus):
            Trainer(_agent(), NODES,
                    telemetry=_log(path)).train(_jobsets())
        logged = _train_rows(path)
        for row in logged:
            assert row.pop("type") == "snapshot"
            assert row.pop("source") == "train"
        # compared as JSON text: validation_reward is NaN here
        assert [json.dumps(r, sort_keys=True) for r in logged] == [
            json.dumps(r, sort_keys=True) for r in published]
        assert [(r["kind"], r["seq"], r["episode"]) for r in logged] == [
            ("train", 1, 0), ("train", 2, 1)]
