"""Crash-safe training: checkpoint, SIGKILL, resume, same result.

The headline property (ISSUE 5): a training run SIGKILLed mid-flight
and resumed from its latest checkpoint reaches exactly the same final
validation score as an uninterrupted run with the same seed.  The
subprocess test below kills the trainer with a real ``SIGKILL`` (no
cleanup handlers run, exactly like the OOM killer) immediately after a
checkpoint write, then resumes in a fresh process.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.core.persistence import (
    CheckpointError,
    load_checkpoint,
    save_agent,
)
from repro.obs.live import read_log
from repro.rl.trainer import Trainer, TrainingHistory
from repro.sim.faults import FaultConfig
from repro.workload import ThetaModel

FAULTS = FaultConfig(mtbf=8000.0, mttr=1200.0, seed=5)


def small_setup(seed=3, episodes=6, jobs=30, nodes=32):
    cfg = DRASConfig.scaled(nodes, objective="capability", window=6,
                            time_scale=ThetaModel.MAX_RUNTIME, seed=seed)
    model = ThetaModel.scaled(nodes)
    rng = np.random.default_rng(seed)
    jobsets = [("phase", model.generate(jobs, rng)) for _ in range(episodes)]
    validation = model.generate(jobs, rng)
    return cfg, jobsets, validation


class TestInProcessResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        cfg, jobsets, validation = small_setup()
        ckpt = tmp_path / "run.ckpt.npz"

        full = Trainer(DRASPG(cfg), 32, validation_jobs=validation,
                       faults=FAULTS).train(list(jobsets))

        half = Trainer(DRASPG(cfg), 32, validation_jobs=validation,
                       faults=FAULTS, checkpoint_path=ckpt)
        half.train(list(jobsets[:3]))

        loaded = load_checkpoint(ckpt)
        assert loaded.episodes_done == 3
        assert loaded.faults == FAULTS
        history = TrainingHistory.from_records(loaded.episodes)
        resumed = Trainer(loaded.agent, 32, validation_jobs=validation,
                          faults=loaded.faults).train(list(jobsets),
                                                      history=history)

        # every field, updates_done included: the counter is restored
        assert resumed.episodes == full.episodes
        assert resumed.episodes[-1].updates_done > \
            resumed.episodes[2].updates_done > 0

    def test_rng_stream_restored_exactly(self, tmp_path):
        cfg, jobsets, validation = small_setup()
        trainer = Trainer(DRASPG(cfg), 32, validation_jobs=validation)
        trainer.train(list(jobsets[:2]))
        ckpt = tmp_path / "c.npz"
        save_agent(trainer.agent, ckpt)
        expected = trainer.agent.rng.random(8).tolist()
        restored = load_checkpoint(ckpt)
        assert restored.agent.rng.random(8).tolist() == expected

    def test_history_longer_than_jobsets_rejected(self):
        cfg, jobsets, validation = small_setup(episodes=2)
        trainer = Trainer(DRASPG(cfg), 32, validation_jobs=validation)
        done = trainer.train(list(jobsets))
        with pytest.raises(ValueError, match="episodes"):
            trainer.train(list(jobsets[:1]), history=done)

    def test_truncated_training_checkpoint_fails_loudly(self, tmp_path):
        cfg, _, _ = small_setup(episodes=1)
        ckpt = tmp_path / "c.npz"
        save_agent(DRASPG(cfg), ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)


_WORKER = '''
import dataclasses
import os
import signal
import sys

import numpy as np

sys.path.insert(0, {src!r})

from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.core.persistence import load_checkpoint
from repro.obs.live import SnapshotWriter
from repro.rl.trainer import Trainer, TrainingHistory
from repro.sim.faults import FaultConfig
from repro.workload import ThetaModel

SEED, EPISODES, JOBS, NODES = 3, 6, 30, 32
FAULTS = FaultConfig(mtbf=8000.0, mttr=1200.0, seed=5)


def setup():
    cfg = DRASConfig.scaled(NODES, objective="capability", window=6,
                            time_scale=ThetaModel.MAX_RUNTIME, seed=SEED)
    model = ThetaModel.scaled(NODES)
    rng = np.random.default_rng(SEED)
    jobsets = [("phase", model.generate(JOBS, rng)) for _ in range(EPISODES)]
    validation = model.generate(JOBS, rng)
    return cfg, jobsets, validation


class KillAfter(Trainer):
    """SIGKILLs its own process right after the Nth checkpoint write."""

    kill_after = 3

    def _write_checkpoint(self, history):
        super()._write_checkpoint(history)
        if len(history.episodes) >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)


def main():
    mode, ckpt, telemetry, out = sys.argv[1:5]
    cfg, jobsets, validation = setup()
    if mode == "full":
        trainer = Trainer(DRASPG(cfg), NODES, validation_jobs=validation,
                          faults=FAULTS,
                          telemetry=SnapshotWriter(telemetry, source="train"))
        history = trainer.train(jobsets)
    elif mode == "victim":
        trainer = KillAfter(DRASPG(cfg), NODES, validation_jobs=validation,
                            faults=FAULTS,
                            telemetry=SnapshotWriter(telemetry,
                                                     source="train"),
                            checkpoint_path=ckpt)
        trainer.train(jobsets)  # never returns: SIGKILLed mid-train
        raise SystemExit("victim was not killed")
    else:  # resume
        loaded = load_checkpoint(ckpt)
        history = TrainingHistory.from_records(loaded.episodes)
        writer = SnapshotWriter(telemetry, source="train",
                                resume_after=loaded.episodes_done)
        trainer = Trainer(loaded.agent, NODES, validation_jobs=validation,
                          faults=loaded.faults, telemetry=writer,
                          checkpoint_path=ckpt)
        history = trainer.train(jobsets, history=history)
    if trainer.telemetry is not None:
        trainer.telemetry.close()
    with open(out, "w") as fh:
        fh.write(repr([e.validation_reward for e in history.episodes]))


main()
'''


class TestSigkillResume:
    @pytest.fixture(scope="class")
    def worker(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sigkill")
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = root / "worker.py"
        script.write_text(_WORKER.format(src=src))
        return script

    def _run(self, script, mode, ckpt, telemetry, out, check=True):
        proc = subprocess.run(
            [sys.executable, str(script), mode, str(ckpt), str(telemetry),
             str(out)],
            capture_output=True, text=True, timeout=600,
        )
        if check and proc.returncode != 0:
            raise AssertionError(
                f"{mode} run failed rc={proc.returncode}:\n{proc.stderr}"
            )
        return proc

    def test_sigkilled_run_resumes_to_same_score(self, worker, tmp_path):
        ckpt = tmp_path / "run.ckpt.npz"
        out_full = tmp_path / "full.txt"
        out_resumed = tmp_path / "resumed.txt"

        self._run(worker, "full", ckpt, tmp_path / "full.jsonl", out_full)

        victim = self._run(worker, "victim", ckpt,
                           tmp_path / "t.jsonl", tmp_path / "unused.txt",
                           check=False)
        assert victim.returncode == -signal.SIGKILL, victim.stderr
        assert ckpt.exists()
        assert not (tmp_path / "unused.txt").exists()

        self._run(worker, "resume", ckpt, tmp_path / "t.jsonl", out_resumed)

        assert out_resumed.read_text() == out_full.read_text()

    def test_resumed_telemetry_has_no_duplicate_episodes(self, worker,
                                                         tmp_path):
        ckpt = tmp_path / "run.ckpt.npz"
        telemetry = tmp_path / "t.jsonl"
        self._run(worker, "victim", ckpt, telemetry, tmp_path / "u.txt",
                  check=False)
        self._run(worker, "resume", ckpt, telemetry, tmp_path / "out.txt")

        records = [json.loads(line)
                   for line in telemetry.read_text().splitlines()]
        metas = [r for r in records if r.get("type") == "meta"]
        rows = [r for r in records if r.get("kind") == "train"]
        assert len(metas) == 1
        # all six episodes, each exactly once, numbered on from the cut
        assert [r["episode"] for r in rows] == list(range(6))
        assert all(r["seq"] == r["episode"] + 1 for r in rows)
        train = read_log(telemetry)["kinds"]["train"]
        assert train["sources"] == ["train"]
        assert train["last"]["episode"] == 5
        assert (train["last"]["done"], train["last"]["total"]) == (6, 6)
