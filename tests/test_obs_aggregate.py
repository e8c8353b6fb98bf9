"""Shard aggregation: lenient reads, order-independent merge, crash durability."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.aggregate import (
    ROLLUP_SCHEMA,
    format_rollup,
    merge_shards,
    read_snapshots,
)
from repro.obs.live import LIVE_SCHEMA, LiveBus, SnapshotWriter

REPO = Path(__file__).resolve().parent.parent


def _write_shard(path, source, rows):
    bus = LiveBus()
    bus.attach(SnapshotWriter(path, source=source))
    for kind, fields in rows:
        bus.publish(kind, fields)
    bus.close()


class TestReadSnapshots:
    def test_round_trip_with_meta(self, tmp_path):
        path = tmp_path / "a.jsonl"
        _write_shard(path, "a0", [("sim", {"done": 1, "total": 4})])
        shard = read_snapshots(path)
        assert shard["source"] == "a0" and shard["schema"] == LIVE_SCHEMA
        assert shard["skipped"] == 0
        assert [r["done"] for r in shard["records"]] == [1]

    def test_truncated_tail_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "a.jsonl"
        _write_shard(path, "a0", [("sim", {"done": 1, "total": 4}),
                                  ("sim", {"done": 2, "total": 4})])
        lines = path.read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)                      # simulate a mid-write kill
        shard = read_snapshots(path)
        assert shard["skipped"] == 1
        assert len(shard["records"]) >= 1          # the intact prefix survives

    def test_shard_without_meta_uses_basename_source(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text(json.dumps({"type": "snapshot", "kind": "sim",
                                    "seq": 1, "done": 1}) + "\n")
        shard = read_snapshots(path)
        assert shard["source"] == "bare.jsonl" and shard["schema"] is None

    def test_non_object_lines_are_skipped(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('[1, 2]\nnot json\n\n')
        shard = read_snapshots(path)
        assert shard["records"] == [] and shard["skipped"] == 2


class TestMergeShards:
    def _two_shards(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_shard(a, "a0", [("sim", {"done": 1, "total": 4, "t": 10.0}),
                               ("sim", {"done": 3, "total": 4, "t": 30.0})])
        _write_shard(b, "b0", [("sim", {"done": 2, "total": 4, "t": 20.0}),
                               ("sweep", {"done": 1, "total": 2, "cell": 1})])
        return a, b

    def test_merge_is_order_independent(self, tmp_path):
        a, b = self._two_shards(tmp_path)
        forward = json.dumps(merge_shards([a, b]), sort_keys=True)
        backward = json.dumps(merge_shards([b, a]), sort_keys=True)
        assert forward == backward

    def test_rollup_shape_and_reductions(self, tmp_path):
        a, b = self._two_shards(tmp_path)
        rollup = merge_shards([a, b])
        assert rollup["schema"] == ROLLUP_SCHEMA
        assert [s["path"] for s in rollup["shards"]] == ["a.jsonl", "b.jsonl"]
        sim = rollup["kinds"]["sim"]
        assert sim["snapshots"] == 3
        assert sim["sources"] == ["a0", "b0"]
        # latest row per source: a0 seq=2 (done=3), b0 seq=1 (done=2)
        assert sim["last"]["a0"]["done"] == 3
        assert sim["done"] == 5 and sim["total"] == 8
        assert sim["fields"]["t"] == {"min": 10.0, "max": 30.0}
        assert rollup["kinds"]["sweep"]["done"] == 1

    def test_telemetry_episode_shards_merge_as_train(self, tmp_path):
        # a resumed training log: the trainer numbers its records
        # seq = episode + 1, so the cut-and-continued log still merges
        # to the final episode
        path = tmp_path / "train.jsonl"
        with SnapshotWriter(path, source="train") as log:
            log.append({"kind": "train", "seq": 1, "episode": 0,
                        "train_reward": -1.5, "done": 1, "total": 2})
        with SnapshotWriter(path, source="train",
                            resume_at=path.stat().st_size) as log:
            log.append({"kind": "train", "seq": 2, "episode": 1,
                        "train_reward": -1.0, "done": 2, "total": 2})
        rollup = merge_shards([path])
        train = rollup["kinds"]["train"]
        assert train["snapshots"] == 2 and train["sources"] == ["train"]
        assert train["last"]["train"]["episode"] == 1
        assert (train["done"], train["total"]) == (2, 2)
        assert train["fields"]["train_reward"] == {"min": -1.5, "max": -1.0}

    def test_non_numeric_seq_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "a.jsonl"
        _write_shard(path, "a0", [("sim", {"done": 1, "total": 4})])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type":"snapshot","kind":"sim","seq":"x","done":9}\n')
        rollup = merge_shards([path])
        assert rollup["skipped"] == 1
        assert rollup["shards"][0]["skipped"] == 1
        sim = rollup["kinds"]["sim"]
        assert sim["snapshots"] == 1 and sim["last"]["a0"]["done"] == 1

    def test_null_episode_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "train.jsonl"
        lines = [{"type": "meta", "schema": LIVE_SCHEMA, "source": "t0"},
                 {"type": "snapshot", "kind": "train", "seq": 1,
                  "episode": 0, "train_reward": -1.5},
                 {"type": "snapshot", "kind": "train", "seq": None,
                  "episode": None, "train_reward": 9.0}]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        rollup = merge_shards([path])
        assert rollup["skipped"] == rollup["shards"][0]["skipped"] == 1
        train = rollup["kinds"]["train"]
        assert train["snapshots"] == 1
        assert train["fields"]["train_reward"] == {"min": -1.5, "max": -1.5}

    def test_format_rollup_smoke(self, tmp_path):
        a, b = self._two_shards(tmp_path)
        text = format_rollup(merge_shards([a, b]))
        assert text.startswith("live rollup (repro.live-rollup/v1): 2 shard(s)")
        assert "[sim] 3 snapshot(s) from 2 source(s), done 5/8" in text
        assert text.endswith("\n")


KILLED_WRITER = """
import sys
from repro.obs.live import LiveBus, SnapshotWriter

bus = LiveBus()
bus.attach(SnapshotWriter(sys.argv[1], source="victim"))
for i in range(5):
    bus.publish("sim", {"done": i + 1, "total": 1000})
print("ready", flush=True)
while True:                       # keep publishing until killed
    bus.publish("sim", {"done": 6, "total": 1000})
"""


class TestCrashDurability:
    def test_sigkilled_writer_leaves_a_mergeable_shard(self, tmp_path):
        """kill -9 mid-publish must leave a parseable, mergeable prefix."""
        shard = tmp_path / "victim.jsonl"
        script = tmp_path / "writer.py"
        script.write_text(KILLED_WRITER)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen([sys.executable, str(script), str(shard)],
                                stdout=subprocess.PIPE, env=env, text=True)
        try:
            assert proc.stdout.readline().strip() == "ready"
            time.sleep(0.05)      # let it write mid-stream for a while
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL
        parsed = read_snapshots(shard)
        assert parsed["source"] == "victim"
        assert len(parsed["records"]) >= 5          # flushed prefix survives
        assert parsed["skipped"] <= 1               # at most one torn line
        rollup = merge_shards([shard])
        sim = rollup["kinds"]["sim"]
        assert sim["sources"] == ["victim"]
        assert sim["last"]["victim"]["done"] >= 5
