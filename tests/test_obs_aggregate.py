"""Reading a live log back: lenient reads, per-kind aggregation, crash
durability.

:func:`repro.obs.live.read_log` is the one reader of a run's
``log.jsonl``; ``repro report DIR`` renders its summary as the "Live
log" card.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.live import LIVE_SCHEMA, LiveBus, SnapshotWriter, read_log
from repro.obs.report import render_report

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
        log = read_log(path)
        assert log["source"] == "a0" and log["schema"] == LIVE_SCHEMA
        assert log["skipped"] == 0
        sim = log["kinds"]["sim"]
        assert sim["snapshots"] == 1 and sim["sources"] == ["a0"]
        assert sim["last"]["done"] == 1

    def test_truncated_tail_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "a.jsonl"
        _write_shard(path, "a0", [("sim", {"done": 1, "total": 4}),
                                  ("sim", {"done": 2, "total": 4})])
        lines = path.read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)                      # simulate a mid-write kill
        log = read_log(path)
        assert log["skipped"] == 1
        # the intact prefix survives
        assert log["kinds"]["sim"]["snapshots"] == 1
        assert log["kinds"]["sim"]["last"]["done"] == 1

    def test_shard_without_meta_uses_basename_source(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text(json.dumps({"type": "snapshot", "kind": "sim",
                                    "seq": 1, "done": 1}) + "\n")
        log = read_log(path)
        assert log["source"] == "bare.jsonl" and log["schema"] is None
        assert log["kinds"]["sim"]["sources"] == ["bare.jsonl"]

    def test_non_object_lines_are_skipped(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('[1, 2]\nnot json\n\n')
        log = read_log(path)
        assert log["kinds"] == {} and log["train"] == []
        assert log["skipped"] == 2


class TestMergeShards:
    def _log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_shard(path, "a0", [
            ("sim", {"done": 1, "total": 4, "t": 10.0}),
            ("sweep", {"done": 1, "total": 2, "cell": 1}),
            ("sim", {"done": 3, "total": 4, "t": 30.0}),
            ("sim", {"done": 2, "total": 4, "t": 20.0, "source": "b0"})])
        return path

    def test_merge_is_order_independent(self, tmp_path):
        # every reduction keys on seq or is commutative, so the line
        # order of the snapshots does not change the summary
        path = self._log(tmp_path)
        head, *rows = path.read_text().splitlines(keepends=True)
        flipped = tmp_path / "flipped.jsonl"
        flipped.write_text(head + "".join(reversed(rows)))
        forward = json.dumps(read_log(path)["kinds"], sort_keys=True)
        backward = json.dumps(read_log(flipped)["kinds"], sort_keys=True)
        assert forward == backward

    def test_rollup_shape_and_reductions(self, tmp_path):
        log = read_log(self._log(tmp_path))
        assert list(log["kinds"]) == ["sim", "sweep"]
        sim = log["kinds"]["sim"]
        assert sim["snapshots"] == 3
        assert sim["sources"] == ["a0", "b0"]
        # the highest seq is the last: seq 3 (done 2), not the largest done
        assert sim["last"]["seq"] == 3 and sim["last"]["done"] == 2
        assert sim["fields"]["t"] == {"min": 10.0, "max": 30.0}
        assert "seq" not in sim["fields"] and "wall" not in sim["fields"]
        assert log["kinds"]["sweep"]["last"]["done"] == 1
        assert log["kinds"]["sweep"]["fields"]["cell"] == {"min": 1,
                                                           "max": 1}

    def test_telemetry_episode_shards_merge_as_train(self, tmp_path):
        # a resumed training log: the trainer numbers its records
        # seq = episode + 1, so the cut-and-continued log still reads
        # to the final episode
        path = tmp_path / "train.jsonl"
        with SnapshotWriter(path, source="train") as log:
            log.append({"kind": "train", "seq": 1, "episode": 0,
                        "train_reward": -1.5, "done": 1, "total": 2})
            log.append({"kind": "train", "seq": 2, "episode": 1,
                        "train_reward": 7.0, "done": 2, "total": 2})
        with SnapshotWriter(path, source="train", resume_after=1) as log:
            log.append({"kind": "train", "seq": 2, "episode": 1,
                        "train_reward": -1.0, "done": 2, "total": 2})
        read = read_log(path)
        assert [r["episode"] for r in read["train"]] == [0, 1]
        train = read["kinds"]["train"]
        assert train["snapshots"] == 2 and train["sources"] == ["train"]
        assert train["last"]["episode"] == 1
        assert (train["last"]["done"], train["last"]["total"]) == (2, 2)
        assert train["fields"]["train_reward"] == {"min": -1.5, "max": -1.0}

    def test_non_numeric_seq_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "a.jsonl"
        _write_shard(path, "a0", [("sim", {"done": 1, "total": 4})])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type":"snapshot","kind":"sim","seq":"x","done":9}\n')
        log = read_log(path)
        assert log["skipped"] == 1
        sim = log["kinds"]["sim"]
        assert sim["snapshots"] == 1 and sim["last"]["done"] == 1
        assert sim["fields"]["done"] == {"min": 1, "max": 1}

    def test_null_episode_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "train.jsonl"
        lines = [{"type": "meta", "schema": LIVE_SCHEMA, "source": "t0"},
                 {"type": "snapshot", "kind": "train", "seq": 1,
                  "episode": 0, "train_reward": -1.5},
                 {"type": "snapshot", "kind": "train", "seq": None,
                  "episode": None, "train_reward": 9.0}]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        log = read_log(path)
        assert log["skipped"] == 1
        assert [r["episode"] for r in log["train"]] == [0]
        train = log["kinds"]["train"]
        assert train["snapshots"] == 1
        assert train["fields"]["train_reward"] == {"min": -1.5, "max": -1.5}
        # the report renders what was read, the unusable row left out
        assert "Training telemetry" in render_report(telemetry=log["train"])

    def test_format_rollup_smoke(self, tmp_path):
        html = render_report(log=read_log(self._log(tmp_path)))
        assert "<h2>Live log</h2>" in html
        assert "Snapshots per kind (0 skipped line(s))" in html
        assert ("<tr><td>sim</td><td>3</td><td>a0, b0</td><td>2</td>"
                "<td>4</td></tr>") in html
        assert "<tr><td>sim</td><td>t</td><td>10</td><td>30</td></tr>" \
            in html


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
        """kill -9 mid-publish must leave a readable prefix."""
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
        log = read_log(shard)
        assert log["source"] == "victim"
        assert log["skipped"] <= 1                  # at most one torn line
        sim = log["kinds"]["sim"]
        assert sim["snapshots"] >= 5                # flushed prefix survives
        assert sim["sources"] == ["victim"]
        assert sim["last"]["done"] >= 5
