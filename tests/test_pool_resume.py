"""Crash-resume for the sweep pool: real parent SIGKILL, then resume.

The acceptance property (ISSUE 10): a sweep whose *parent* is killed
with a real ``SIGKILL`` mid-sweep (no cleanup handlers run) and then
resumed with a different worker count produces a merged rollup
byte-identical to an uninterrupted serial run of the same spec.  The
victim process kills itself from a live-bus sink the moment enough
cells have completed, exactly like an OOM kill between two scheduling
decisions of the pool loop.
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

_SCRIPT = '''
import json
import os
import signal
import sys

sys.path.insert(0, {src!r})

from repro.experiments import pool

SPEC = pool.SweepSpec(kind="selftest", scale="tiny", seed=23,
                      params={{"cells": 10, "sleep_s": 0.05}},
                      timeout_s=10.0)


class KillParentAfter:
    """Live sink that SIGKILLs the pool parent after N completed cells."""

    def __init__(self, after):
        self.after = after

    def on_snapshot(self, record):
        if record.get("kind") == "sweep" \\
                and record.get("done", 0) >= self.after:
            os.kill(os.getpid(), signal.SIGKILL)


def main():
    mode, store, out, workers = (sys.argv[1], sys.argv[2], sys.argv[3],
                                 int(sys.argv[4]))
    from repro.obs.live import LiveBus

    bus = LiveBus()
    if mode == "victim":
        bus.attach(KillParentAfter(after=3))
        pool.run_sweep(SPEC, store, workers=workers, live=bus)
        raise SystemExit("victim was not killed")
    resume = mode == "resume"
    result = pool.run_sweep(SPEC, store, workers=workers, resume=resume,
                            live=bus)
    with open(out, "w") as fh:
        json.dump({{"digest": result.digest, "resumed": result.resumed,
                   "ran": result.ran, "completed": result.completed,
                   "rollup": str(result.rollup_path)}}, fh)


main()
'''


class TestParentSigkillResume:
    @classmethod
    def setup_class(cls):
        cls.src = str(Path(__file__).resolve().parent.parent / "src")

    def _script(self, tmp_path):
        script = tmp_path / "driver.py"
        script.write_text(_SCRIPT.format(src=self.src))
        return script

    def _run(self, script, mode, store, out, workers, check=True):
        proc = subprocess.run(
            [sys.executable, str(script), mode, str(store), str(out),
             str(workers)],
            capture_output=True, text=True, timeout=600,
        )
        if check and proc.returncode != 0:
            raise AssertionError(
                f"{mode} run failed rc={proc.returncode}:\n{proc.stderr}")
        return proc

    def test_killed_parent_resumes_to_serial_bytes(self, tmp_path):
        script = self._script(tmp_path)

        # reference: uninterrupted, fully serial (workers=0)
        ref_out = tmp_path / "ref.json"
        self._run(script, "fresh", tmp_path / "ref-store", ref_out, 0)
        ref = json.loads(ref_out.read_text())

        # victim: 2 workers, parent SIGKILLed after 3 completed cells
        store = tmp_path / "store"
        victim = self._run(script, "victim", store, tmp_path / "unused",
                           2, check=False)
        assert victim.returncode == -signal.SIGKILL, victim.stderr
        assert not (tmp_path / "unused").exists()

        # the killed sweep left durable, scannable partial state behind
        scan = pool_scan(store)
        assert 0 < len(scan.completed) < 10
        assert not scan.conflicts

        # resume with a *different* worker count
        res_out = tmp_path / "res.json"
        self._run(script, "resume", store, res_out, 3)
        res = json.loads(res_out.read_text())

        assert res["resumed"] >= 3  # completed cells were skipped
        assert res["resumed"] + res["ran"] == 10
        assert res["completed"] == 10
        assert res["digest"] == ref["digest"]
        assert Path(res["rollup"]).read_bytes() \
            == Path(ref["rollup"]).read_bytes()

    def test_resume_without_flag_is_refused(self, tmp_path):
        script = self._script(tmp_path)
        store = tmp_path / "store"
        self._run(script, "victim", store, tmp_path / "u", 2, check=False)
        proc = self._run(script, "fresh", store, tmp_path / "o", 2,
                         check=False)
        assert proc.returncode != 0
        assert "resume" in proc.stderr


def pool_scan(store):
    from repro.experiments import pool

    return pool.SweepStore(store).scan()
