#!/usr/bin/env python3
"""End-to-end smoke test for the sweep orchestrator (CI job ``sweep``).

Exercises the fault-tolerance and determinism contract of
``repro.experiments.pool`` the way an operator would hit it
(see docs/orchestration.md):

1. **Injected failures converge**: a 2-worker ``selftest`` sweep with
   one cell that SIGKILLs its worker on first attempt and one cell
   that hangs until the per-cell timeout reaps it must produce the
   same ``results_digest`` as an uninjected serial run — retries,
   worker respawns and timeouts leave no trace in the results.
2. **Kill-and-resume parity**: a sweep whose *parent* is SIGKILLed
   mid-flight is resumed via the real CLI with a different worker
   count; the merged ``rollup.json`` must be byte-identical to an
   uninterrupted serial run's, and the store must hold one shard per
   generation (the pool parent is each shard's only writer).
3. **Real-grid parity**: a tiny ``faultsweep`` grid run serially and
   on 2 workers must produce byte-identical rollups, and
   ``repro reproduce faultsweep`` inline must print byte for byte the
   report ``repro reproduce faultsweep --workers 2`` renders.

That a worker consumes no ambient RNG, wall-clock or environment state
is checked in tier-1 by ``tests/test_ambient_perturbation.py``.

Exit code 0 on success; any failure raises (non-zero exit).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: child processes must resolve ``repro`` even when it is not
#: pip-installed (running the script from a bare checkout)
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(REPO_ROOT / "src"), ENV.get("PYTHONPATH")) if p)

from repro.experiments import pool  # noqa: E402

# the kill-and-resume spec, mirrored exactly by the CLI flags below
KR_CELLS = 10
KR_SEED = 31
KR_TIMEOUT = 15.0

_VICTIM_CODE = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.experiments import pool

class KillParentAfter:
    def __init__(self, after):
        self.after = after
    def on_snapshot(self, record):
        if record.get("kind") == "sweep" \\
                and record.get("done", 0) >= self.after:
            os.kill(os.getpid(), signal.SIGKILL)

from repro.obs.live import LiveBus
bus = LiveBus()
bus.attach(KillParentAfter(after=3))
spec = pool.SweepSpec(kind="selftest", scale="tiny", seed={seed},
                      params={{"cells": {cells}, "sleep_s": 0.05}},
                      timeout_s={timeout})
pool.run_sweep(spec, sys.argv[1], workers=2, live=bus)
raise SystemExit("victim was not killed")
"""


def _sweep_cli(store: Path, *extra: str) -> str:
    """Run ``repro reproduce selftest`` and return the printed digest."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "reproduce", "selftest",
         "--run-dir", str(store), "--scale", "tiny",
         "--seed", str(KR_SEED), "--timeout", str(KR_TIMEOUT),
         "--param", f"cells={KR_CELLS}", "--param", "sleep_s=0.05",
         *extra],
        check=True, capture_output=True, text=True, env=ENV,
    )
    for line in proc.stderr.splitlines():
        if " digest " in line:
            return line.rsplit(" digest ", 1)[1].strip()
    raise SystemExit(f"no digest line in CLI stderr:\n{proc.stderr}")


def check_injected_failures(tmp: Path) -> None:
    injected = pool.SweepSpec(
        kind="selftest", scale="tiny", seed=7,
        params={"cells": 8, "crash_once": [2], "hang_once": [5],
                "sleep_s": 0.02},
        timeout_s=5.0, retries=2)
    clean = pool.SweepSpec(kind="selftest", scale="tiny", seed=7,
                           params={"cells": 8, "sleep_s": 0.02})
    r_inj = pool.run_sweep(injected, tmp / "injected", workers=2)
    r_clean = pool.run_sweep(clean, tmp / "clean", workers=0)
    assert r_inj.completed == r_inj.total == 8, r_inj.quarantined
    d_inj = pool.results_digest(r_inj.rollup)
    d_clean = pool.results_digest(r_clean.rollup)
    assert d_inj == d_clean, \
        f"injected crash+hang changed results: {d_inj} != {d_clean}"
    print(f"injected crash+hang converged to clean results: {d_inj[:16]}…")


def check_kill_and_resume(tmp: Path) -> None:
    # uninterrupted serial reference through the real CLI
    ref_store = tmp / "kr-ref"
    ref_digest = _sweep_cli(ref_store, "--workers", "0")

    # victim: 2 workers, parent SIGKILLed after 3 completed cells
    store = tmp / "kr-store"
    code = _VICTIM_CODE.format(src=str(REPO_ROOT / "src"), seed=KR_SEED,
                               cells=KR_CELLS, timeout=KR_TIMEOUT)
    victim = subprocess.run([sys.executable, "-c", code, str(store)],
                            capture_output=True, text=True, timeout=600,
                            env=ENV)
    assert victim.returncode == -signal.SIGKILL, \
        f"victim rc={victim.returncode}:\n{victim.stderr}"
    scan = pool.SweepStore(store).scan()
    assert 0 < len(scan.completed) < KR_CELLS, len(scan.completed)
    print(f"parent SIGKILLed with {len(scan.completed)}/{KR_CELLS} "
          "cells durable")

    # resume through the CLI with a different worker count
    res_digest = _sweep_cli(store, "--workers", "3", "--resume")
    assert res_digest == ref_digest, \
        f"resumed digest diverged: {res_digest} != {ref_digest}"
    assert (store / "rollup.json").read_bytes() \
        == (ref_store / "rollup.json").read_bytes()
    shards = [p.name for p in pool.SweepStore(store).shard_paths()]
    assert shards == ["g0001.jsonl", "g0002.jsonl"], shards
    print(f"kill-and-resume rollup byte-identical to serial: "
          f"{ref_digest[:16]}…")


def check_faultsweep_parity(tmp: Path) -> None:
    spec = pool.SweepSpec(
        kind="faultsweep", scale="tiny", seed=0,
        params={"policies": ["FCFS"], "mtbf_grid": [0.0, 2000.0]})
    serial = pool.run_sweep(spec, tmp / "fs-serial", workers=0)
    par = pool.run_sweep(spec, tmp / "fs-par", workers=2)
    assert serial.completed == serial.total == 2, serial.quarantined
    assert par.rollup_path.read_bytes() == serial.rollup_path.read_bytes()
    print(f"faultsweep grid serial == 2-worker: {serial.digest[:16]}…")

    def stdout(*argv: str) -> str:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--scale", "tiny"],
            check=True, capture_output=True, text=True, env=ENV).stdout

    inline = stdout("reproduce", "faultsweep")
    swept = stdout("reproduce", "faultsweep", "--workers", "2",
                   "--run-dir", str(tmp / "fs-cli"))
    assert inline and inline == swept, "inline != 2-worker report"
    print("reproduce faultsweep inline == on 2 workers, byte for byte")


def main(tmp: Path) -> None:
    check_injected_failures(tmp)
    check_kill_and_resume(tmp)
    check_faultsweep_parity(tmp)
    print("sweep smoke OK")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-") as tmp:
        main(Path(tmp))
