"""Determinism checked by running it: the ambient-perturbation differential.

The paper ranks DRAS against its baselines on identical seeded traces,
so every output of a seeded run must be a function of its seed and
config alone.  This file checks that by running one script over each
seeded entry point — a faulted ``simulate --manifest``, a 2-episode
``train --out --checkpoint``, one ``selftest`` sweep cell on a pool
worker (``run_sweep(workers=1)``) and the manifests' ``stable_digest``
— in two child processes.  The first runs plain.  The second gets a
different ``PYTHONHASHSEED``, differently seeded and advanced global
``np.random`` / ``random`` states, a ``time.time`` a year ahead and
unrelated environment variables, all installed by a ``sitecustomize``
on its ``PYTHONPATH`` so forked or spawned pool workers inherit them.
Every digest and every ``.npz`` byte must match.

The same shim audits the environment: it records each key a
``repro.*`` frame reads from ``os.environ``, and that set must stay
within the four observability gates, which toggle instrumentation and
never results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: the only environment keys repro code may read: observability gates
GATES = {"REPRO_TRACE", "REPRO_PROFILE", "REPRO_LIVE", "REPRO_SANITIZE"}

YEAR_S = 365.0 * 86400.0

_CHILD_SCRIPT = '''
import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

import numpy as np

from repro.cli import main
from repro.experiments import pool
from repro.obs.manifest import RunManifest

FAULTS = "mtbf=3000,mttr=1500,seed=3"


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()


def file_sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trace_sha(path):
    """The trace with its one volatile field (perf-counter ``wall``) cut."""
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for record in records:
        record.pop("wall", None)
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


out = {}
run("generate", "theta", "60", "--nodes", "32", "--seed", "3",
    "--out", "t.swf")
out["generate.swf"] = file_sha("t.swf")
out["simulate.stdout"] = run(
    "simulate", "t.swf", "--nodes", "32", "--policy", "random",
    "--faults", FAULTS, "--trace-out", "sim.jsonl", "--manifest", "sim.json")
out["simulate.trace"] = trace_sha("sim.jsonl")
out["simulate.manifest"] = RunManifest.read("sim.json").stable_digest()
out["train.stdout"] = run(
    "train", "--nodes", "16", "--window", "5", "--train-jobs", "40",
    "--sampled", "0", "--real", "1", "--synthetic", "1",
    "--jobs-per-set", "20", "--faults", FAULTS,
    "--out", "agent.npz", "--checkpoint", "ckpt.npz",
    "--manifest", "train.json")
out["train.agent.npz"] = file_sha("agent.npz")
out["train.ckpt.npz"] = file_sha("ckpt.npz")
out["train.manifest"] = RunManifest.read("train.json").stable_digest()
sweep = pool.run_sweep(
    pool.SweepSpec(kind="selftest", seed=11, params={"cells": 1}),
    "store", workers=1)
out["sweep.results_digest"] = pool.results_digest(sweep.rollup)
out["sweep.rollup_digest"] = sweep.digest
ambient = {"clock": time.time(), "hash": hash("dras"),
           "np.random": float(np.random.random()),
           "random": random.random()}
print(json.dumps({"digests": out, "ambient": ambient}))
'''

_SITECUSTOMIZE = '''
"""Move every piece of ambient state a seeded run must ignore."""

import os
import random
import sys
import time

import numpy as np

_time, _time_ns = time.time, time.time_ns
time.time = lambda: _time() + {year!r}
time.time_ns = lambda: _time_ns() + {year_ns!r}

random.seed(20240229)
random.random()
np.random.seed(4242)
np.random.random(11)

_LOG = {log!r}
_PLUMBING = {{"os", "collections.abc"}}
_getitem = os._Environ.__getitem__
_seen = set()


def _audited_getitem(self, key):
    """Log ``key`` when the first caller past the mapping plumbing is repro."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") in _PLUMBING:
        frame = frame.f_back
    module = "" if frame is None else frame.f_globals.get("__name__", "")
    if module.split(".")[0] == "repro" and key not in _seen:
        _seen.add(key)
        with open(_LOG, "a") as fh:
            fh.write(key + "\\n")
    return _getitem(self, key)


os._Environ.__getitem__ = _audited_getitem
'''


def _child_env(**extra: str) -> dict[str, str]:
    """The caller's environment minus the gates that write artifacts."""
    env = {k: v for k, v in os.environ.items()
           if k not in {"REPRO_TRACE", "REPRO_PROFILE", "REPRO_LIVE"}}
    env.update({"PYTHONPATH": str(SRC), **extra})
    return env


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run the child script plain and perturbed, concurrently; parse both."""
    root = tmp_path_factory.mktemp("ambient")
    script = root / "child.py"
    script.write_text(_CHILD_SCRIPT)
    shim = root / "shim"
    shim.mkdir()
    env_log = root / "env-reads.txt"
    (shim / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
        year=YEAR_S, year_ns=int(YEAR_S) * 10**9, log=str(env_log)))
    envs = {
        "plain": _child_env(PYTHONHASHSEED="0"),
        "perturbed": _child_env(
            PYTHONHASHSEED="2718281",
            PYTHONPATH=f"{shim}{os.pathsep}{SRC}",
            TZ="Pacific/Chatham", COLUMNS="37", REPRO_SEED="99",
            DRAS_WINDOW="7", SCHEDULER_POLICY="sjf"),
    }
    procs = {}
    for name, env in envs.items():
        cwd = root / name
        cwd.mkdir()
        procs[name] = subprocess.Popen(
            [sys.executable, str(script)], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        outputs = {name: proc.communicate(timeout=300)
                   for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
    docs = {}
    for name, (stdout, stderr) in outputs.items():
        assert procs[name].returncode == 0, f"{name} child failed:\n{stderr}"
        docs[name] = json.loads(stdout.splitlines()[-1])
    reads = set(env_log.read_text().split()) if env_log.exists() else set()
    return docs["plain"], docs["perturbed"], reads


def test_perturbation_reaches_the_child(runs):
    """The shim is live: clock, hash seed and both global RNGs moved."""
    plain, perturbed, _ = runs
    a, b = plain["ambient"], perturbed["ambient"]
    assert b["clock"] - a["clock"] > 0.99 * YEAR_S
    for key in ("hash", "np.random", "random"):
        assert a[key] != b[key], key


def test_outputs_ignore_ambient_state(runs):
    """Every digest, ``.npz`` byte and sweep digest matches across the two."""
    plain, perturbed, _ = runs
    a, b = plain["digests"], perturbed["digests"]
    assert sorted(a) == sorted(b)
    moved = [key for key in sorted(a) if a[key] != b[key]]
    assert not moved, "outputs moved under ambient perturbation: " + \
        ", ".join(moved)


def test_environment_reads_are_observability_gates(runs):
    """repro reads no environment key but the four observability gates."""
    *_, reads = runs
    assert "REPRO_SANITIZE" in reads, f"the audit is not live: {sorted(reads)}"
    assert reads <= GATES, f"ambient env reads: {sorted(reads - GATES)}"
