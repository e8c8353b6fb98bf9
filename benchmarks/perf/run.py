#!/usr/bin/env python3
"""Paper-scale end-to-end benchmark of the DRAS reproduction.

    python benchmarks/perf/run.py                      # all workloads, untraced
    python benchmarks/perf/run.py --traced             # all workloads, per-layer pass
    python benchmarks/perf/run.py --workload cori_easy --seed 3
    python benchmarks/perf/run.py --smoke              # tiny sizes, both passes
    python benchmarks/perf/run.py --compare A.json B.json

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; without it every workload runs in a fresh subprocess, so
``peak_rss_mb`` is per workload and no cache crosses workloads.  See
README.md for the metrics, the workloads and how a run is shaped.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"run.py: {REPO / 'src' / 'repro'} not found; the benchmark "
             "measures the repo's own sources and cannot run without them")
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from compare import compare_files  # noqa: E402
from layers import (  # noqa: E402
    PER_LAYER, layer_metrics, observability_overheads, targets,
)
from repro.sim.metrics import RunMetrics  # noqa: E402
from spans import SpanRecorder, aggregate, patched  # noqa: E402
from validate import count_failed, sim_digest  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, WORKLOADS, DecideWorkload, EasyWorkload, Repetition, Workload,
)

#: ``(name, unit)`` of the end-to-end metrics; BENCHMARK.json adds
#: direction and regression bound to each
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("instance_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
#: a run starts from cold this many times and reports the median
SETUP_REPEATS = 3
#: timed repetitions a run makes at least, however short ``--seconds`` is
MIN_REPETITIONS = 3


def summarise(rep: Repetition, num_nodes: int, scale: float) -> dict[str, Any]:
    """Validate one repetition and reduce it to numbers.

    ``scale`` turns raw host seconds into calibrated ones (see
    calibrate.py).  Runs outside the timed region; the repetition's jobs
    and latencies can be dropped afterwards.
    """
    finished = sum(
        1 for jobs, _ in rep.runs for job in jobs if job.end_time is not None)
    wall_s = rep.wall_s * scale
    p50_s, p95_s = np.percentile(rep.latencies, [50, 95])
    updates = rep.agent.updates_done if rep.agent is not None else 0
    return {
        "wall_s_raw": rep.wall_s,
        "scale": scale,
        "wall_s": wall_s,
        # a SUBMIT and a FINISH event per finished job
        "events_per_s": 2 * finished / wall_s,
        "instance_p50_ms": 1e3 * scale * float(p50_s),
        "instance_p95_ms": 1e3 * scale * float(p95_s),
        "instances": len(rep.latencies),
        "updates_per_s": updates / wall_s,
        "jobs": rep.jobs,
        "failed": sum(count_failed(jobs, num_nodes, instances)
                      for jobs, instances in rep.runs),
        "digest": sim_digest((jobs for jobs, _ in rep.runs), rep.agent),
    }


def calibration_scale(kernel, before: float, after: float) -> float:
    """Factor from raw to calibrated seconds, from the kernel on both sides."""
    return kernel.REFERENCE_S / (0.5 * (before + after))


def calibrated(workload: Workload, kernel, state: Any) -> dict[str, Any]:
    """One repetition with the calibration kernel run on both sides."""
    before = kernel()
    rep = workload.repetition(state)
    after = kernel()
    return summarise(rep, workload.num_nodes,
                     calibration_scale(kernel, before, after))


def cold_starts(workload: Workload, kernel, seed: int
                ) -> tuple[Any, list[dict[str, Any]], float]:
    """Set up and run a first repetition :data:`SETUP_REPEATS` times.

    One cold start is everything between nothing and the end of the
    first repetition on freshly made inputs: generation, agent
    construction and first use (so lazily built state counts).  Returns
    the last state — warm, since its first repetition has run — the
    summaries of the first repetitions, and the median calibrated
    seconds of a cold start, which is ``setup_s``.
    """
    state, first_reps, seconds = None, [], []
    for _ in range(SETUP_REPEATS):
        state = None    # free the previous agent before building the next
        before = kernel()
        start = perf_counter()
        state = workload.setup(seed)
        rep = workload.repetition(state)
        elapsed = perf_counter() - start
        scale = calibration_scale(kernel, before, kernel())
        seconds.append(elapsed * scale)
        first_reps.append(summarise(rep, workload.num_nodes, scale))
        del rep
    return state, first_reps, median(seconds)


def over_repetitions(values: list[float]) -> dict[str, Any]:
    return {"value": median(values), "min": min(values), "max": max(values),
            "samples": values}


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Cold starts, then timed repetitions for ``seconds``; end-to-end metrics."""
    kernel = workload.kernel()
    state, first_reps, setup_s = cold_starts(workload, kernel, seed)
    reps = []
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPETITIONS or perf_counter() < deadline:
        reps.append(calibrated(workload, kernel, state))
    samples = {name: [rep[name] for rep in reps]
               for name in ("wall_s", "events_per_s", "instance_p50_ms")}
    samples["setup_s"] = [setup_s]
    samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    metrics = {name: {**over_repetitions(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return finish_record(workload, seed, "untraced", first_reps + reps, reps,
                         metrics)


def traced_repetition(workload: Workload, kernel, wrapped: list, state: Any
                      ) -> tuple[dict[str, float], dict[str, Any]]:
    """One repetition under the span wrappers: per-layer values, summary.

    A function of its own so that the repetition (and the 1.2 GB agent
    a training repetition holds) is gone before the next one is built.
    """
    recorder = SpanRecorder()
    before = kernel()
    with patched(recorder, wrapped):
        rep = workload.repetition(state)
    scale = calibration_scale(kernel, before, kernel())
    if rep.result is not None:
        with patched(recorder, wrapped):
            RunMetrics.from_result(rep.result)
    return (layer_metrics(recorder, rep),
            summarise(rep, workload.num_nodes, scale))


def run_traced(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Per-layer metrics from traced repetitions; never end-to-end numbers."""
    kernel = workload.kernel()
    wrapped = targets()
    recorder = SpanRecorder()
    with patched(recorder, wrapped):
        state = workload.setup(seed)
    generated = aggregate(recorder.spans).get(("workload", "generate"))
    warm_up = summarise(workload.repetition(state), workload.num_nodes, 1.0)
    reference = calibrated(workload, kernel, state)
    traced, per_rep = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        values, summary = traced_repetition(workload, kernel, wrapped, state)
        values["trace.overhead_ratio"] = summary["wall_s"] / reference["wall_s"]
        per_rep.append(values)
        traced.append(summary)
    values = {name: median(rep[name] for rep in per_rep) for name in per_rep[0]}
    values["workload.generate_s"] = generated.total_s if generated else 0.0
    values["workload.jobs"] = recorder.counts.get("workload.jobs", 0)
    values["instance_p95_ms"] = reference["instance_p95_ms"]
    values["updates_per_s"] = reference["updates_per_s"]
    if isinstance(workload, EasyWorkload) and workload.traced:
        values.update(
            observability_overheads(state, workload.num_nodes, kernel))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, _ in PER_LAYER}
    record = finish_record(workload, seed, "traced",
                           [warm_up, reference] + traced, traced, metrics)
    if isinstance(workload, DecideWorkload) and (
            values["nn.backward_calls"] or values["nn.adam_calls"]):
        record["correct"] = False   # a frozen agent must not learn
    return record


def finish_record(workload: Workload, seed: int, mode: str,
                  siblings: list[dict], counted: list[dict],
                  metrics: dict[str, dict]) -> dict[str, Any]:
    """The result record: verdict, metrics, sizes, raw repetitions.

    ``siblings`` are all repetitions whose ``sim_digest`` must agree
    (warm-up included); ``counted`` are the ones whose jobs make up
    ``ops`` / ``failed``.
    """
    digests = sorted({rep["digest"] for rep in siblings})
    failed = sum(rep["failed"] for rep in siblings)
    finite = all(math.isfinite(entry["value"]) for entry in metrics.values())
    return {
        "workload": workload.name,
        "mode": mode,
        "seed": seed,
        "correct": failed == 0 and len(digests) == 1 and finite,
        "ops": sum(rep["jobs"] for rep in counted),
        "failed": failed,
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "metrics": metrics,
        "sizes": workload.sizes(),
        "repetitions": {
            "count": len(counted),
            "wall_s_raw": [rep["wall_s_raw"] for rep in counted],
            "calibration_scale": [rep["scale"] for rep in counted],
            "instances": counted[-1]["instances"],
        },
        "env": environment(),
    }


def retain_freed_memory() -> None:
    """Make glibc keep freed memory in the heap instead of unmapping it.

    Arrays above 32 MB are otherwise mmap'd afresh on every allocation,
    and on a VM a first touch of fresh pages can cost anything from
    0.1 to 40 s per GB depending on what the hypervisor has to back —
    identical ``theta_pg_train`` repetitions ranged from 3.7 to 9.3 s.
    With the heap retained the warm-up repetition touches the pages
    once and the timed ones reuse them, which is the "let caches fill
    before timing" rule applied to the host's page cache.
    """
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        m_trim_threshold, m_mmap_max = -1, -4
        libc.mallopt(m_mmap_max, 0)
        libc.mallopt(m_trim_threshold, 2**31 - 1)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def environment() -> dict[str, Any]:
    """What two result files must share to be comparable."""
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                         capture_output=True, text=True, check=False)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def print_record(record: dict[str, Any]) -> None:
    reps = record["repetitions"]
    print(f"{record['workload']} [{record['mode']}] seed={record['seed']} "
          f"ops={record['ops']} failed={record['failed']} "
          f"correct={record['correct']} repetitions={reps['count']} "
          f"instances/rep={reps['instances']}")
    for name, entry in record["metrics"].items():
        line = f"  {name:<32} {entry['value']:>16.6g} {entry['unit']}"
        if "min" in entry and entry["min"] != entry["max"]:
            line += f"   (min {entry['min']:.6g}, max {entry['max']:.6g})"
        print(line)
    scales = reps["calibration_scale"]
    print(f"  raw wall_s median {median(reps['wall_s_raw']):.6g} s, calibration "
          f"scale {min(scales):.3f}..{max(scales):.3f}")
    print(f"  sim_digest {record['sim_digest']}")


def run_one(args: argparse.Namespace) -> int:
    """``--workload``: run in this process, end with the contract's line."""
    retain_freed_memory()
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    run = run_traced if args.trace else run_untraced
    record = run(workload, args.seed, args.seconds)
    record["smoke"] = args.smoke
    if args.out:
        Path(args.out).write_text(json.dumps({"records": [record]}, indent=1))
    print_record(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["ops"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; one combined result file."""
    passes = [0, 1] if args.smoke and args.trace is None else [args.trace or 0]
    records, status = [], 0
    out_dir = Path(args.out).resolve().parent if args.out else HERE
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        for trace in passes:
            for workload in WORKLOADS:
                part = Path(scratch) / f"{workload.name}.{trace}.json"
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", workload.name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(trace),
                           "--out", str(part)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, capture_output=True, text=True,
                                      check=False)
                # the child's last line is for the driver; the rest is the table
                print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
                if done.returncode != 0:
                    status = 1
                    print(done.stderr, file=sys.stderr)
                if part.exists():
                    records += json.loads(part.read_text())["records"]
    if args.out:
        Path(args.out).write_text(json.dumps({"records": records}, indent=1))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="how long one run measures (default: "
                        "BENCHMARK.json's run_seconds; 0.2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny node and job counts, same code paths")
    parser.add_argument("--out", help="write the result records to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.compare:
        return compare_files(*args.compare, benchmark)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else benchmark["run_seconds"]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
