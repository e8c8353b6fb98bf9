"""Perf-benchmark harness behind ``python -m repro bench``.

Times the hot paths every future optimization PR will fight over —
the engine event loop (fault-free and under fault injection),
EASY-backfill candidate filtering, conservative free-capacity profile
queries, batched NN window scoring and the vectorized NN train step —
on fixed seeded workloads, and writes machine-readable baselines:

* ``BENCH_sim.json`` — simulator benchmarks (``events_per_s``);
* ``BENCH_nn.json`` — network benchmarks (``steps_per_s``).

Each per-benchmark entry records
``{name, reps, wall_s, events_per_s | steps_per_s, seed, git_sha}``
plus an ``extra`` block of workload parameters, and each file embeds a
:class:`~repro.obs.manifest.RunManifest`.  Committed baselines at the
repo root give every later PR a regression trajectory — compare with
``scripts/check_bench_regression.py`` or ``pytest -m bench``
(see ``docs/benchmarks.md``).

Wall timings use ``time.perf_counter()``; throughput numbers are
machine-dependent, which is why comparisons apply a relative tolerance.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.obs.manifest import RunManifest, git_sha

#: schema tag stamped into every BENCH_*.json document
BENCH_SCHEMA = "repro.bench/v1"


@dataclass(frozen=True)
class BenchResult:
    """Outcome of one benchmark: identity, effort and throughput."""

    name: str
    reps: int
    wall_s: float
    rate_key: str      #: ``"events_per_s"`` or ``"steps_per_s"``
    rate: float
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self, seed: int, sha: str) -> dict[str, Any]:
        """The per-benchmark JSON entry (acceptance schema)."""
        return {
            "name": self.name,
            "reps": self.reps,
            "wall_s": self.wall_s,
            self.rate_key: self.rate,
            "seed": seed,
            "git_sha": sha,
            "extra": dict(self.extra),
        }


# -- simulator benchmarks ------------------------------------------------------

def _suite_rng(seed: int, rng: np.random.Generator | None) -> np.random.Generator:
    """The injected generator, or one derived from the explicit seed.

    Every workload draw in this module flows through a generator that
    enters here — either threaded down from :func:`run_suite` (one
    generator for the whole suite) or derived once at a public bench
    entry point.  No helper re-derives its own stream (RPR601 idiom).
    """
    return rng if rng is not None else np.random.default_rng(seed)


def _theta_jobs(num_nodes: int, n_jobs: int, rng: np.random.Generator) -> list:
    """Theta-like jobset drawn from ``rng``, reused (via copies) across reps."""
    from repro.workload.models import ThetaModel

    model = ThetaModel.scaled(num_nodes)
    return model.generate(n_jobs, rng)


def bench_engine_throughput(
    seed: int = 0,
    quick: bool = False,
    trace_to_null: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Engine event-loop throughput under FCFS/EASY on a Theta-like trace.

    Counts two events per job (SUBMIT + FINISH); the rate is events
    drained per wall-clock second, including queue management, the
    policy call and metric upkeep.  With ``trace_to_null`` a tracer
    writing to ``os.devnull`` is attached, measuring the enabled-path
    tracing cost (the default measures the disabled path).
    """
    from repro.schedulers.fcfs import FCFSEasy
    from repro.sim.engine import run_simulation

    num_nodes = 64
    n_jobs = 300 if quick else 2000
    reps = 1 if quick else 3
    jobs = _theta_jobs(num_nodes, n_jobs, _suite_rng(seed, rng))

    tracer = None
    if trace_to_null:
        from repro.obs.trace import Tracer

        tracer = Tracer(open(os.devnull, "w", encoding="utf-8"))

    wall = 0.0
    events = 0
    try:
        for _ in range(reps):
            fresh = [j.copy_fresh() for j in jobs]
            t0 = time.perf_counter()
            result = run_simulation(num_nodes, FCFSEasy(), fresh, trace=tracer)
            wall += time.perf_counter() - t0
            events += 2 * len(result.jobs)
    finally:
        if tracer is not None:
            tracer.close()

    name = "engine-throughput-traced" if trace_to_null else "engine-throughput"
    return BenchResult(
        name=name,
        reps=reps,
        wall_s=wall,
        rate_key="events_per_s",
        rate=events / wall if wall > 0 else 0.0,
        extra={"num_nodes": num_nodes, "n_jobs": n_jobs, "policy": "fcfs"},
    )


def bench_engine_live(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Engine throughput with the live-telemetry bus enabled.

    Same workload as :func:`bench_engine_throughput` but watched by a
    :class:`~repro.obs.live.LiveBus` carrying a progress sink and a
    snapshot-shard writer, both pointed at the null device — the
    enabled-path cost of the live view (snapshot building, stamping,
    fan-out, line rendering, JSONL serialization) without terminal or
    disk variance.  The cadence is densified (one snapshot per 100
    events instead of the default 2000) and the progress rate-limit
    disabled so every publish renders; the measured overhead is an
    upper bound on what ``--live`` costs at default settings.
    """
    from repro.obs.live import LiveBus, ProgressSink, SnapshotWriter
    from repro.schedulers.fcfs import FCFSEasy
    from repro.sim.engine import run_simulation

    num_nodes = 64
    n_jobs = 300 if quick else 2000
    reps = 1 if quick else 3
    live_every = 100
    jobs = _theta_jobs(num_nodes, n_jobs, _suite_rng(seed, rng))

    null_stream = open(os.devnull, "w", encoding="utf-8")
    wall = 0.0
    events = 0
    try:
        for _ in range(reps):
            bus = LiveBus()
            bus.attach(ProgressSink(null_stream, min_interval_s=0.0))
            bus.attach(SnapshotWriter(os.devnull, source="bench"))
            fresh = [j.copy_fresh() for j in jobs]
            t0 = time.perf_counter()
            result = run_simulation(num_nodes, FCFSEasy(), fresh,
                                    live=bus, live_every=live_every)
            wall += time.perf_counter() - t0
            bus.close()
            events += 2 * len(result.jobs)
    finally:
        null_stream.close()
    return BenchResult(
        name="engine-throughput-live",
        reps=reps,
        wall_s=wall,
        rate_key="events_per_s",
        rate=events / wall if wall > 0 else 0.0,
        extra={"num_nodes": num_nodes, "n_jobs": n_jobs, "policy": "fcfs",
               "live_every": live_every},
    )


def bench_engine_faulted(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Engine throughput with fault injection enabled.

    Same workload shape as :func:`bench_engine_throughput` but with a
    :class:`~repro.sim.faults.FaultConfig` producing dozens of node
    failures and job kills per run, exercising the fail/repair/kill
    handlers, requeue bookkeeping and the per-node availability mask.
    The fault rate is deliberately moderate: aggressive MTBFs stretch
    the drain phase (killed work is redone on a degraded machine),
    which would measure workload inflation rather than handler cost.
    Events counted include the fault events (failures, repairs, kills)
    on top of SUBMIT/FINISH, so the rate is comparable but not
    identical to the fault-free benchmark.
    """
    from repro.schedulers.fcfs import FCFSEasy
    from repro.sim.engine import run_simulation
    from repro.sim.faults import FaultConfig

    num_nodes = 64
    n_jobs = 300 if quick else 1000
    reps = 1 if quick else 3
    jobs = _theta_jobs(num_nodes, n_jobs, _suite_rng(seed, rng))
    faults = FaultConfig(mtbf=10_000.0, mttr=1500.0, blade_size=4,
                         blade_prob=0.2, job_kill_mtbf=50_000.0,
                         seed=seed, requeue="requeue-front")

    wall = 0.0
    events = 0
    for _ in range(reps):
        fresh = [j.copy_fresh() for j in jobs]
        t0 = time.perf_counter()
        result = run_simulation(num_nodes, FCFSEasy(), fresh, faults=faults)
        wall += time.perf_counter() - t0
        res = result.resilience
        events += 2 * len(result.jobs) + 2 * res.node_failures + res.jobs_killed
    return BenchResult(
        name="engine-throughput-faulted",
        reps=reps,
        wall_s=wall,
        rate_key="events_per_s",
        rate=events / wall if wall > 0 else 0.0,
        extra={"num_nodes": num_nodes, "n_jobs": n_jobs, "policy": "fcfs",
               "mtbf": faults.mtbf, "mttr": faults.mttr},
    )


def _loaded_cluster(num_nodes: int, rng: np.random.Generator):
    """A cluster with staggered running jobs and a blocked head job."""
    from repro.sim.cluster import Cluster
    from repro.sim.job import Job

    cluster = Cluster(num_nodes)
    running = []
    used = 0
    job_id = 1_000_000  # out of the way of auto ids
    while used + 8 <= num_nodes - 4:
        job = Job(size=8, walltime=float(rng.integers(600, 7200)),
                  runtime=600.0, submit_time=0.0, job_id=job_id)
        cluster.allocate(job, 0.0)
        running.append(job)
        used += 8
        job_id += 1
    blocked = Job(size=num_nodes // 2, walltime=3600.0, runtime=3600.0,
                  submit_time=0.0, job_id=job_id)
    return cluster, running, blocked


def bench_backfill(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """EASY reservation + candidate filtering over a 50-job pool.

    One "event" is one ``reserve`` + ``candidates`` round against a
    loaded 64-node cluster, the per-instance work a backfilling policy
    adds on top of the raw event loop.
    """
    from repro.sim.backfill import BackfillPlanner
    from repro.sim.job import Job

    rng = _suite_rng(seed, rng)
    cluster, _, blocked = _loaded_cluster(64, rng)
    planner = BackfillPlanner(cluster)
    pool = [
        Job(size=int(rng.integers(1, 9)), walltime=float(rng.integers(300, 14400)),
            runtime=300.0, submit_time=0.0, job_id=2_000_000 + i)
        for i in range(50)
    ]
    reps = 500 if quick else 20_000
    t0 = time.perf_counter()
    n_candidates = 0
    for _ in range(reps):
        reservation = planner.reserve(blocked, 0.0)
        n_candidates += len(planner.candidates(pool, reservation, 0.0))
    wall = time.perf_counter() - t0
    return BenchResult(
        name="backfill-plan",
        reps=reps,
        wall_s=wall,
        rate_key="events_per_s",
        rate=reps / wall if wall > 0 else 0.0,
        extra={"num_nodes": 64, "pool_size": len(pool),
               "mean_candidates": n_candidates / reps},
    )


def bench_conservative_profile(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Conservative-backfilling profile build + query + reserve cycle.

    One "event" is one ``earliest_start`` + ``reserve`` pair on a
    :class:`~repro.sim.profile.ResourceProfile` rebuilt from a loaded
    cluster — the inner loop of ``ConservativeBackfill``.
    """
    from repro.sim.profile import ResourceProfile

    rng = _suite_rng(seed, rng)
    cluster, _, _ = _loaded_cluster(64, rng)
    requests = [
        (int(rng.integers(1, 17)), float(rng.integers(300, 7200)))
        for _ in range(16)
    ]
    reps = 100 if quick else 2_000
    queries = 0
    t0 = time.perf_counter()
    for _ in range(reps):
        profile = ResourceProfile.from_cluster(cluster, 0.0)
        for size, duration in requests:
            start = profile.earliest_start(size, duration)
            profile.reserve(start, size, duration)
            queries += 1
    wall = time.perf_counter() - t0
    return BenchResult(
        name="conservative-profile",
        reps=reps,
        wall_s=wall,
        rate_key="events_per_s",
        rate=queries / wall if wall > 0 else 0.0,
        extra={"num_nodes": 64, "requests_per_rep": len(requests)},
    )


def bench_cluster_release_query(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """EASY reservation query + node-pool update, up to paper scale.

    One "event" is one ``reservation_point`` for a blocked half-machine
    job followed by one ``allocate`` / ``release`` pair — a scheduling
    instance's traffic on the cluster's release-time index — on loaded
    64-, 4,360- (Theta) and 12,076-node (Cori) clusters.  The headline
    rate pools the three sizes; ``extra`` carries each size's own.
    """
    from repro.sim.job import Job

    rng = _suite_rng(seed, rng)
    sizes = (64, 4360, 12076)
    reps = 200 if quick else 5_000
    filler = Job(size=4, walltime=3600.0, runtime=600.0, submit_time=0.0,
                 job_id=3_000_000)
    wall = 0.0
    by_nodes = {}
    for num_nodes in sizes:
        cluster, _, blocked = _loaded_cluster(num_nodes, rng)
        t0 = time.perf_counter()
        for _ in range(reps):
            cluster.reservation_point(blocked.size, 0.0)
            cluster.allocate(filler, 0.0)
            cluster.release(filler)
        elapsed = time.perf_counter() - t0
        wall += elapsed
        by_nodes[str(num_nodes)] = reps / elapsed if elapsed > 0 else 0.0
    return BenchResult(
        name="cluster-release-query",
        reps=reps * len(sizes),
        wall_s=wall,
        rate_key="events_per_s",
        rate=reps * len(sizes) / wall if wall > 0 else 0.0,
        extra={"num_nodes": list(sizes), "events_per_s_by_nodes": by_nodes},
    )


# -- NN benchmarks -------------------------------------------------------------

#: minibatch of the per-decision NN benchmarks (the DRAS window shape)
NN_BATCH = 8

#: minibatch of the ``*-batched`` NN benchmarks (episode-level batching)
NN_BATCH_LARGE = 64


def _bench_network(rng: np.random.Generator, batch: int = NN_BATCH):
    """A mid-size DRAS network + batched input for the NN benchmarks."""
    from repro.nn.network import build_dras_network

    rows, hidden1, hidden2, outputs = 280, 512, 128, 20
    net = build_dras_network(rows, hidden1, hidden2, outputs, rng=rng)
    x = rng.normal(size=(batch, rows, 2))
    return net, x, {"rows": rows, "hidden1": hidden1, "hidden2": hidden2,
                    "outputs": outputs, "batch": batch}


def bench_nn_forward(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Forward passes per second through the five-layer DRAS network.

    One "step" is one whole-batch forward (batch 8) — the per-decision
    window scoring a DRAS agent performs.  Comparable across the
    batched refactor: the rate counts forward *calls*, not samples.
    """
    net, x, shape = _bench_network(_suite_rng(seed, rng))
    reps = 30 if quick else 300
    t0 = time.perf_counter()
    for _ in range(reps):
        net.forward(x)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="nn-forward",
        reps=reps,
        wall_s=wall,
        rate_key="steps_per_s",
        rate=reps / wall if wall > 0 else 0.0,
        extra=shape,
    )


def bench_nn_forward_batched(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Windows scored per second through one large batched forward.

    The serving-path benchmark: ``score_window`` stacks many concurrent
    windows into a ``[64, rows, 2]`` matrix and scores them with one
    matmul per layer.  The rate counts *windows* (samples) per second —
    ``reps * batch / wall`` — so it is directly comparable to
    ``nn-forward`` times its batch.
    """
    net, x, shape = _bench_network(_suite_rng(seed, rng), batch=NN_BATCH_LARGE)
    reps = 15 if quick else 150
    t0 = time.perf_counter()
    for _ in range(reps):
        net.forward(x)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="nn-forward-batched",
        reps=reps,
        wall_s=wall,
        rate_key="steps_per_s",
        rate=reps * x.shape[0] / wall if wall > 0 else 0.0,
        extra={**shape, "rate_unit": "windows"},
    )


def bench_nn_forward_shared(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """DRAS-DQL decisions per second at Theta size (4,362 -> 4,000 -> 1,000 -> 1).

    One "step" is one ``forward(heads, shared=nodes)``: 14 candidate
    job blocks (the mean window of the paper-scale ``theta_dql_decide``
    workload) scored against the one ``[4360, 2]`` node matrix they
    share — what ``DRASDQL.select`` runs per decision.  The only NN
    bench at Table III dimensions: the first layer is one memory-bound
    GEMV over the 140 MB weight block, which the mid-size network of
    the other benches (1 MB, cache-resident) cannot show.
    """
    from repro.core.config import DRASConfig
    from repro.nn.network import build_dras_network

    rng = _suite_rng(seed, rng)
    config = DRASConfig.theta()
    dims = config.dql_dims
    net = build_dras_network(dims.rows, dims.hidden1, dims.hidden2,
                             dims.outputs, rng=rng)
    batch = 14
    heads = rng.normal(size=(batch, 2, 2))
    nodes = rng.normal(size=(config.num_nodes, 2))
    reps = 3 if quick else 30
    t0 = time.perf_counter()
    for _ in range(reps):
        net.forward(heads, shared=nodes)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="nn-forward-shared",
        reps=reps,
        wall_s=wall,
        rate_key="steps_per_s",
        rate=reps / wall if wall > 0 else 0.0,
        extra={"rows": dims.rows, "hidden1": dims.hidden1,
               "hidden2": dims.hidden2, "outputs": dims.outputs,
               "batch": batch, "shared_rows": config.num_nodes,
               "rate_unit": "decisions"},
    )


def _train_step_result(name: str, batch: int, reps: int,
                       rng: np.random.Generator) -> BenchResult:
    """Time the vectorized train step; the rate is in sample-steps/s.

    One rep is what the training core does per parameter update: one
    batched forward over ``[batch, rows, 2]``, one backward with
    gradients summed across the batch, and one Adam step.  A
    *sample-step* is one transition trained — ``reps * batch`` of them
    happen per run — matching how the DRAS trainers consume the core
    (one Adam step amortized over a stacked minibatch, never one step
    per sample).
    """
    from repro.nn.optim import Adam

    net, x, shape = _bench_network(rng, batch=batch)
    optimizer = Adam(net.parameters(), lr=1e-3)
    t0 = time.perf_counter()
    for _ in range(reps):
        out = net.forward(x)
        grad = np.ones_like(out) / out.size
        net.zero_grad()
        net.backward(grad)
        optimizer.step()
    wall = time.perf_counter() - t0
    return BenchResult(
        name=name,
        reps=reps,
        wall_s=wall,
        rate_key="steps_per_s",
        rate=reps * batch / wall if wall > 0 else 0.0,
        extra={**shape, "rate_unit": "sample-steps",
               "updates_per_s": reps / wall if wall > 0 else 0.0},
    )


def bench_nn_train_step(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Sample-steps per second through the vectorized training core.

    Forward + backward + Adam on the per-decision minibatch (batch 8).
    The rate counts *transitions trained per second* (``reps * batch /
    wall``); ``extra.updates_per_s`` keeps the raw optimizer-step rate
    for anyone comparing against pre-batched baselines, whose
    ``steps_per_s`` counted one step per update.
    """
    return _train_step_result("nn-train-step", batch=NN_BATCH,
                              reps=20 if quick else 200,
                              rng=_suite_rng(seed, rng))


def bench_nn_train_step_batched(
    seed: int = 0,
    quick: bool = False,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Sample-steps per second at episode-level batching (batch 64).

    The same vectorized train step as ``nn-train-step`` but amortizing
    each Adam step over a ``[64, rows, 2]`` stacked-transition
    minibatch — the shape of episode-level PG/DQL updates.  The gap
    between this rate and ``nn-train-step`` is the pure amortization
    win of batching updates.
    """
    return _train_step_result("nn-train-step-batched", batch=NN_BATCH_LARGE,
                              reps=10 if quick else 100,
                              rng=_suite_rng(seed, rng))


# -- suites and file output ----------------------------------------------------

SIM_BENCHES: tuple[Callable[..., BenchResult], ...] = (
    bench_engine_throughput,
    lambda seed=0, quick=False, rng=None: bench_engine_throughput(
        seed=seed, quick=quick, trace_to_null=True, rng=rng
    ),
    bench_engine_live,
    bench_engine_faulted,
    bench_backfill,
    bench_conservative_profile,
    bench_cluster_release_query,
)

NN_BENCHES: tuple[Callable[..., BenchResult], ...] = (
    bench_nn_forward,
    bench_nn_forward_batched,
    bench_nn_forward_shared,
    bench_nn_train_step,
    bench_nn_train_step_batched,
)


def run_suite(
    kind: str,
    seed: int = 0,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the ``"sim"`` or ``"nn"`` suite; returns the JSON document."""
    benches = {"sim": SIM_BENCHES, "nn": NN_BENCHES}.get(kind)
    if benches is None:
        raise ValueError(f"unknown bench suite {kind!r}; use 'sim' or 'nn'")
    sha = git_sha()
    entries = []
    # one seeded generator threaded through the whole suite: workload
    # draws continue a single stream instead of five per-function
    # default_rng(seed) re-derivations (the RPR601 injection idiom)
    rng = np.random.default_rng(seed)
    for bench in benches:
        result = bench(seed=seed, quick=quick, rng=rng)
        entries.append(result.as_dict(seed, sha))
        if progress is not None:
            progress(
                f"{result.name}: {result.rate:,.0f} {result.rate_key} "
                f"({result.reps} reps, {result.wall_s:.2f} s)"
            )
    manifest = RunManifest.create(
        kind="bench",
        seed=seed,
        config={"suite": kind, "quick": quick},
        summary={e["name"]: e.get("events_per_s") or e.get("steps_per_s")
                 for e in entries},
        sha=sha,
    )
    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "quick": quick,
        "benchmarks": entries,
        "manifest": manifest.as_dict(),
    }


def write_bench_files(
    out_dir: str | Path = ".",
    seed: int = 0,
    quick: bool = False,
    only: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[Path]:
    """Run the selected suites and write ``BENCH_<kind>.json`` files.

    ``only`` restricts to one suite (``"sim"`` or ``"nn"``); the default
    runs both.  Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kinds = (only,) if only else ("sim", "nn")
    paths = []
    for kind in kinds:
        doc = run_suite(kind, seed=seed, quick=quick, progress=progress)
        path = out_dir / f"BENCH_{kind}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        paths.append(path)
    return paths


def validate_bench_doc(doc: dict[str, Any]) -> list[str]:
    """Schema-check one BENCH document; returns a list of problems.

    An empty list means the document is valid.  Used by the smoke test
    and by ``scripts/check_bench_regression.py`` before comparing.
    """
    problems = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    if doc.get("kind") not in ("sim", "nn"):
        problems.append(f"kind is {doc.get('kind')!r}, expected 'sim' or 'nn'")
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        problems.append("benchmarks must be a non-empty list")
        benchmarks = []
    for i, entry in enumerate(benchmarks):
        where = f"benchmarks[{i}]"
        for key in ("name", "reps", "wall_s", "seed", "git_sha"):
            if key not in entry:
                problems.append(f"{where}: missing {key!r}")
        rates = [k for k in ("events_per_s", "steps_per_s") if k in entry]
        if len(rates) != 1:
            problems.append(
                f"{where}: needs exactly one of events_per_s/steps_per_s, "
                f"has {rates}"
            )
        elif not entry[rates[0]] > 0:
            problems.append(f"{where}: {rates[0]} must be positive")
        if "reps" in entry and not entry["reps"] > 0:
            problems.append(f"{where}: reps must be positive")
        if "wall_s" in entry and not entry["wall_s"] > 0:
            problems.append(f"{where}: wall_s must be positive")
    if not isinstance(doc.get("manifest"), dict):
        problems.append("manifest block missing")
    return problems
