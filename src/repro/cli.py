"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``
    Regenerate any of the paper's tables/figures and print the report:
    the ``sweep`` of that experiment's cells, run inline.
``generate``
    Synthesize a Theta/Cori-like trace and write it as SWF.
``simulate``
    Replay an SWF trace under a named policy and print the metrics.  Bad
    input (a missing or malformed trace, a bad ``--faults`` spec, a job
    larger than ``--nodes``) is one ``bad input:`` line and exit 2.
``train``
    Train a DRAS/Decima agent with the three-phase curriculum and
    write its agent file (:func:`repro.core.persistence.save_agent`)
    to ``--out``; ``--checkpoint`` writes the same kind of file after
    every episode, and ``--resume`` continues from either.
``evaluate``
    Replay an SWF trace under the agent of an agent file (an ``--out``
    or a ``--checkpoint``).
``check``
    Lint source paths (:mod:`repro.check`) for mutable default
    arguments, exact float comparisons on simulation timestamps and
    swallowed exceptions (RPR104–RPR106), and report violations.
``report``
    Render a run directory without re-running it: ``DIR/report.html``
    from the artifacts DIR holds (:mod:`repro.obs.report`) and, for a
    sweep store, the printed report, re-rendered from its rollup.  It
    is the one reader of a run's log and trace.

``reproduce``, ``simulate`` and ``train`` accept ``--run-dir DIR`` to
keep a run's artifacts together under fixed names (``repro sweep
--store DIR`` is the same layout):

* ``manifest.json``: the :class:`~repro.obs.manifest.RunManifest` (seed,
  git SHA, config, workload parameters, summary metrics);
* ``log.jsonl``: with ``--live``, every live snapshot
  (``repro.live/v1``); for ``train`` the training log, one
  ``kind="train"`` record per episode, cut back to the checkpoint on
  ``--resume``;
* ``trace.jsonl`` (``simulate``): the structured event trace;
* ``spec.json``, ``shards/``, ``rollup.json`` and ``report.txt``
  (``reproduce``): the sweep store and the printed report.

``REPRO_TRACE=DIR/trace.jsonl`` and ``REPRO_PROFILE=DIR/profile.json``
land those files there too.  The run commands also accept ``--faults
SPEC`` to run under seeded fault injection (:mod:`repro.sim.faults`;
``reproduce`` only for the ``faultsweep`` experiment) — see
``docs/resilience.md`` — and ``--live`` for a terminal progress/ETA line
(:mod:`repro.obs.live`, also via the ``REPRO_LIVE`` env var) — see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

EXPERIMENTS = (
    "table1", "table2", "table3", "table4",
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "faultsweep", "overhead",
)

POLICIES = (
    "fcfs", "binpacking", "random", "knapsack",
    "sjf", "ljf", "saf", "wfp", "unicef", "conservative",
)


def make_policy(name: str, objective: str = "capability", seed: int = 0):
    """Instantiate a named non-learning policy."""
    from repro import schedulers as s

    factories = {
        "fcfs": s.FCFSEasy,
        "binpacking": s.BinPacking,
        "random": lambda: s.RandomScheduler(seed=seed),
        "knapsack": lambda: s.KnapsackOptimization(objective),
        "sjf": s.sjf,
        "ljf": s.ljf,
        "saf": s.smallest_area_first,
        "wfp": s.f1_wfp,
        "unicef": s.unicef,
        "conservative": s.ConservativeBackfill,
    }
    try:
        return factories[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {', '.join(POLICIES)}"
        ) from None


def parse_faults(spec: str | None):
    """``--faults mtbf=...,mttr=...,seed=...`` → :class:`FaultConfig` or None."""
    if spec is None:
        return None
    from repro.sim.faults import FaultConfig

    return FaultConfig.from_spec(spec)


#: the fixed file names of a run directory (``--run-dir DIR``, ``sweep
#: --store DIR``) besides a sweep store's own
MANIFEST, LOG, TRACE, PROFILE, REPORT = (
    "manifest.json", "log.jsonl", "trace.jsonl", "profile.json", "report.txt")


@contextlib.contextmanager
def _live_session(args: argparse.Namespace, install: bool = False,
                  shard: bool = True):
    """``--live`` → a LiveBus for the block.

    The bus shows the terminal progress/ETA line and, in a run
    directory, appends every snapshot to ``DIR/log.jsonl`` (read back
    by ``repro report DIR``) unless ``shard`` is false (``train``
    writes that log itself, as its training log).  Without ``--live``,
    yields ``None`` so components fall back to the ``REPRO_LIVE``
    process-global bus.

    ``install`` also makes the bus process-global for the block, so
    every simulation the command runs internally publishes to it.  The
    bus is closed (and uninstalled) on the way out, whatever happened.
    """
    from repro.obs import live as _live

    if not args.live:
        yield None
        return
    bus = _live.LiveBus()
    bus.attach(_live.ProgressSink())
    if args.run_dir and shard:
        record = Path(args.run_dir) / LOG
        bus.attach(_live.SnapshotWriter(record))
        print(f"live: recording snapshots to {record}", file=sys.stderr)
    if install:
        _live.set_global_live_bus(bus)
    try:
        yield bus
    finally:
        if install:
            _live.set_global_live_bus(None)
        bus.close()


def _run_dir(args: argparse.Namespace) -> Path | None:
    """``--run-dir DIR``, created, or ``None`` without the flag."""
    if args.run_dir is None:
        return None
    path = Path(args.run_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(args: argparse.Namespace, **fields) -> None:
    """Write ``DIR/manifest.json`` (:meth:`RunManifest.create` of
    ``fields``) when the run has a run directory."""
    if args.run_dir:
        from repro.obs.manifest import RunManifest

        RunManifest.create(seed=args.seed, **fields).write(
            Path(args.run_dir) / MANIFEST)


def _print_resilience(result) -> None:
    """Print the resilience block of a faulted simulation result."""
    r = result.resilience
    if r is None:
        return
    print("  -- faults --")
    print(f"  node failures   {r.node_failures} ({r.nodes_failed} nodes)")
    print(f"  jobs killed     {r.jobs_killed} "
          f"(requeued {r.requeues}, abandoned {r.abandoned})")
    print(f"  lost capacity   {r.lost_node_seconds / 3600:.1f} node-h")
    print(f"  wasted work     {r.wasted_node_seconds / 3600:.1f} node-h")
    print(f"  degraded util   {r.degraded_utilization:.3f}")


# -- subcommand implementations ------------------------------------------------

def cmd_reproduce(args: argparse.Namespace) -> int:
    """The ``repro reproduce`` driver: one experiment (or all) as an
    inline sweep — ``pool.run_sweep`` on no workers into the run
    directory's store (else a temporary one), rendered like ``repro
    sweep``; a failing cell is not retried.
    """
    import tempfile

    from repro.experiments import pool, runner
    from repro.obs import live as _live

    if args.faults and args.experiment != "faultsweep":
        print("--faults applies only to the faultsweep experiment",
              file=sys.stderr)
        return 2
    kind = "experiments" if args.experiment == "all" else args.experiment
    params: dict = {}
    if args.experiment == "all":
        params["only"] = list(runner.EXPERIMENT_IDS)
    if args.experiment in ("all", "overhead"):
        params["full_size_overhead"] = not args.scaled_overhead
    if args.faults:
        params["faults"] = args.faults
    try:
        spec = pool.SweepSpec(kind=kind, scale=args.scale, seed=args.seed,
                              params=params, retries=0)
        pool.expand_cells(spec)
    except (pool.SweepError, ValueError) as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2

    with contextlib.ExitStack() as stack:
        store = pool.SweepStore(args.run_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-reproduce-")))
        try:  # before the live log lands in the directory
            store.initialise(spec, resume=False)
        except pool.SweepError as exc:
            print(f"reproduce: {exc}", file=sys.stderr)
            return 2
        # the live bus is installed process-globally so every simulation
        # an experiment runs internally publishes to it
        with _live_session(args, install=True) as live:
            bus = live or _live.global_live_bus() or _live.LiveBus()
            clock = bus.attach(_ExperimentClock(kind))
            try:
                result = pool.run_sweep(spec, store, workers=0, live=bus)
            finally:
                bus.detach(clock)
    text = _print_report(spec, result.rollup, args.run_dir)
    for key, reason in sorted(result.quarantined.items()):
        print(f"reproduce: cell {key} failed: {reason}", file=sys.stderr)
    _write_manifest(
        args, kind="reproduce",
        config={"experiment": args.experiment, "scale": args.scale,
                "sweep": spec.identity()},
        summary={"report_chars": len(text), "wall_s": clock.wall_s})
    return 1 if result.quarantined else 0


class _ExperimentClock:
    """Live sink: one ``[<id>: done in <s> s]`` stderr line per experiment.

    An experiment ends with the ``sweep`` snapshot of a cell that names
    it (``exp``), or — for a kind whose cells do not, the fault sweep —
    with the final snapshot.  ``wall_s`` keeps the durations.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.wall_s: dict[str, float] = {}
        self._since = time.perf_counter()
        self._failed = 0

    def on_snapshot(self, record) -> None:
        """Time the experiment ``record`` finishes, if it finishes one."""
        if record.get("kind") != "sweep":
            return
        exp = record.get("exp", self.kind if record.get("final") else None)
        if exp is None:
            return
        self.wall_s[exp] = round(record["wall"] - self._since, 3)
        self._since = record["wall"]
        failed, self._failed = (record["quarantined"] > self._failed,
                                record["quarantined"])
        print(f"  [{exp}: {'failed after' if failed else 'done in'} "
              f"{self.wall_s[exp]:.1f} s]", file=sys.stderr)


def _print_report(spec, rollup, run_dir: str | None = None) -> str:
    """Render a sweep's rollup with its kind's renderer; print it (and
    write ``DIR/report.txt``) unless it is empty.  Returns the text."""
    from repro.experiments import runner

    text = runner.TABLE[spec.kind].render(spec, rollup)
    if text:
        if run_dir:
            (Path(run_dir) / REPORT).write_text(text + "\n",
                                                encoding="utf-8")
        print(text)
    return text


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload import CoriModel, ThetaModel, write_swf

    factory = ThetaModel if args.system == "theta" else CoriModel
    model = factory.scaled(args.nodes) if args.nodes else factory.paper()
    rng = np.random.default_rng(args.seed)
    jobs = model.generate(args.jobs, rng, load_factor=args.load_factor)
    write_swf(
        jobs, args.out,
        header=f"synthetic {model.name} trace, {args.jobs} jobs, seed {args.seed}",
    )
    print(f"wrote {len(jobs)} jobs ({model.name}) to {args.out}")
    return 0


def _print_metrics(name: str, result):
    """Print the headline metrics of a run; returns the ``RunMetrics``."""
    from repro.sim.metrics import RunMetrics

    m = RunMetrics.from_result(result)
    print(f"{name}:")
    print(f"  jobs            {m.num_jobs}")
    print(f"  avg wait        {m.avg_wait / 3600:.2f} h")
    print(f"  max wait        {m.max_wait / 3600:.2f} h")
    print(f"  avg response    {m.avg_response / 3600:.2f} h")
    print(f"  avg slowdown    {m.avg_slowdown:.2f}")
    print(f"  utilization     {m.utilization:.3f}")
    print(f"  makespan        {m.makespan / 3600:.2f} h")
    return m


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.cluster import Cluster
    from repro.sim.engine import Engine
    from repro.workload import read_swf

    policy = make_policy(args.policy, objective=args.objective, seed=args.seed)
    try:
        jobs = read_swf(args.trace, procs_per_node=args.procs_per_node,
                        max_jobs=args.max_jobs)
        faults = parse_faults(args.faults)
        # the engine refuses a job larger than the machine as it is built
        engine = Engine(Cluster(args.nodes), policy, jobs, faults=faults,
                        trace=Path(args.run_dir) / TRACE if args.run_dir
                        else None)
    except (OSError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print("trace contains no usable jobs", file=sys.stderr)
        return 1
    _run_dir(args)
    # process-global for the run: the engine finds the bus when it runs
    with _live_session(args, install=True):
        result = engine.run()
    summary = _print_metrics(policy.name, result).as_dict()
    _print_resilience(result)
    if result.resilience is not None:
        summary["resilience"] = result.resilience.as_dict()
    _write_manifest(args, kind="simulate", summary=summary, config={
        "trace": args.trace,
        "nodes": args.nodes,
        "policy": args.policy,
        "objective": args.objective,
        "procs_per_node": args.procs_per_node,
        "max_jobs": args.max_jobs,
        "faults": faults.as_dict() if faults is not None else None,
    })
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.core.config import DRASConfig
    from repro.core.persistence import (
        CheckpointError,
        load_checkpoint,
        save_agent,
    )
    from repro.experiments.common import make_agent
    from repro.obs.manifest import describe_workload
    from repro.rl.curriculum import train_with_curriculum
    from repro.rl.trainer import TrainingHistory
    from repro.workload import CoriModel, ThetaModel

    factory = ThetaModel if args.system == "theta" else CoriModel
    model = factory.scaled(args.nodes)
    objective = "capability" if args.system == "theta" else "capacity"
    config = DRASConfig.scaled(
        args.nodes, objective=objective, window=args.window,
        time_scale=factory.MAX_RUNTIME, seed=args.seed,
    )
    faults = parse_faults(args.faults)
    history = None
    resume_after = None
    if args.resume:
        try:
            loaded = load_checkpoint(args.resume)
        except CheckpointError as exc:
            print(f"bad agent file: {exc}", file=sys.stderr)
            return 2
        agent = loaded.agent
        history = TrainingHistory.from_records(loaded.episodes)
        resume_after = loaded.episodes_done
        if faults is None:
            faults = loaded.faults
        print(f"resuming from {args.resume}: "
              f"{loaded.episodes_done} episodes already done")
    else:
        agent = make_agent(args.agent, config)
    checkpoint_path = args.checkpoint or args.resume
    rng = np.random.default_rng(args.seed)
    base = model.generate(args.train_jobs, rng)
    validation = model.generate(max(50, args.train_jobs // 5), rng)
    run_dir = _run_dir(args)
    log = None
    if run_dir and args.live:  # the training log of a watched run
        from repro.obs.live import SnapshotWriter

        log = SnapshotWriter(run_dir / LOG, source="train",
                             resume_after=resume_after)
    try:
        with _live_session(args, shard=False) as live:
            history = train_with_curriculum(
                agent, model, base, validation, rng,
                n_sampled=args.sampled, n_real=args.real,
                n_synthetic=args.synthetic,
                jobs_per_set=args.jobs_per_set,
                telemetry=log,
                faults=faults,
                checkpoint_path=checkpoint_path,
                checkpoint_every=args.checkpoint_every,
                history=history,
                live=live,
            )
        # what --checkpoint holds after the last episode: the agent
        # and its training record, so --resume takes this file too
        save_agent(agent, args.out, history, faults=faults)
    finally:
        if log is not None:
            log.close()
            print(f"wrote the training log to {log.path}")
    curve = history.validation_curve
    print(f"trained {len(history.episodes)} episodes; validation reward "
          f"{curve[0]:.1f} -> {curve[-1]:.1f} (best {curve.max():.1f})")
    converged = history.converged_at()
    print(f"converged at episode: {converged if converged is not None else 'never'}")
    print(f"checkpoint written to {args.out}")
    _write_manifest(
        args, kind="train", workload=describe_workload(model), config={
            "system": args.system,
            "agent": args.agent,
            "nodes": args.nodes,
            "window": args.window,
            "train_jobs": args.train_jobs,
            "curriculum": {
                "sampled": args.sampled,
                "real": args.real,
                "synthetic": args.synthetic,
                "jobs_per_set": args.jobs_per_set,
            },
            "checkpoint": args.out,
            "faults": faults.as_dict() if faults is not None else None,
            "resume": args.resume,
            "resumable_checkpoint": str(checkpoint_path)
            if checkpoint_path else None,
        }, summary={
            "episodes": len(history.episodes),
            "validation_first": float(curve[0]),
            "validation_last": float(curve[-1]),
            "validation_best": float(curve.max()),
            "converged_at": converged,
        })
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from repro.workload import analyze_trace, fit_model, read_swf, write_swf

    jobs = read_swf(args.trace, procs_per_node=args.procs_per_node,
                    max_jobs=args.max_jobs)
    if len(jobs) < 2:
        print("trace too small to fit", file=sys.stderr)
        return 1
    stats = analyze_trace(jobs, args.nodes)
    print(f"analyzed {stats.num_jobs} jobs over "
          f"{stats.span_seconds / 86400:.1f} days:")
    print(f"  arrival rate      {stats.arrival_rate * 3600:.2f} jobs/h")
    print(f"  runtime median    {stats.runtime_median / 3600:.2f} h "
          f"(log-sigma {stats.runtime_log_sigma:.2f})")
    print(f"  mean overestimate {stats.mean_overestimate:.2f}x")
    print(f"  offered load      {stats.offered_load_per_node:.2f}")
    print(f"  size categories   {len(stats.size_mix)}")
    model = fit_model(jobs, args.nodes)
    synthetic = model.generate(args.jobs, np.random.default_rng(args.seed))
    write_swf(synthetic, args.out,
              header=f"synthetic trace fitted from {args.trace}")
    print(f"wrote {len(synthetic)} fitted synthetic jobs to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.persistence import CheckpointError, load_agent
    from repro.sim.engine import run_simulation
    from repro.workload import read_swf

    try:
        agent = load_agent(args.checkpoint)
    except CheckpointError as exc:
        print(f"bad agent file: {exc}", file=sys.stderr)
        return 2
    agent.eval(online_learning=not args.frozen)
    jobs = read_swf(args.trace, procs_per_node=args.procs_per_node,
                    max_jobs=args.max_jobs)
    if not jobs:
        print("trace contains no usable jobs", file=sys.stderr)
        return 1
    result = run_simulation(agent.config.num_nodes, agent, jobs)
    _print_metrics(agent.name, result)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """The ``repro check`` driver.

    Exit codes: 0 — clean; 1 — findings; 2 — a path does not exist.
    """
    from repro.check import RULES, lint_paths

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id} [{rule.slug}]")
            print(f"    {rule.rationale}")
        return 0

    try:
        violations = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    for violation in violations:
        print(violation.format())
    if violations:
        print(f"\n{len(violations)} violation(s) found", file=sys.stderr)
        return 1
    checked = ", ".join(str(p) for p in args.paths)
    print(f"no RPR104-RPR106 violations in {checked}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """The ``repro report`` driver: render a run directory, running nothing.

    Writes ``DIR/report.html`` from whichever of ``manifest.json``,
    ``log.jsonl`` (read once: its ``train`` records and a card per
    snapshot kind), ``trace.jsonl`` and ``profile.json`` DIR holds.  A
    sweep store also prints its report, rendered from ``spec.json`` and
    ``rollup.json`` by its kind's renderer: the text the run printed,
    with no cell re-run.  A directory holding none of these is refused
    (exit 2) and nothing is written.
    """
    from repro.experiments import pool
    from repro.obs.analyze import summarize_trace
    from repro.obs.live import read_log
    from repro.obs.report import write_report

    run_dir = Path(args.run_dir)
    store = pool.SweepStore(run_dir)

    def load(path):
        return json.loads(path.read_text(encoding="utf-8"))

    def artifact(name, read):
        return read(run_dir / name) if (run_dir / name).exists() else None

    try:
        if not run_dir.is_dir():
            raise FileNotFoundError(f"no run directory {run_dir}")
        readable = (MANIFEST, LOG, TRACE, PROFILE, store.rollup_path.name)
        if not any((run_dir / name).exists() for name in readable):
            raise FileNotFoundError(f"nothing to report in {run_dir}: it "
                                    f"holds none of {', '.join(readable)}")
        sweep = None
        if store.rollup_path.exists():
            identity = load(store.spec_path)
            identity.pop("schema", None)
            sweep = pool.SweepSpec(**identity), load(store.rollup_path)
        log = artifact(LOG, read_log)
        path = write_report(
            run_dir / "report.html",
            title=args.title,
            manifest=artifact(MANIFEST, load),
            telemetry=log["train"] if log is not None else None,
            log=log,
            trace=artifact(TRACE, summarize_trace),
            profile=artifact(PROFILE, load),
        )
    except (OSError, ValueError, TypeError, pool.SweepError) as exc:
        print(f"cannot build report: {exc}", file=sys.stderr)
        return 2
    if sweep is not None:
        _print_report(*sweep)
    print(f"wrote report to {path}", file=sys.stderr)
    return 0


def _parse_sweep_params(pairs: "list[str] | None") -> dict:
    """``--param KEY=VALUE`` pairs → a sweep params dict.

    Values parse as JSON when they can (``--param mtbf_grid=[0,2000]``,
    ``--param cells=6``) and fall back to plain strings
    (``--param faults=mtbf=2000,mttr=600``).
    """
    params: dict = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param wants KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def cmd_sweep(args: argparse.Namespace) -> int:
    """The ``repro sweep`` driver: fault-tolerant parallel sweeps."""
    from repro.experiments import pool

    try:
        params = _parse_sweep_params(args.param)
        if args.faults:
            if args.kind != "faultsweep":
                print("--faults applies only to faultsweep sweeps",
                      file=sys.stderr)
                return 2
            params["faults"] = args.faults
        spec = pool.SweepSpec(
            kind=args.kind,
            scale=args.scale,
            seed=args.seed,
            params=params,
            timeout_s=args.timeout,
            retries=args.retries,
        )
        pool.expand_cells(spec)
    except (pool.SweepError, ValueError) as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2

    store = pool.SweepStore(args.run_dir)
    try:
        store.initialise(spec, resume=args.resume)  # before the live log
        with _live_session(args, install=True) as live:
            result = pool.run_sweep(
                spec,
                store,
                workers=args.workers,
                resume=args.resume,
                live=live,
            )
    except pool.SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2

    _print_report(spec, result.rollup, args.run_dir)
    print(f"sweep: {result.completed}/{result.total} cells complete "
          f"({result.resumed} resumed, {len(result.quarantined)} "
          f"quarantined this run)", file=sys.stderr)
    print(f"sweep: rollup {result.rollup_path} "
          f"digest {result.digest}", file=sys.stderr)
    for key, reason in sorted(result.quarantined.items()):
        print(f"sweep: quarantined {key}: {reason}", file=sys.stderr)
    return 0 if result.completed == result.total else 3


# -- parser -----------------------------------------------------------------------

def _add_run_args(p: argparse.ArgumentParser, faults_help: str,
                  holds: str = "",
                  log: str = "every live snapshot (repro.live/v1)") -> None:
    """Attach a run command's ``--faults`` and ``--live`` flags and, when
    ``holds`` names what DIR gets besides its manifest, ``--run-dir``."""
    p.add_argument("--faults", metavar="SPEC", help=faults_help)
    if holds:
        p.add_argument("--run-dir", metavar="DIR",
                       help=f"keep the run's artifacts in DIR: "
                            f"manifest.json{holds}; render them with "
                            f"'repro report DIR'")
    p.add_argument("--live", action="store_true",
                   help=f"show a live progress/ETA line while the run "
                        f"executes; in a run directory also write "
                        f"DIR/log.jsonl: {log}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRAS (IPDPS'21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    p.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    p.add_argument("--scale", default="default",
                   help="tiny | default | paper (default: default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scaled-overhead", action="store_true",
                   help="overhead experiment: use a scaled network")
    _add_run_args(
        p, "fault-process override for the faultsweep experiment, e.g. "
           "mtbf=5000,mttr=1800,seed=1",
        holds=", report.txt (the printed report) and the sweep store "
              "(spec.json, shards/, rollup.json); DIR must be new or empty")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid on worker processes (crash-safe)")
    p.add_argument("kind", choices=("faultsweep", "experiments", "selftest"),
                   help="which grid to expand")
    p.add_argument("--store", dest="run_dir", required=True, metavar="DIR",
                   help="crash-durable result store (spec.json, per-worker "
                        "JSONL shards, merged rollup.json) and run "
                        "directory (report.txt; log.jsonl with --live)")
    p.add_argument("--scale", default="default",
                   help="tiny | default | paper (default: default)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed; per-cell seeds derive from it")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="worker processes (default 0: run every cell "
                        "inline in this process)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted sweep: skip cells the "
                        "store already holds, retry quarantined ones")
    p.add_argument("--timeout", type=float, default=0.0, metavar="S",
                   help="per-cell wall-clock budget; a cell attempt "
                        "running longer is killed and retried "
                        "(default 0: no parent-side timeout)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retry budget per cell before quarantine "
                        "(default 2)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="kind-specific knob (JSON value or string); "
                        "repeatable, e.g. --param 'mtbf_grid=[0,2000]'")
    _add_run_args(p, "fault-process override for faultsweep sweeps, "
                     "e.g. mtbf=5000,mttr=1800,seed=1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="synthesize an SWF trace")
    p.add_argument("system", choices=("theta", "cori"))
    p.add_argument("jobs", type=int)
    p.add_argument("--nodes", type=int, default=0,
                   help="system size (default: the paper's full size)")
    p.add_argument("--load-factor", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="replay an SWF trace under a policy")
    p.add_argument("trace")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--policy", choices=POLICIES, default="fcfs")
    p.add_argument("--objective", choices=("capability", "capacity"),
                   default="capability")
    p.add_argument("--procs-per-node", type=int, default=1)
    p.add_argument("--max-jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_run_args(
        p, "inject seeded faults, e.g. "
           "mtbf=5000,mttr=1800,seed=1,requeue=requeue-front "
           "(keys: mtbf mttr seed blade_size blade_prob "
           "job_kill_mtbf requeue min_repair max_requeues)",
        holds=" and trace.jsonl (the structured event trace, "
              "repro.trace/v1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train and checkpoint a DRAS agent")
    p.add_argument("--system", choices=("theta", "cori"), default="theta")
    p.add_argument("--agent", choices=("pg", "dql", "decima"), default="pg")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--train-jobs", type=int, default=2000)
    p.add_argument("--sampled", type=int, default=4)
    p.add_argument("--real", type=int, default=4)
    p.add_argument("--synthetic", type=int, default=12)
    p.add_argument("--jobs-per-set", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", metavar="PATH",
                   help="write a crash-safe resumable training checkpoint "
                        "after every --checkpoint-every episodes")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="episodes between resumable checkpoints (default 1)")
    p.add_argument("--resume", metavar="PATH",
                   help="resume an interrupted run from its resumable "
                        "checkpoint (other flags must match the original "
                        "run; keeps checkpointing to the same file unless "
                        "--checkpoint overrides it)")
    _add_run_args(
        p, "train under seeded fault injection, e.g. "
           "mtbf=5000,mttr=1800,seed=1 (the fault seed is offset per "
           "episode; validation uses the base seed)",
        holds=" (the agent files go to --out and --checkpoint)",
        log="the training log, one record per episode, cut back to the "
            "checkpoint on --resume")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "fit", help="fit a workload model to an SWF trace and resample it"
    )
    p.add_argument("trace")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1000,
                   help="synthetic jobs to generate from the fitted model")
    p.add_argument("--procs-per-node", type=int, default=1)
    p.add_argument("--max-jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "check", help="lint source paths for mutable defaults, float-time "
                      "equality and swallowed exceptions (RPR104-RPR106)"
    )
    p.add_argument("paths", nargs="*",
                   default=[str(Path(__file__).resolve().parent)],
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "report",
        help="render a run directory (--run-dir / sweep --store) without "
             "re-running it",
    )
    p.add_argument("run_dir", metavar="DIR",
                   help="writes DIR/report.html from its manifest.json, "
                        "log.jsonl, trace.jsonl and profile.json; a sweep "
                        "store also prints its report from rollup.json")
    p.add_argument("--title", default="repro run report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("evaluate", help="replay a trace under a checkpointed agent")
    p.add_argument("checkpoint")
    p.add_argument("trace")
    p.add_argument("--frozen", action="store_true",
                   help="disable online learning during evaluation")
    p.add_argument("--procs-per-node", type=int, default=1)
    p.add_argument("--max-jobs", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
