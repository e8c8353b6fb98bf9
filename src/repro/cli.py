"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``
    Regenerate any of the paper's tables/figures and print the report.
``generate``
    Synthesize a Theta/Cori-like trace and write it as SWF.
``simulate``
    Replay an SWF trace under a named policy and print the metrics.
``train``
    Train a DRAS/Decima agent with the three-phase curriculum and
    checkpoint it; ``--checkpoint``/``--resume`` make the run
    crash-safe (see :mod:`repro.rl.checkpoint`).
``evaluate``
    Replay an SWF trace under a checkpointed agent.
``check``
    Run the determinism/correctness linter (:mod:`repro.check`) over
    source paths and report violations.
``report``
    Stitch run artifacts (manifest, telemetry, trace, profile)
    into one self-contained HTML report (:mod:`repro.obs.report`).
``trace``
    Trace-file utilities; ``trace summarize <path>`` prints span
    rollups, decision-latency percentiles and event counts
    (:mod:`repro.obs.analyze`).
``live``
    Live-snapshot shard utilities; ``live summarize <shards...>``
    merges per-process ``repro.live/v1`` / ``repro.telemetry/v1``
    JSONL shards into one deterministic rollup
    (:mod:`repro.obs.aggregate`).

``reproduce``, ``simulate`` and ``train`` accept ``--manifest PATH`` to
write a :class:`~repro.obs.manifest.RunManifest` (seed, git SHA, config,
workload parameters, summary metrics) alongside their output, and
``--report PATH`` to emit the HTML report directly; ``train`` also
accepts ``--telemetry PATH`` for per-episode JSONL training records.
They also accept ``--faults SPEC`` to run under seeded fault injection
(:mod:`repro.sim.faults`; ``reproduce`` only for the ``faultsweep``
experiment) — see ``docs/resilience.md`` — and ``--live`` /
``--live-record PATH`` for an in-flight view of the run (a terminal
progress/ETA line, snapshot shards; :mod:`repro.obs.live`, also via
the ``REPRO_LIVE`` env var) — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
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


@contextlib.contextmanager
def _live_session(args: argparse.Namespace, install: bool = False):
    """``--live`` / ``--live-record PATH`` → a LiveBus for the block.

    Either flag shows the terminal progress/ETA line; ``--live-record
    PATH`` also appends every snapshot to a JSONL shard (mergeable with
    ``repro live summarize``).  With neither flag, yields ``None`` so
    components fall back to the ``REPRO_LIVE`` process-global bus.

    ``install`` also makes the bus process-global for the block, so
    every simulation the command runs internally publishes to it.  The
    bus is closed (and uninstalled) on the way out, whatever happened.
    """
    from repro.obs import live as _live

    record = getattr(args, "live_record", None)
    if not getattr(args, "live", False) and record is None:
        yield None
        return
    bus = _live.LiveBus()
    bus.attach(_live.ProgressSink())
    if record is not None:
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


# -- report assembly helper ----------------------------------------------------

def _emit_report(
    out: str,
    title: str,
    manifest_path: str | None = None,
    metrics: dict | None = None,
    telemetry_path: str | None = None,
    trace_path: str | None = None,
    profile_path: str | None = None,
) -> None:
    """Load whatever artifacts exist and write the HTML report."""
    from repro.obs.analyze import summarize_trace
    from repro.obs.report import write_report
    from repro.rl.telemetry import episode_records, read_telemetry

    def load(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))

    path = write_report(
        out,
        title=title,
        manifest=load(manifest_path) if manifest_path else None,
        metrics=metrics,
        telemetry=(episode_records(read_telemetry(telemetry_path))
                   if telemetry_path else None),
        trace=summarize_trace(trace_path) if trace_path else None,
        profile=load(profile_path) if profile_path else None,
    )
    print(f"wrote report to {path}")


def _write_artifacts(args: argparse.Namespace, title: str,
                     manifest: dict | None = None, **report_inputs) -> None:
    """Post-run step of a run subcommand: ``--manifest``, then ``--report``.

    ``manifest`` holds the :meth:`RunManifest.create` fields (``None``
    when the run wrote its own); ``report_inputs`` are
    :func:`_emit_report` keywords.
    """
    if args.manifest and manifest is not None:
        from repro.obs.manifest import RunManifest

        RunManifest.create(seed=args.seed, **manifest).write(args.manifest)
    if args.report:
        _emit_report(args.report, title, manifest_path=args.manifest,
                     **report_inputs)


# -- subcommand implementations ------------------------------------------------

def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.faults and args.experiment != "faultsweep":
        print("--faults applies only to the faultsweep experiment",
              file=sys.stderr)
        return 2

    # the live bus is installed process-globally so every simulation an
    # experiment runs internally publishes to it (the faultsweep also
    # publishes its own per-cell "sweep" snapshots)
    with _live_session(args, install=True):
        return _cmd_reproduce_body(args)


def _cmd_reproduce_body(args: argparse.Namespace) -> int:
    import importlib

    manifest = None
    if args.experiment == "all":
        from repro.experiments.runner import combined_report, run_all

        reports = run_all(  # writes --manifest itself, one entry per report
            scale=args.scale,
            seed=args.seed,
            full_size_overhead=not args.scaled_overhead,
            progress=lambda msg: print(f"  [{msg}]", file=sys.stderr),
            manifest_path=args.manifest,
        )
        text = combined_report(reports, args.scale)
    else:
        module = importlib.import_module(
            f"repro.experiments.{args.experiment}")
        if args.experiment in ("table1", "table3"):
            result = module.run()
        elif args.experiment == "overhead":
            result = module.run(full_size=not args.scaled_overhead)
        elif args.experiment == "faultsweep":
            result = module.run(args.scale, seed=args.seed,
                                faults=parse_faults(args.faults))
        else:
            result = module.run(args.scale, seed=args.seed)
        text = module.report(result)
        manifest = dict(
            kind="reproduce",
            config={"experiment": args.experiment, "scale": args.scale},
            summary={"report_chars": len(text)},
        )
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    _write_artifacts(args, f"reproduce {args.experiment}", manifest)
    return 0


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
    from repro.sim.engine import run_simulation
    from repro.workload import read_swf

    jobs = read_swf(args.trace, procs_per_node=args.procs_per_node,
                    max_jobs=args.max_jobs)
    if not jobs:
        print("trace contains no usable jobs", file=sys.stderr)
        return 1
    policy = make_policy(args.policy, objective=args.objective, seed=args.seed)
    faults = parse_faults(args.faults)
    with _live_session(args) as live:
        result = run_simulation(args.nodes, policy, jobs,
                                trace=args.trace_out, faults=faults,
                                live=live)
    metrics = _print_metrics(policy.name, result).as_dict()
    _print_resilience(result)
    summary = dict(metrics)
    if result.resilience is not None:
        summary["resilience"] = result.resilience.as_dict()
    _write_artifacts(
        args, f"simulate {args.policy}",
        dict(kind="simulate", summary=summary, config={
            "trace": args.trace,
            "nodes": args.nodes,
            "policy": args.policy,
            "objective": args.objective,
            "procs_per_node": args.procs_per_node,
            "max_jobs": args.max_jobs,
            "faults": faults.as_dict() if faults is not None else None,
        }),
        metrics=metrics,
        trace_path=args.trace_out,
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.core.config import DRASConfig
    from repro.core.persistence import save_agent
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
    resume_offset = None
    if args.resume:
        from repro.rl.checkpoint import episode_stats_from_json, load_checkpoint

        loaded = load_checkpoint(args.resume)
        agent = loaded.agent
        history = TrainingHistory(
            episodes=episode_stats_from_json(loaded.episodes)
        )
        resume_offset = loaded.telemetry_offset
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
    # --report without an explicit --telemetry still records telemetry,
    # into a sidecar next to the checkpoint
    telemetry_path = args.telemetry
    if telemetry_path is None and args.report:
        telemetry_path = args.out + ".telemetry.jsonl"
    telemetry = None
    if telemetry_path is not None:
        from repro.rl.telemetry import TelemetryWriter

        telemetry = TelemetryWriter(
            telemetry_path,
            meta={"agent": args.agent, "system": args.system,
                  "seed": args.seed},
            resume_at=resume_offset,
        )
    try:
        with _live_session(args) as live:
            history = train_with_curriculum(
                agent, model, base, validation, rng,
                n_sampled=args.sampled, n_real=args.real,
                n_synthetic=args.synthetic,
                jobs_per_set=args.jobs_per_set,
                telemetry=telemetry,
                faults=faults,
                checkpoint_path=checkpoint_path,
                checkpoint_every=args.checkpoint_every,
                history=history,
                live=live,
            )
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"wrote {telemetry.n_written} telemetry records "
                  f"to {telemetry_path}")
    save_agent(agent, args.out)
    curve = history.validation_curve
    print(f"trained {len(history.episodes)} episodes; validation reward "
          f"{curve[0]:.1f} -> {curve[-1]:.1f} (best {curve.max():.1f})")
    converged = history.converged_at()
    print(f"converged at episode: {converged if converged is not None else 'never'}")
    print(f"checkpoint written to {args.out}")
    _write_artifacts(
        args, f"train {args.agent} ({args.system})",
        dict(kind="train", workload=describe_workload(model), config={
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
        }),
        telemetry_path=telemetry_path,
    )
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
    from repro.core.persistence import load_agent
    from repro.sim.engine import run_simulation
    from repro.workload import read_swf

    agent = load_agent(args.checkpoint)
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

    Exit codes: 0 — clean (or every finding is baselined); 1 — findings;
    2 — usage/configuration error (unknown rule, missing path, bad
    baseline file).
    """
    from repro.check import RULES, LintConfig, lint_paths
    from repro.check import report as _report

    if args.list_rules:
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            if rule.whole_program:
                if not args.strict:
                    continue
                scopes = "whole program"
            else:
                scopes = ", ".join(rule.default_scopes or ("all files",))
            print(f"{rule.id} [{rule.slug}] ({scopes})")
            print(f"    {rule.rationale}")
        return 0

    known = set(RULES) | {r.id for r in RULES.values()}
    unknown = [r for r in (args.select or []) + (args.ignore or []) if r not in known]
    if unknown:
        print(f"unknown rule(s): {', '.join(unknown)}; see --list-rules",
              file=sys.stderr)
        return 2

    config = LintConfig().with_overrides(select=args.select, ignore=args.ignore)
    try:
        violations = lint_paths(args.paths, config, strict=args.strict)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.baseline:
        try:
            baseline = _report.load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline: {exc}", file=sys.stderr)
            return 2
        violations, _stale = _report.diff_baseline(violations, baseline)

    if args.sarif:
        rules = [(r.id, slug, r.rationale) for slug, r in RULES.items()]
        Path(args.sarif).write_text(
            json.dumps(_report.to_sarif(violations, rules), indent=2) + "\n",
            encoding="utf-8",
        )
        if not args.quiet:
            print(f"wrote SARIF log to {args.sarif}", file=sys.stderr)

    if args.json:
        sys.stdout.write(_report.to_json(violations, args.paths, args.strict))
        return 1 if violations else 0

    for violation in violations:
        print(violation.format())
    if violations:
        suffix = " (beyond the baseline)" if args.baseline else ""
        print(f"\n{len(violations)} violation(s) found{suffix}", file=sys.stderr)
        return 1
    if not args.quiet:
        checked = ", ".join(str(p) for p in args.paths)
        mode = "strict whole-program" if args.strict else "determinism/correctness"
        print(f"no {mode} violations in {checked}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """The ``repro report`` driver: stitch artifacts into one HTML file."""
    try:
        _emit_report(
            args.out,
            title=args.title,
            manifest_path=args.manifest,
            telemetry_path=args.telemetry,
            trace_path=args.trace,
            profile_path=args.profile,
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot build report: {exc}", file=sys.stderr)
        return 2
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
            backoff_s=args.backoff,
        )
    except (pool.SweepError, ValueError) as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2

    try:
        with _live_session(args, install=True) as live:
            result = pool.run_sweep(
                spec,
                args.store,
                workers=args.workers,
                resume=args.resume,
                live=live,
            )
    except pool.SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2

    text = _render_sweep_report(args.kind, spec, result)
    if text:
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(text)
    print(f"sweep: {result.completed}/{result.total} cells complete "
          f"({result.resumed} resumed, {len(result.quarantined)} "
          f"quarantined this run)", file=sys.stderr)
    print(f"sweep: rollup {result.rollup_path} "
          f"digest {result.digest}", file=sys.stderr)
    for key, reason in sorted(result.quarantined.items()):
        print(f"sweep: quarantined {key}: {reason}", file=sys.stderr)
    return 0 if result.completed == result.total else 3


def _render_sweep_report(kind: str, spec, result) -> str:
    """Render a completed sweep's rollup with the kind's reporter."""
    from repro.experiments import faultsweep, pool, runner

    if kind == "faultsweep":
        return faultsweep.report(faultsweep.result_from_rollup(result.rollup))
    if kind == "experiments":
        reports, failures = runner.reports_from_rollup(result.rollup)
        expected = [cell["exp"] for cell in pool.expand_cells(spec)]
        return runner.combined_report(reports, spec.scale,
                                      expected=expected, failures=failures)
    return ""


def cmd_trace(args: argparse.Namespace) -> int:
    """The ``repro trace`` driver (currently: ``summarize``)."""
    from repro.obs.analyze import format_trace_summary, summarize_trace

    try:
        summary = summarize_trace(args.path)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    print(format_trace_summary(summary, top=args.top))
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    """The ``repro live`` driver (currently: ``summarize``)."""
    from repro.obs.aggregate import format_rollup, merge_shards

    try:
        rollup = merge_shards(args.shards)
    except OSError as exc:
        print(f"cannot read shard: {exc}", file=sys.stderr)
        return 2
    if args.json or args.out:
        text = json.dumps(rollup, sort_keys=True, indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote rollup to {args.out}")
        if args.json:
            print(text, end="")
    if not args.json:
        print(format_rollup(rollup), end="")
    return 0


# -- parser -----------------------------------------------------------------------

def _add_live_args(p: argparse.ArgumentParser) -> None:
    """Attach the shared ``--live`` / ``--live-record`` flags."""
    p.add_argument("--live", action="store_true",
                   help="show a live progress/ETA line while the run "
                        "executes")
    p.add_argument("--live-record", metavar="PATH",
                   help="append every live snapshot to a JSONL shard "
                        "(repro.live/v1; merge shards with "
                        "'repro live summarize')")


def _add_artifact_args(p: argparse.ArgumentParser, *flags: str,
                       faults_help: str = "", report_note: str = "") -> None:
    """Attach the shared ``--faults``/``--manifest``/``--report`` flags.

    ``flags`` names which to add, in ``--help`` order; only the fault
    spec's meaning (and a ``--report`` suffix) differs per subcommand.
    """
    helps = {
        "--faults": faults_help,
        "--manifest": "write a run manifest (JSON provenance record)",
        "--report": ("also write a self-contained HTML run report"
                     + report_note),
    }
    for flag in flags:
        p.add_argument(flag, help=helps[flag],
                       metavar="SPEC" if flag == "--faults" else "PATH")


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
    p.add_argument("--out", help="also write the report to this file")
    p.add_argument("--scaled-overhead", action="store_true",
                   help="overhead experiment: use a scaled network")
    _add_artifact_args(
        p, "--faults", "--manifest", "--report",
        faults_help="fault-process override for the faultsweep "
                    "experiment, e.g. mtbf=5000,mttr=1800,seed=1")
    _add_live_args(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid on worker processes (crash-safe)")
    p.add_argument("kind", choices=("faultsweep", "experiments", "selftest"),
                   help="which grid to expand")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="crash-durable result store (per-worker JSONL "
                        "shards + merged rollup.json)")
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
    p.add_argument("--backoff", type=float, default=0.25, metavar="S",
                   help="base of the capped exponential backoff between "
                        "attempts (default 0.25)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="kind-specific knob (JSON value or string); "
                        "repeatable, e.g. --param 'mtbf_grid=[0,2000]'")
    _add_artifact_args(
        p, "--faults",
        faults_help="fault-process override for faultsweep sweeps, "
                    "e.g. mtbf=5000,mttr=1800,seed=1")
    p.add_argument("--out", help="also write the rendered report here")
    _add_live_args(p)
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
    _add_artifact_args(
        p, "--faults", "--manifest",
        faults_help="inject seeded faults, e.g. "
                    "mtbf=5000,mttr=1800,seed=1,requeue=requeue-front "
                    "(keys: mtbf mttr seed blade_size blade_prob "
                    "job_kill_mtbf requeue min_repair max_requeues)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a structured JSONL event trace of the run")
    _add_artifact_args(p, "--report")
    _add_live_args(p)
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
    _add_artifact_args(
        p, "--faults",
        faults_help="train under seeded fault injection, e.g. "
                    "mtbf=5000,mttr=1800,seed=1 (the fault seed is "
                    "offset per episode; validation uses the base seed)")
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
    _add_artifact_args(p, "--manifest")
    p.add_argument("--telemetry", metavar="PATH",
                   help="write per-episode JSONL training telemetry "
                        "(repro.telemetry/v1)")
    _add_artifact_args(
        p, "--report",
        report_note=" (records telemetry to a sidecar if --telemetry "
                    "is not given)")
    _add_live_args(p)
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
        "check", help="run the determinism/correctness linter over source paths"
    )
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--select", action="append", metavar="RULE",
                   help="run only these rules (slug or id; repeatable)")
    p.add_argument("--ignore", action="append", metavar="RULE",
                   help="skip these rules (slug or id; repeatable)")
    p.add_argument("--strict", action="store_true",
                   help="also run the whole-program rules (RPR4xx API "
                        "contracts)")
    p.add_argument("--json", action="store_true",
                   help="emit findings as a JSON document on stdout")
    p.add_argument("--sarif", metavar="PATH",
                   help="also write a SARIF 2.1.0 log to PATH")
    p.add_argument("--baseline", metavar="PATH",
                   help="suppress findings recorded in this baseline file; "
                        "only new findings fail (see scripts/check_ratchet.py)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="print nothing when the check passes")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "report",
        help="stitch run artifacts into one self-contained HTML report",
    )
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output HTML file")
    p.add_argument("--title", default="repro run report")
    p.add_argument("--manifest", metavar="PATH",
                   help="run manifest JSON (repro.manifest/v1)")
    p.add_argument("--telemetry", metavar="PATH",
                   help="training telemetry JSONL (repro.telemetry/v1)")
    p.add_argument("--trace", metavar="PATH",
                   help="event trace JSONL (repro.trace/v1)")
    p.add_argument("--profile", metavar="PATH",
                   help="profiler output JSON (repro.profile/v1)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("trace", help="trace-file utilities")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="print span rollups, latency percentiles and event counts",
    )
    ps.add_argument("path", help="event trace JSONL (repro.trace/v1)")
    ps.add_argument("--top", type=int, default=10,
                    help="rollup rows to print (default 10)")
    ps.set_defaults(func=cmd_trace)

    p = sub.add_parser("live", help="live-snapshot shard utilities")
    live_sub = p.add_subparsers(dest="live_command", required=True)
    ps = live_sub.add_parser(
        "summarize",
        help="merge per-process snapshot/telemetry shards into one rollup",
    )
    ps.add_argument("shards", nargs="+",
                    help="JSONL shards (repro.live/v1 or repro.telemetry/v1)")
    ps.add_argument("--json", action="store_true",
                    help="print the rollup as JSON instead of a summary")
    ps.add_argument("--out", metavar="PATH",
                    help="also write the rollup JSON to this file")
    ps.set_defaults(func=cmd_live)

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
