"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``
    Regenerate any of the paper's tables/figures (or ``all``) and print
    the report: a crash-safe sweep of that experiment's cells, inline
    or on ``--workers N`` processes, resumable with ``--resume``.
``generate``
    Synthesize a Theta/Cori-like trace and write it as SWF.
``simulate``
    Replay an SWF trace under a named policy, or under the agent of an
    agent file (``--agent``, on its node count), and print the metrics.
    Bad input is one ``bad input:`` line (``bad agent file:`` for a
    damaged agent file) and exit 2.
``fit``
    Fit a workload model to an SWF trace and resample it as SWF.
``train``
    Train a DRAS/Decima agent with the three-phase curriculum and
    write its agent file (:func:`repro.core.persistence.save_agent`)
    to ``--out`` after every episode; ``--resume`` continues that file
    (its kind, nodes, window, seed and objective must match the
    flags).
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
keep a run's artifacts together under fixed names:

* ``manifest.json``: the :class:`~repro.obs.manifest.RunManifest` (seed,
  git SHA, config, workload parameters, summary metrics);
* ``log.jsonl``: with ``--live``, every live snapshot
  (``repro.live/v1``); for ``train`` the training log, one
  ``kind="train"`` record per episode, cut back to the agent file's
  episodes on ``--resume``;
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
import collections
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np


class _ExperimentChoices:
    """What ``reproduce`` accepts: every id of
    :data:`repro.experiments.runner.EXPERIMENT_IDS` (report order),
    ``all`` and ``selftest``.  The ids are read when a choice is checked
    (``in`` iterates) or listed, so building the parser imports no
    experiment module."""

    def __iter__(self):
        from repro.experiments.runner import EXPERIMENT_IDS

        return iter((*EXPERIMENT_IDS, "all", "selftest"))


def parse_faults(spec: str | None):
    """``--faults mtbf=...,mttr=...,seed=...`` → :class:`FaultConfig` or None."""
    if spec is None:
        return None
    from repro.sim.faults import FaultConfig

    return FaultConfig.from_spec(spec)


#: the fixed file names of a run directory (``--run-dir DIR``) besides
#: a sweep store's own
MANIFEST, LOG, TRACE, PROFILE, REPORT = (
    "manifest.json", "log.jsonl", "trace.jsonl", "profile.json", "report.txt")


@contextlib.contextmanager
def _live_session(args: argparse.Namespace, shard: bool = True):
    """``--live`` → a LiveBus, the current live channel for the block.

    The bus shows the terminal progress/ETA line and, in a run
    directory, appends every snapshot to ``DIR/log.jsonl`` (read back
    by ``repro report DIR``) unless ``shard`` is false (``train``
    writes that log itself, as its training log).  It is made the
    current live channel (:func:`repro.obs.trace.sinks`), so every
    simulation and training episode the command runs publishes to it.
    Without ``--live``, yields ``None`` and installs nothing, so
    components follow the ``REPRO_LIVE`` process-global bus.  The bus
    is closed on the way out, and the previous channel restored,
    whatever happened.
    """
    from repro.obs import live as _live
    from repro.obs.trace import sinks

    if not args.live:
        yield None
        return
    bus = _live.LiveBus()
    bus.attach(_live.ProgressSink())
    if args.run_dir and shard:
        record = Path(args.run_dir) / LOG
        bus.attach(_live.SnapshotWriter(record))
        print(f"live: recording snapshots to {record}", file=sys.stderr)
    try:
        with sinks(live=bus):
            yield bus
    finally:
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


def cmd_reproduce(args: argparse.Namespace) -> int:
    """The ``repro reproduce`` driver, the one front end of
    :func:`~repro.experiments.pool.run_sweep`.

    One experiment, ``all`` of them or the pool's ``selftest`` runs as
    a sweep of its cells, inline or on ``--workers N`` processes, into
    the run directory's store (else a temporary one) and is printed by
    its kind's renderer.  ``--param`` values override the command's own
    (``all`` sets ``only`` to every experiment id).  A cell that raises
    is retried ``--retries`` times (default
    :data:`~repro.experiments.pool.DEFAULT_RETRIES`), then quarantined.

    Exit 0 when every cell completed; 2 for a bad spec or store (no
    cell runs); 1 otherwise.
    """
    import tempfile

    from repro.experiments import pool, runner
    from repro.obs import live as _live
    from repro.obs.trace import channels

    if args.resume and not args.run_dir:
        print("reproduce: --resume needs --run-dir DIR, the run to "
              "continue", file=sys.stderr)
        return 2
    if args.faults and args.experiment != "faultsweep":
        print("--faults applies only to the faultsweep experiment",
              file=sys.stderr)
        return 2
    kind = "experiments" if args.experiment == "all" else args.experiment
    try:
        params: dict = ({"only": list(runner.EXPERIMENT_IDS)}
                        if kind == "experiments" else {})
        params.update(_parse_sweep_params(args.param))
        if args.faults:
            params["faults"] = args.faults
        spec = pool.SweepSpec(
            kind=kind, scale=args.scale, seed=args.seed, params=params,
            timeout_s=args.timeout,
            retries=(pool.DEFAULT_RETRIES if args.retries is None
                     else args.retries))
        cells = pool.expand_cells(spec)
    except (pool.SweepError, ValueError) as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2

    if args.workers < 0:  # refused before the store writes anything
        print(f"reproduce: workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        store = pool.SweepStore(args.run_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-reproduce-")))
        try:
            store.initialise(spec, resume=args.resume)  # before the live log
            if args.resume:  # the clock times only the cells run here
                done = set(store.scan().completed)
                cells = [c for c in cells if pool.cell_key(c) not in done]
            # the live bus is the current live channel, so every
            # simulation an inline cell runs publishes to it
            with _live_session(args) as live:
                bus = live or channels().live or _live.LiveBus()
                clock = bus.attach(_ExperimentClock(kind, cells))
                try:
                    result = pool.run_sweep(spec, store,
                                            workers=args.workers,
                                            resume=args.resume, live=bus)
                finally:
                    bus.detach(clock)
        except pool.SweepError as exc:
            print(f"reproduce: {exc}", file=sys.stderr)
            return 2
    text = _print_report(spec, result.rollup, args.run_dir)
    print(f"reproduce: {result.completed}/{result.total} cells complete "
          f"({result.resumed} resumed, {len(result.quarantined)} "
          f"quarantined this run), rollup digest {result.digest}",
          file=sys.stderr)
    for key, reason in sorted(result.quarantined.items()):
        print(f"reproduce: quarantined {key}: {reason}", file=sys.stderr)
    _write_manifest(
        args, kind="reproduce",
        config={"experiment": args.experiment, "scale": args.scale,
                "sweep": spec.identity()},
        summary={"report_chars": len(text), "wall_s": clock.wall_s})
    return 0 if result.completed == result.total else 1


class _ExperimentClock:
    """Live sink: one ``[<id>: done in <s> s]`` stderr line per experiment.

    ``cells`` are the cells this invocation runs (a resumed run's
    completed ones left out).  An experiment ends with the ``sweep``
    snapshot of its last cell: the cell names it (``exp``), or it is
    the sweep's own kind.  Its time runs from the previous line (or the
    start), and ``wall_s`` keeps the durations.  Inline, experiments run
    one after another, so that is all of the experiment's cells; on
    workers they overlap, and it is the wall time between one
    experiment finishing and the next (the durations still add up to
    the run's).  It says ``failed after`` if any of the experiment's
    cells was quarantined.
    """

    def __init__(self, kind: str, cells) -> None:
        self.kind = kind
        self.wall_s: dict[str, float] = {}
        self._left = collections.Counter(c.get("exp", kind) for c in cells)
        self._since = time.perf_counter()
        self._quarantined = 0
        self._failed: set[str] = set()

    def on_snapshot(self, record) -> None:
        """Time the experiment ``record`` finishes, if it finishes one."""
        if record.get("kind") != "sweep":
            return
        exp = record.get("exp", self.kind)
        if record["quarantined"] > self._quarantined:  # this cell failed
            self._quarantined = record["quarantined"]
            self._failed.add(exp)
        self._left[exp] -= 1
        if self._left[exp]:
            return
        self.wall_s[exp] = round(record["wall"] - self._since, 3)
        self._since = record["wall"]
        print(f"  [{exp}: "
              f"{'failed after' if exp in self._failed else 'done in'} "
              f"{self.wall_s[exp]:.1f} s]", file=sys.stderr)


def _print_report(spec, rollup, run_dir: str | None) -> str:
    """Render a sweep's rollup with its kind's renderer; print it (and
    write ``DIR/report.txt``) unless it is empty.  Returns the text."""
    from repro.experiments import runner
    from repro.obs.jsonl import atomic_write

    text = runner.TABLE[spec.kind].render(spec, rollup)
    if text:
        if run_dir:
            with atomic_write(Path(run_dir) / REPORT) as fh:
                fh.write(text + "\n")
        print(text)
    return text


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload import CoriModel, ThetaModel, write_swf

    factory = ThetaModel if args.system == "theta" else CoriModel
    try:
        if args.nodes < 0:  # 0: the paper's machine
            raise ValueError(f"--nodes must be >= 0, got {args.nodes}")
        model = factory.scaled(args.nodes) if args.nodes else factory.paper()
        rng = np.random.default_rng(args.seed)
        jobs = model.generate(args.jobs, rng, load_factor=args.load_factor)
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
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
    from repro.schedulers import POLICIES
    from repro.sim.cluster import Cluster
    from repro.sim.engine import Engine
    from repro.workload import read_swf

    if args.agent is None:
        # --objective and --seed are None unless given: an agent file
        # holds its own, and an agent replay's manifest has no seed
        args.objective = args.objective or "capability"
        args.seed = args.seed or 0
        policy = POLICIES[args.policy](args.objective, args.seed)
        nodes = args.nodes
        replay = {"policy": args.policy, "objective": args.objective}
    else:
        from repro.core import persistence

        try:
            policy = persistence.load_agent(args.agent)
        except persistence.CheckpointError as exc:
            print(f"bad agent file: {exc}", file=sys.stderr)
            return 2
        policy.eval(online_learning=not args.frozen)
        nodes = policy.config.num_nodes
        replay = {"agent": persistence.agent_kind(policy),
                  "agent_file": args.agent, "frozen": args.frozen}
    try:
        if args.agent is None and args.frozen:
            raise ValueError("--frozen applies only with --agent")
        for flag, value in (("--objective", args.objective),
                            ("--seed", args.seed)):
            if args.agent is not None and value is not None:
                raise ValueError(f"{flag} applies only with --policy")
        if nodes is None:
            raise ValueError("--nodes is required with a policy")
        if args.nodes not in (None, nodes):
            raise ValueError(f"--nodes {args.nodes} differs from the "
                             f"agent's {nodes} nodes")
        jobs = read_swf(args.trace, procs_per_node=args.procs_per_node,
                        max_jobs=args.max_jobs)
        faults = parse_faults(args.faults)
        # the engine refuses a job larger than the machine as it is built
        engine = Engine(Cluster(nodes), policy, jobs, faults=faults,
                        trace=Path(args.run_dir) / TRACE if args.run_dir
                        else None)
    except (OSError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print("trace contains no usable jobs", file=sys.stderr)
        return 1
    _run_dir(args)
    # the current live channel for the run: the engine finds the bus
    with _live_session(args):
        result = engine.run()
    summary = _print_metrics(policy.name, result).as_dict()
    _print_resilience(result)
    if result.resilience is not None:
        summary["resilience"] = result.resilience.as_dict()
    _write_manifest(args, kind="simulate", summary=summary, config={
        "trace": args.trace,
        "nodes": nodes,
        **replay,
        "procs_per_node": args.procs_per_node,
        "max_jobs": args.max_jobs,
        "faults": faults.as_dict() if faults is not None else None,
    })
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.core import AGENTS
    from repro.core.config import DRASConfig
    from repro.core.persistence import (
        CheckpointError,
        agent_kind,
        load_checkpoint,
    )
    from repro.obs.manifest import describe_workload
    from repro.rl.curriculum import train_with_curriculum
    from repro.rl.trainer import TrainingHistory
    from repro.workload import CoriModel, ThetaModel
    from repro.workload.jobsets import arrival_rate, real_jobsets

    factory = ThetaModel if args.system == "theta" else CoriModel
    objective = "capability" if args.system == "theta" else "capacity"
    try:
        for flag, value, least in (
                ("--nodes", args.nodes, 1),
                ("--train-jobs", args.train_jobs, 1),
                ("--jobs-per-set", args.jobs_per_set, 1),
                ("--real", args.real, 1), ("--synthetic", args.synthetic, 1),
                ("--sampled", args.sampled, 0)):
            if value < least:
                raise ValueError(f"{flag} must be "
                                 f"{'positive' if least else '>= 0'}, "
                                 f"got {value}")
        model = factory.scaled(args.nodes)
        config = DRASConfig.scaled(
            args.nodes, objective=objective, window=args.window,
            time_scale=factory.MAX_RUNTIME, seed=args.seed,
        )
        faults = parse_faults(args.faults)
        rng = np.random.default_rng(args.seed)
        base = model.generate(args.train_jobs, rng)
        validation = model.generate(max(50, args.train_jobs // 5), rng)
        # the curriculum's base trace must be sampleable and long enough
        # to cut into the real jobsets
        if args.sampled:
            arrival_rate(base)
        real_jobsets(base, args.real)
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    history = None
    resume_after = None
    if args.resume:
        try:
            loaded = load_checkpoint(args.out)
        except CheckpointError as exc:
            print(f"bad agent file: {exc}", file=sys.stderr)
            return 2
        agent = loaded.agent
        for flag, key, given, held in (
                ("--agent", "kind", args.agent, agent_kind(agent)),
                ("--nodes", "num_nodes", args.nodes, agent.config.num_nodes),
                ("--window", "window", args.window, agent.config.window),
                ("--seed", "seed", args.seed, agent.config.seed),
                ("--system", "objective", objective,
                 agent.config.objective),
                # no --faults: the file's own
                ("--faults", "faults", faults or loaded.faults,
                 loaded.faults)):
            if given != held:
                shown = getattr(args, flag[2:])
                if key == "faults":  # as a spec --faults reads back
                    held = "none" if held is None else ",".join(
                        f"{name}={value}"
                        for name, value in held.as_dict().items())
                print(f"bad input: {flag} {shown} does not match "
                      f"{args.out}, trained with {key}={held}",
                      file=sys.stderr)
                return 2
        history = TrainingHistory.from_records(loaded.episodes)
        resume_after = loaded.episodes_done
        faults = loaded.faults
        print(f"resuming from {args.out}: "
              f"{loaded.episodes_done} episodes already done")
    else:
        agent = AGENTS[args.agent](config)
    run_dir = _run_dir(args)
    log = None
    if run_dir and args.live:  # the training log of a watched run
        from repro.obs.live import SnapshotWriter

        log = SnapshotWriter(run_dir / LOG, source="train",
                             resume_after=resume_after)
    try:
        with _live_session(args, shard=False):
            history = train_with_curriculum(
                agent, model, base, validation, rng,
                n_sampled=args.sampled, n_real=args.real,
                n_synthetic=args.synthetic,
                jobs_per_set=args.jobs_per_set,
                telemetry=log,
                faults=faults,
                checkpoint_path=args.out,
                history=history,
            )
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

    try:
        jobs = read_swf(args.trace, procs_per_node=args.procs_per_node,
                        max_jobs=args.max_jobs)
    except (OSError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
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
    from repro.experiments import pool, runner
    from repro.obs.analyze import summarize_trace
    from repro.obs.live import read_log
    from repro.obs.manifest import RunManifest
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
        text = ""
        if store.rollup_path.exists():
            identity = load(store.spec_path)
            identity.pop("schema", None)
            spec = pool.SweepSpec(**identity)
            text = runner.TABLE[spec.kind].render(spec,
                                                  load(store.rollup_path))
        log = artifact(LOG, read_log)
        path = write_report(
            run_dir / "report.html",
            title=args.title,
            manifest=artifact(
                MANIFEST, lambda path: RunManifest.read(path).as_dict()),
            telemetry=log["train"] if log is not None else None,
            log=log,
            trace=artifact(TRACE, summarize_trace),
            profile=artifact(PROFILE, load),
        )
    except (OSError, ValueError, TypeError, pool.SweepError) as exc:
        print(f"cannot build report: {exc}", file=sys.stderr)
        return 2
    if text:
        print(text)
    print(f"wrote report to {path}", file=sys.stderr)
    return 0


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
    from repro.core import AGENTS
    from repro.schedulers import POLICIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRAS (IPDPS'21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "reproduce",
        help="regenerate a paper table/figure (or all): a crash-safe "
             "sweep of its cells, inline or on worker processes")
    # set after add_argument, which formats the choices to check them
    p.add_argument("experiment").choices = _ExperimentChoices()
    p.add_argument("--scale", default="default",
                   help="tiny | default | paper (default: default)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed; per-cell seeds derive from it")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="worker processes (default 0: run every cell "
                        "inline in this process)")
    p.add_argument("--resume", action="store_true",
                   help="continue the interrupted run in --run-dir: skip "
                        "cells it already holds, retry quarantined ones")
    p.add_argument("--timeout", type=float, default=0.0, metavar="S",
                   help="per-cell wall-clock budget on workers; a cell "
                        "attempt running longer is killed and retried "
                        "(default 0: no parent-side timeout)")
    p.add_argument("--retries", type=int, metavar="N",
                   help="retry budget per cell before quarantine "
                        "(default: repro.experiments.pool.DEFAULT_RETRIES)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="sweep knob (JSON value or string) overriding the "
                        "command's own; repeatable, e.g. --param "
                        "'mtbf_grid=[0,2000]', --param 'only=[\"fig6\"]' "
                        "with all, --param full_size_overhead=false")
    _add_run_args(
        p, "fault-process override for the faultsweep experiment, e.g. "
           "mtbf=5000,mttr=1800,seed=1",
        holds=", report.txt (the printed report) and the sweep store "
              "(spec.json, shards/, rollup.json); DIR must be new or "
              "empty unless --resume")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("generate", help="synthesize an SWF trace")
    p.add_argument("system", choices=("theta", "cori"))
    p.add_argument("jobs", type=int)
    p.add_argument("--nodes", type=int, default=0,
                   help="system size (default: the paper's full size)")
    p.add_argument("--load-factor", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "simulate", help="replay an SWF trace under a policy or an agent")
    p.add_argument("trace")
    p.add_argument("--nodes", type=int,
                   help="system size (with --agent: the agent's)")
    replay = p.add_mutually_exclusive_group()
    replay.add_argument("--policy", choices=POLICIES, default="fcfs")
    replay.add_argument("--agent", metavar="FILE",
                        help="replay under the agent of an agent file "
                             "(train --out)")
    p.add_argument("--frozen", action="store_true",
                   help="with --agent: disable online learning")
    p.add_argument("--objective", choices=("capability", "capacity"),
                   help="with --policy (default capability)")
    p.add_argument("--procs-per-node", type=int, default=1)
    p.add_argument("--max-jobs", type=int, default=None)
    p.add_argument("--seed", type=int,
                   help="with --policy (default 0)")
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
    p.add_argument("--agent", choices=AGENTS, default="pg")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--train-jobs", type=int, default=2000)
    p.add_argument("--sampled", type=int, default=4)
    p.add_argument("--real", type=int, default=4)
    p.add_argument("--synthetic", type=int, default=12)
    p.add_argument("--jobs-per-set", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="FILE",
                   help="the agent file, written atomically after every "
                        "episode")
    p.add_argument("--resume", action="store_true",
                   help="continue the run in --out FILE: skip its "
                        "episodes and keep writing it.  --agent, --nodes, "
                        "--window, --seed, --system and a given --faults "
                        "are checked against FILE (no --faults: FILE's "
                        "own); --train-jobs, --sampled, --real and "
                        "--jobs-per-set are not, and must match the "
                        "original run (a larger --synthetic extends it)")
    _add_run_args(
        p, "train under seeded fault injection, e.g. "
           "mtbf=5000,mttr=1800,seed=1 (the fault seed is offset per "
           "episode; validation uses the base seed)",
        holds=" (the agent file goes to --out)",
        log="the training log, one record per episode, cut back to "
            "FILE's episodes on --resume")
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
        help="render a run directory (--run-dir) without re-running it",
    )
    p.add_argument("run_dir", metavar="DIR",
                   help="writes DIR/report.html from its manifest.json, "
                        "log.jsonl, trace.jsonl and profile.json; a sweep "
                        "store also prints its report from rollup.json")
    p.add_argument("--title", default="repro run report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
