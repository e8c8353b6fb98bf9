"""Which calls the traced pass wraps, and the per-layer metrics they give.

Layer names are the repo's module names.  Every wrapped attribute is a
public method (or property) of a public class; counts are taken in the
same wrappers as the spans, so ratios are measured where the work
happens.
"""

from __future__ import annotations

import os
from statistics import median
from time import perf_counter
from typing import Any

from repro.core.agent import HierarchicalAgent
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.core.rewards import CapabilityReward
from repro.core.state import StateEncoder
from repro.nn.network import Network, count_parameters
from repro.nn.optim import Adam
from repro.obs.live import LiveBus
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.rl.trainer import Trainer
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.backfill import BackfillPlanner
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine, run_simulation
from repro.sim.events import EventQueue
from repro.sim.metrics import RunMetrics
from repro.sim.queue import WaitQueue
from repro.workload.models import WorkloadModel

from spans import LayerTotals, SpanRecorder, Target, aggregate, self_times
from workloads import ProbedFCFSEasy, Repetition, fresh

#: ``(name, unit, better)`` of every per-layer metric, in report order
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workload.generate_s", "s", "lower"),
    ("workload.jobs", "count", "higher"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.instances", "count", "lower"),
    ("sim.engine.events", "count", "higher"),
    ("sim.events.calls", "count", "lower"),
    ("sim.events.self_s", "s", "lower"),
    ("sim.queue.calls", "count", "lower"),
    ("sim.queue.self_s", "s", "lower"),
    ("sim.queue.depth_max", "count", "lower"),
    ("sim.cluster.query_calls", "count", "lower"),
    ("sim.cluster.query_s", "s", "lower"),
    ("sim.cluster.mutate_calls", "count", "lower"),
    ("sim.cluster.mutate_s", "s", "lower"),
    ("sim.cluster.node_state_calls", "count", "lower"),
    ("sim.cluster.node_state_s", "s", "lower"),
    ("sim.backfill.reserve_calls", "count", "lower"),
    ("sim.backfill.scan_calls", "count", "lower"),
    ("sim.backfill.pool_jobs", "count", "lower"),
    ("sim.backfill.hit_ratio", "ratio", "higher"),
    ("sim.backfill.self_s", "s", "lower"),
    ("schedulers.schedule_calls", "count", "lower"),
    ("schedulers.self_s", "s", "lower"),
    ("core.agent.decisions", "count", "lower"),
    ("core.agent.updates", "count", "higher"),
    ("core.agent.update_batch_mean", "count", "higher"),
    ("core.agent.self_s", "s", "lower"),
    ("core.state.calls", "count", "lower"),
    ("core.state.jobs_per_call", "count", "higher"),
    ("core.state.out_bytes", "bytes", "lower"),
    ("core.state.self_s", "s", "lower"),
    ("core.rewards.calls", "count", "lower"),
    ("core.rewards.self_s", "s", "lower"),
    ("nn.params", "count", "lower"),
    ("nn.forward_calls", "count", "lower"),
    ("nn.forward_rows", "count", "higher"),
    ("nn.forward_s", "s", "lower"),
    ("nn.forward_weight_bytes", "bytes", "lower"),
    ("nn.backward_calls", "count", "lower"),
    ("nn.backward_s", "s", "lower"),
    ("nn.adam_calls", "count", "lower"),
    ("nn.adam_s", "s", "lower"),
    ("rl.trainer.episode_s", "s", "lower"),
    ("rl.trainer.validate_s", "s", "lower"),
    ("rl.trainer.snapshot_s", "s", "lower"),
    ("rl.trainer.self_s", "s", "lower"),
    ("sim.metrics.self_s", "s", "lower"),
    ("obs.trace.overhead_ratio", "ratio", "lower"),
    ("obs.profile.overhead_ratio", "ratio", "lower"),
    ("obs.live.overhead_ratio", "ratio", "lower"),
    ("check.sanitize.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    # end-to-end quantities that are steady on some workloads only
    # (see README.md: "Demoted metrics"); measured untraced
    ("instance_p95_ms", "ms", "lower"),
    ("updates_per_s", "1/s", "higher"),
)


def _add(counts: dict[str, float], key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0.0) + amount


def _nbytes(value: Any) -> int:
    if isinstance(value, tuple):
        return sum(_nbytes(item) for item in value)
    return value.nbytes


def _after_generate(counts, args, result) -> None:
    # generation happens during set-up, outside any repetition: run.py
    # reads this count and the span straight from the set-up recorder
    _add(counts, "workload.jobs", len(result))


def _after_engine_run(counts, args, result) -> None:
    metrics = args[0].metrics
    _add(counts, "sim.engine.instances", result.num_instances)
    _add(counts, "sim.engine.events",
         metrics.counter("engine.events_submit").value
         + metrics.counter("engine.events_finish").value)


def _after_submit(counts, args, result) -> None:
    counts["sim.queue.depth_max"] = max(
        counts.get("sim.queue.depth_max", 0), len(args[0]))


def _after_scan(counts, args, result) -> None:
    _add(counts, "sim.backfill.pool_jobs", len(args[1]))
    if result:      # a job, or a non-empty candidate list
        _add(counts, "sim.backfill.hits", 1)


def _after_update(counts, args, result) -> None:
    agent = args[0]
    holder = agent.core if isinstance(agent, DRASPG) else agent
    _add(counts, "core.agent.update_batch", holder.last_update_batch)


def _after_encode_one(counts, args, result) -> None:
    _add(counts, "core.state.jobs", 1)
    _add(counts, "core.state.out_bytes", _nbytes(result))


def _after_encode_jobs(counts, args, result) -> None:
    _add(counts, "core.state.jobs", len(args[1]))
    _add(counts, "core.state.out_bytes", _nbytes(result))


def _after_encode_windows(counts, args, result) -> None:
    _add(counts, "core.state.jobs", sum(len(window) for window in args[1]))
    _add(counts, "core.state.out_bytes", _nbytes(result))


def _after_forward(counts, args, result) -> None:
    _add(counts, "nn.forward_rows", args[1].shape[0])


def targets() -> list[Target]:
    """Every class attribute a traced pass wraps."""
    out = [
        Target(WorkloadModel, "generate", "workload", "generate", _after_generate),
        Target(Engine, "run", "sim.engine", "run", _after_engine_run),
        Target(FCFSEasy, "schedule", "schedulers", "schedule"),
        Target(HierarchicalAgent, "schedule", "core.agent", "schedule"),
        Target(CapabilityReward, "__call__", "core.rewards", "reward"),
        Target(StateEncoder, "encode_window", "core.state", "encode",
               _after_encode_jobs),
        Target(StateEncoder, "encode_windows", "core.state", "encode",
               _after_encode_windows),
        Target(StateEncoder, "encode_job", "core.state", "encode",
               _after_encode_one),
        Target(StateEncoder, "encode_jobs_batch", "core.state", "encode",
               _after_encode_jobs),
        Target(Network, "forward", "nn", "forward", _after_forward),
        Target(Network, "__call__", "nn", "forward", _after_forward),
        Target(Network, "backward", "nn", "backward"),
        Target(Adam, "step", "nn", "adam"),
        Target(Trainer, "train", "rl.trainer", "train"),
        Target(Trainer, "run_episode", "rl.trainer", "episode"),
        Target(Trainer, "validate", "rl.trainer", "validate"),
        Target(RunMetrics, "from_result", "sim.metrics", "from_result"),
        Target(Cluster, "node_state", "sim.cluster", "node_state"),
        Target(BackfillPlanner, "reserve", "sim.backfill", "reserve"),
        Target(BackfillPlanner, "candidates", "sim.backfill", "scan", _after_scan),
        Target(BackfillPlanner, "first_candidate", "sim.backfill", "scan",
               _after_scan),
        Target(WaitQueue, "submit", "sim.queue", "op", _after_submit),
    ]
    for agent_class in (DRASPG, DRASDQL):
        out += [
            Target(agent_class, "select", "core.agent", "select"),
            Target(agent_class, "update", "core.agent", "update", _after_update),
            Target(agent_class, "state_dict", "rl.trainer", "snapshot"),
        ]
    out += [Target(EventQueue, attr, "sim.events", "op")
            for attr in ("push", "pop_simultaneous", "cancel")]
    out += [Target(WaitQueue, attr, "sim.queue", "op")
            for attr in ("remove", "window", "waiting", "peek_waiting",
                         "notify_finished", "requeue")]
    out += [Target(Cluster, attr, "sim.cluster", "query")
            for attr in ("estimated_release_times", "shadow_time",
                         "free_nodes_at", "reservation_point")]
    out += [Target(Cluster, attr, "sim.cluster", "mutate")
            for attr in ("allocate", "release", "release_killed",
                         "fail_nodes", "repair_nodes")]
    return out


def layer_metrics(recorder: SpanRecorder, rep: Repetition) -> dict[str, float]:
    """The span- and count-derived per-layer metrics of one traced repetition.

    Layers the workload does not exercise read 0.
    """
    totals = aggregate(recorder.spans)
    counts = recorder.counts

    def entry(layer: str, name: str) -> LayerTotals:
        return totals.get((layer, name), LayerTotals())

    def layer_self(layer: str) -> float:
        return sum(t.self_s for (lay, _), t in totals.items() if lay == layer)

    def layer_calls(layer: str) -> int:
        return sum(t.calls for (lay, _), t in totals.items() if lay == layer)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    scan = entry("sim.backfill", "scan")
    update = entry("core.agent", "update")
    encode = entry("core.state", "encode")
    forward = entry("nn", "forward")
    agent = rep.agent
    params = weight_bytes = 0
    if agent is not None:
        params = count_parameters(agent.network)
        weight_bytes = sum(p.value.nbytes for p in agent.network.parameters())
    in_region = sum(
        self_s for span, self_s in zip(recorder.spans, self_times(recorder.spans))
        if rep.started <= span.start and span.end <= rep.ended)
    return {
        "sim.engine.self_s": layer_self("sim.engine"),
        "sim.engine.instances": counts.get("sim.engine.instances", 0),
        "sim.engine.events": counts.get("sim.engine.events", 0),
        "sim.events.calls": layer_calls("sim.events"),
        "sim.events.self_s": layer_self("sim.events"),
        "sim.queue.calls": layer_calls("sim.queue"),
        "sim.queue.self_s": layer_self("sim.queue"),
        "sim.queue.depth_max": counts.get("sim.queue.depth_max", 0),
        "sim.cluster.query_calls": entry("sim.cluster", "query").calls,
        "sim.cluster.query_s": entry("sim.cluster", "query").self_s,
        "sim.cluster.mutate_calls": entry("sim.cluster", "mutate").calls,
        "sim.cluster.mutate_s": entry("sim.cluster", "mutate").self_s,
        "sim.cluster.node_state_calls": entry("sim.cluster", "node_state").calls,
        "sim.cluster.node_state_s": entry("sim.cluster", "node_state").self_s,
        "sim.backfill.reserve_calls": entry("sim.backfill", "reserve").calls,
        "sim.backfill.scan_calls": scan.calls,
        "sim.backfill.pool_jobs": counts.get("sim.backfill.pool_jobs", 0),
        "sim.backfill.hit_ratio": ratio(counts.get("sim.backfill.hits", 0),
                                        scan.calls),
        "sim.backfill.self_s": layer_self("sim.backfill"),
        "schedulers.schedule_calls": entry("schedulers", "schedule").calls,
        "schedulers.self_s": layer_self("schedulers"),
        "core.agent.decisions": entry("core.agent", "select").calls,
        "core.agent.updates": update.calls,
        "core.agent.update_batch_mean": ratio(
            counts.get("core.agent.update_batch", 0), update.calls),
        "core.agent.self_s": layer_self("core.agent"),
        "core.state.calls": encode.calls,
        "core.state.jobs_per_call": ratio(counts.get("core.state.jobs", 0),
                                          encode.calls),
        "core.state.out_bytes": counts.get("core.state.out_bytes", 0),
        "core.state.self_s": layer_self("core.state"),
        "core.rewards.calls": entry("core.rewards", "reward").calls,
        "core.rewards.self_s": layer_self("core.rewards"),
        "nn.params": params,
        "nn.forward_calls": forward.calls,
        "nn.forward_rows": counts.get("nn.forward_rows", 0),
        "nn.forward_s": forward.self_s,
        "nn.forward_weight_bytes": weight_bytes * forward.calls,
        "nn.backward_calls": entry("nn", "backward").calls,
        "nn.backward_s": entry("nn", "backward").self_s,
        "nn.adam_calls": entry("nn", "adam").calls,
        "nn.adam_s": entry("nn", "adam").self_s,
        "rl.trainer.episode_s": entry("rl.trainer", "episode").total_s,
        "rl.trainer.validate_s": entry("rl.trainer", "validate").total_s,
        "rl.trainer.snapshot_s": entry("rl.trainer", "snapshot").total_s,
        "rl.trainer.self_s": layer_self("rl.trainer"),
        "sim.metrics.self_s": layer_self("sim.metrics"),
        "trace.coverage": ratio(in_region, rep.wall_s),
    }


def observability_overheads(trace, num_nodes: int, kernel) -> dict[str, float]:
    """Enabled-path cost of each observability channel against a dark run.

    Replays ``trace`` once per channel, each enabled run bracketed by
    dark runs of the same trace; every run is calibrated by ``kernel``
    on both sides, and a ratio is the enabled wall over the median dark
    wall.
    """
    def wall(**channel: Any) -> float:
        jobs = fresh(trace)
        scheduler = ProbedFCFSEasy()
        scheduler.latencies = []
        before = kernel()
        start = perf_counter()
        run_simulation(num_nodes, scheduler, jobs, **channel)
        seconds = perf_counter() - start
        return seconds / (before + kernel())

    dark = [wall()]
    enabled = {}
    tracer = Tracer(os.devnull)
    for name, channel in (
        ("obs.trace", {"trace": tracer}),
        ("obs.profile", {"profile": Profiler()}),
        ("obs.live", {"live": LiveBus()}),
        ("check.sanitize", {"sanitize": True}),
    ):
        enabled[name] = wall(**channel)
        dark.append(wall())
    tracer.close()
    base = median(dark)
    return {f"{name}.overhead_ratio": seconds / base
            for name, seconds in enabled.items()}
