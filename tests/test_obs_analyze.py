"""Trace analytics: span profiles, histograms, timelines."""

import itertools
import json

import numpy as np
import pytest

from repro.obs.analyze import (
    UtilizationTimeline,
    decision_latencies,
    summarize_trace,
    utilization_timeline,
)
from repro.obs.metrics import TIMER_HIST_EDGES, nearest_rank
from repro.obs.profile import Profiler
from repro.obs.report import render_report
from repro.obs.trace import Tracer, build_span_tree, read_trace, sinks, span
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.sim.faults import FaultConfig
from repro.workload.models import ThetaModel


def _jobs(n=120, nodes=32, seed=0):
    model = ThetaModel.scaled(nodes)
    return model.generate(n, np.random.default_rng(seed))


def _latency_trace(tmp_path, durations):
    """A trace of one closed ``engine.instance`` span per duration."""
    path = tmp_path / "latency.jsonl"
    records = [{"type": "meta", "schema": "repro.trace/v1"}]
    for sid, seconds in enumerate(durations, start=1):
        records += [
            {"type": "begin", "name": "engine.instance", "sid": sid,
             "pid": None, "wall": 0.0, "t": float(sid), "batch": 1},
            {"type": "end", "sid": sid, "wall": seconds},
        ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _trace_roots(tmp_path, build):
    path = tmp_path / "t.jsonl"
    with Tracer(path) as tr:
        build(tr)
    return build_span_tree(read_trace(path))


class TestRollups:
    """A trace's span table is the profile fold of its span forest."""

    def test_rollup_counts_and_nesting(self, tmp_path):
        def build(tr):
            with sinks(tr, inherit=False):
                for _ in range(3):
                    with span("outer"), span("inner"):
                        pass

        profile = Profiler().fold(_trace_roots(tmp_path, build))
        (outer,) = profile.roots
        (inner,) = outer.children.values()
        assert (outer.name, outer.calls) == ("outer", 3)
        assert (inner.name, inner.calls) == ("inner", 3)
        flat = {e.name: e for e in profile.flat()}
        # self time excludes the nested child
        assert 0.0 <= flat["outer"].self_s <= flat["outer"].cum_s
        assert flat["outer"].self_s == pytest.approx(
            outer.total_s - inner.total_s)
        assert flat["outer"].mean_s == pytest.approx(outer.total_s / 3)

    def test_unclosed_spans_counted_not_timed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tr = Tracer(path)
        tr.begin("crashed")
        tr.close()
        summary = summarize_trace(path)
        assert summary.n_spans == summary.n_unclosed == 1
        (entry,) = summary.profile.flat()
        assert (entry.name, entry.calls) == ("crashed", 1)
        assert entry.cum_s == entry.self_s == entry.mean_s == 0.0
        # an unclosed parent lasts as long as its closed children
        records = [
            {"type": "begin", "name": "run", "sid": 1, "pid": None,
             "wall": 0.0},
            {"type": "begin", "name": "step", "sid": 2, "pid": 1,
             "wall": 1.0},
            {"type": "end", "sid": 2, "wall": 3.0},
        ]
        flat = {e.name: e for e in
                Profiler().fold(build_span_tree(records)).flat()}
        assert (flat["run"].calls, flat["run"].cum_s,
                flat["run"].self_s) == (1, 2.0, 0.0)
        assert (flat["step"].cum_s, flat["step"].self_s) == (2.0, 2.0)


class TestLatencyHistogram:
    def test_empty_and_degenerate(self, tmp_path):
        empty = summarize_trace(_latency_trace(tmp_path, []))
        assert empty.decision_histogram.count == 0
        assert "decision latency" not in render_report(trace=empty)
        single = summarize_trace(_latency_trace(tmp_path, [0.25] * 5))
        assert sum(single.decision_histogram.bins) == 5
        assert sum(1 for c in single.decision_histogram.bins if c) == 1
        assert single.decision_latency(0.50) == 0.25
        assert single.decision_latency(1.0) == 0.25

    def test_counts_and_percentiles(self, tmp_path):
        values = [0.001 * (i + 1) for i in range(100)]
        summary = summarize_trace(_latency_trace(tmp_path, values))
        hist = summary.decision_histogram
        assert hist.count == 100 and sum(hist.bins) == 100
        assert hist.mean == pytest.approx(0.0505)
        assert summary.decision_latencies == values
        assert summary.decision_latency(0.50) == pytest.approx(0.050)
        assert summary.decision_latency(0.99) == pytest.approx(0.099)
        assert summary.decision_latency(1.0) == pytest.approx(0.100)
        # the exact quantile lies in the bin where the counts reach its rank
        for q in (0.50, 0.90, 0.99):
            rank = nearest_rank(q, hist.count)
            index = next(i for i, seen in
                         enumerate(itertools.accumulate(hist.bins))
                         if seen >= rank)
            assert TIMER_HIST_EDGES[index - 1] <= summary.decision_latency(q) \
                < TIMER_HIST_EDGES[index]
        html = render_report(trace=summary)
        assert "".join(f"<tr><td>{stat}</td><td>{value}</td></tr>"
                       for stat, value in (
                           ("n", 100), ("mean", "50.5ms"), ("p50", "50ms"),
                           ("p90", "90ms"), ("p99", "99ms"),
                           ("max", "100ms"))) in html

    def test_decision_latencies_from_engine_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = run_simulation(32, FCFSEasy(), _jobs(), trace=path)
        roots = build_span_tree(read_trace(path))
        latencies = decision_latencies(roots)
        assert len(latencies) == result.num_instances
        assert all(d >= 0.0 for d in latencies)


class TestUtilizationTimeline:
    def test_step_series_from_events(self):
        records = [
            {"type": "event", "name": "engine.allocate", "t": 0.0, "job": 1,
             "size": 4},
            {"type": "event", "name": "engine.allocate", "t": 0.0, "job": 2,
             "size": 2},
            {"type": "event", "name": "engine.release", "t": 10.0, "job": 1,
             "size": 4},
            {"type": "event", "name": "unrelated", "t": 5.0, "size": 99},
            # a kill carries no size: it frees the job's latest allocation
            {"type": "event", "name": "engine.job_kill", "t": 20.0, "job": 2},
            {"type": "event", "name": "engine.allocate", "t": 25.0, "job": 2,
             "size": 2},
            {"type": "event", "name": "engine.release", "t": 30.0, "job": 2,
             "size": 2},
            "garbage",
        ]
        timeline = utilization_timeline(records)
        # simultaneous events collapse to one point per timestamp
        assert timeline == [(0.0, 6), (10.0, 2), (20.0, 0), (25.0, 2),
                            (30.0, 0)]

    def test_engine_trace_ends_drained(self, tmp_path):
        """The replay is the engine-side observer, kills included."""
        faults = FaultConfig(mtbf=20000.0, mttr=1800.0,
                             job_kill_mtbf=30000.0, seed=1)
        for nodes, n, run_faults in ((32, 120, None), (64, 300, faults)):
            path = tmp_path / f"t{nodes}.jsonl"
            observer = UtilizationTimeline()
            result = run_simulation(nodes, FCFSEasy(), _jobs(n, nodes),
                                    trace=path, observers=[observer],
                                    faults=run_faults)
            timeline = utilization_timeline(read_trace(path))
            steps = list(zip(*(a.tolist() for a in observer.steps())))
            assert steps[0] == (0.0, 0) and timeline == steps[1:]
            assert timeline[-1][1] == 0  # all nodes released at the end
            assert max(busy for _, busy in timeline) <= nodes
            assert min(busy for _, busy in timeline) >= 0
        # the faulted run did kill jobs and fail nodes
        assert result.resilience.jobs_killed > 0
        assert result.resilience.node_failures > 0

    def test_validation(self):
        def event(name, t, job, size=None):
            return {"type": "event", "name": name, "t": t, "job": job,
                    "size": size}

        assert utilization_timeline([]) == []
        # a kill whose allocation the trace never saw, or a negative
        # time, is skipped
        assert utilization_timeline([event("engine.job_kill", 1.0, 9),
                                     event("engine.allocate", -1.0, 9, 2)]) == []
        # the clock going back starts the next run of a multi-run trace
        run = [event("engine.allocate", 5.0, 1, 2),
               event("engine.release", 9.0, 1, 2)]
        assert utilization_timeline(run + run) == [(5.0, 2), (9.0, 0)] * 2


class TestSummarize:
    def test_summarize_and_format(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = run_simulation(32, FCFSEasy(), _jobs(), trace=path)
        summary = summarize_trace(path)
        assert summary.n_unclosed == 0
        hist = summary.decision_histogram
        assert hist.count == sum(hist.bins) == result.num_instances
        latencies = sorted(decision_latencies(build_span_tree(read_trace(path))))
        assert summary.decision_latencies == latencies
        for q in (0.50, 0.99, 1.0):
            exact = latencies[nearest_rank(q, len(latencies)) - 1]
            assert summary.decision_latency(q) == exact
        assert summary.event_counts["engine.allocate"] == len(
            result.finished_jobs)
        assert summary.peak_busy_nodes <= 32
        t0, t1 = summary.sim_time_span
        assert t0 <= t1
        html = render_report(trace=summary)
        assert "engine.instance" in html
        assert "Scheduler decision latency" in html
        allocs = summary.event_counts["engine.allocate"]
        assert f"<tr><td>engine.allocate</td><td>{allocs:,}</td></tr>" in html
        assert f"<tr><td>simulated span</td><td>{t0:,.0f} .. {t1:,.0f} s " \
            f"({(t1 - t0) / 3600:,.2f} h)</td></tr>" in html

    def test_summarize_tolerates_truncation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_simulation(32, FCFSEasy(), _jobs(n=40), trace=path)
        lines = path.read_text().splitlines()
        # cut mid-run and corrupt the tail, as a crash would
        truncated = tmp_path / "crash.jsonl"
        truncated.write_text(
            "\n".join(lines[: len(lines) // 2]) + '\n{"type": "beg')
        with pytest.warns(UserWarning):
            summary = summarize_trace(truncated)
        assert summary.n_records > 0
