"""Self-tests of the benchmark harness (``pytest benchmarks/perf -q``)."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from compare import verdict
from repro.nn.network import Network
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.workload.models import ThetaModel
from spans import Span, SpanRecorder, Target, aggregate, patched, self_times
from validate import count_failed, invalid_jobs, sim_digest
from workloads import WORKLOADS, ProbedFCFSEasy, fresh, make_trace

PERF = Path(run.__file__).resolve().parent
BENCHMARK = json.loads((PERF.parents[1] / "BENCHMARK.json").read_text())


# -- the contract file and the harness agree ---------------------------------

def test_benchmark_json_names_what_the_harness_emits():
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_paper_scale_is_pinned():
    nodes = {w.name: w.num_nodes for w in WORKLOADS}
    assert nodes.pop("cori_easy") == 12076
    assert set(nodes.values()) == {4360}


# -- smoke: every metric, finite, with a unit, in under 30 s ------------------

def test_smoke_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30
    records = json.loads(out.read_text())["records"]
    expected = {
        "untraced": [name for name, _ in run.END_TO_END],
        "traced": [name for name, _, _ in layers.PER_LAYER],
    }
    seen = set()
    for record in records:
        seen.add((record["workload"], record["mode"]))
        assert record["correct"] and record["failed"] == 0 and record["ops"] > 0
        assert list(record["metrics"]) == expected[record["mode"]]
        for entry in record["metrics"].values():
            assert math.isfinite(entry["value"]) and entry["unit"]
        assert {"nproc", "blas_threads", "python", "numpy", "git_sha"} \
            <= set(record["env"])
        assert record["repetitions"]["wall_s_raw"]
    assert seen == {(w.name, mode) for w in WORKLOADS for mode in expected}
    by_key = {(r["workload"], r["mode"]): r["metrics"] for r in records}
    for name in ("theta_pg_decide", "theta_dql_decide"):
        traced = by_key[name, "traced"]
        assert traced["nn.backward_calls"]["value"] == 0
        assert traced["nn.adam_calls"]["value"] == 0
        assert traced["nn.forward_calls"]["value"] > 0
    assert by_key["theta_pg_train", "traced"]["nn.adam_calls"]["value"] > 0
    assert by_key["theta_easy_traced", "traced"]["obs.trace.overhead_ratio"]["value"] > 0


def test_single_workload_run_ends_with_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "cori_easy",
         "--smoke", "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, check=True)
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


# -- span arithmetic ----------------------------------------------------------

def test_self_time_on_a_synthetic_nest():
    spans = [
        Span("a", "root", 0.0, 10.0, -1),
        Span("b", "child", 1.0, 4.0, 0),
        Span("c", "leaf", 2.0, 3.0, 1),
        Span("b", "child", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = aggregate(spans)
    assert totals["a", "root"].self_s == 3.0 and totals["a", "root"].total_s == 10.0
    assert totals["b", "child"].calls == 2
    assert totals["b", "child"].self_s == 6.0 and totals["b", "child"].total_s == 7.0
    assert sum(t.self_s for t in totals.values()) == 10.0   # layers add up


def test_recorder_nests_spans_by_call_stack():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", "f", lambda: 1)
    outer = recorder.wrap("outer", "g", lambda: inner() + inner())
    assert outer() == 2
    assert [(s.layer, s.parent) for s in recorder.spans] \
        == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in recorder.spans)


# -- patching is undone -------------------------------------------------------

def class_dict_entries():
    return {(t.owner, t.attr): t.owner.__dict__[t.attr] for t in layers.targets()}


def test_patched_attributes_are_restored():
    before = class_dict_entries()
    assert Network.__dict__["__call__"] is Network.__dict__["forward"]
    with patched(SpanRecorder(), layers.targets()):
        during = class_dict_entries()
        assert all(during[key] is not before[key] for key in before)
    after = class_dict_entries()
    assert all(after[key] is before[key] for key in before)
    assert Network.__dict__["__call__"] is Network.__dict__["forward"]


def test_patched_attributes_are_restored_after_an_exception():
    before = class_dict_entries()
    with pytest.raises(RuntimeError, match="boom"):
        with patched(SpanRecorder(), layers.targets()):
            raise RuntimeError("boom")
    assert all(class_dict_entries()[key] is before[key] for key in before)


def test_a_target_that_does_not_exist_restores_the_ones_before_it():
    before = class_dict_entries()
    bad = layers.targets() + [Target(Network, "no_such_method", "nn", "x")]
    with pytest.raises(KeyError):
        with patched(SpanRecorder(), bad):
            pass
    assert all(class_dict_entries()[key] is before[key] for key in before)


# -- validity checker ---------------------------------------------------------

@pytest.fixture()
def finished():
    model = ThetaModel.scaled(64)
    jobs = model.generate(150, np.random.default_rng(5), load_factor=3.0)
    result = run_simulation(64, FCFSEasy(), jobs)
    return result.jobs, result.num_instances


def test_a_real_schedule_is_valid(finished):
    jobs, instances = finished
    assert invalid_jobs(jobs, 64) == set()
    assert count_failed(jobs, 64, instances) == 0
    assert count_failed(jobs, 64, 0) == len(jobs)


def test_planted_capacity_overlap_is_flagged(finished):
    jobs, _ = finished
    first = min(jobs, key=lambda job: job.start_time)
    late = max(jobs, key=lambda job: job.start_time)
    assert late.start_time >= first.end_time
    # stretch a whole-machine job across the run: everything that
    # starts under it now overflows the machine
    first.size = 64
    first.end_time = late.end_time
    first.runtime = first.end_time - first.start_time
    bad = invalid_jobs(jobs, 64)
    assert jobs.index(late) in bad


def test_planted_dependency_violation_is_flagged(finished):
    jobs, _ = finished
    early = min(jobs, key=lambda job: job.start_time)
    late = max(jobs, key=lambda job: job.end_time)
    early.dependencies = (late.job_id,)
    assert invalid_jobs(jobs, 64) == {jobs.index(early)}


def test_wrong_end_time_and_unfinished_jobs_are_flagged(finished):
    jobs, _ = finished
    jobs[3].end_time += 1.0
    jobs[7].end_time = None
    assert invalid_jobs(jobs, 64) >= {3, 7}


# -- digest -------------------------------------------------------------------

def test_latency_probe_leaves_the_digest_unchanged():
    trace = make_trace(ThetaModel.scaled(64), 200, 3.0, seed=1)
    plain = run_simulation(64, FCFSEasy(), fresh(trace))
    probe = ProbedFCFSEasy()
    probe.latencies = []
    probed = run_simulation(64, probe, fresh(trace))
    assert sim_digest([plain.jobs]) == sim_digest([probed.jobs])
    assert len(probe.latencies) == probed.num_instances


def test_digest_sees_a_changed_start_time():
    trace = make_trace(ThetaModel.scaled(64), 50, 3.0, seed=1)
    jobs = run_simulation(64, FCFSEasy(), trace).jobs
    before = sim_digest([jobs])
    jobs[10].start_time += 1.0
    assert sim_digest([jobs]) != before


def test_seed_changes_the_inputs_and_nothing_else():
    model = ThetaModel.scaled(64)

    def shape(jobs):
        return [(j.size, j.priority, len(j.dependencies)) for j in jobs]

    def times(jobs):
        return [(j.submit_time, j.runtime, j.walltime) for j in jobs]

    a, again, b = (make_trace(model, 80, 2.0, seed) for seed in (0, 0, 1))
    assert times(a) == times(again)
    assert shape(a) == shape(b)
    assert all(x != y for x, y in zip(times(a), times(b)))
    assert all(j.runtime <= j.walltime for j in b)


# -- compare ------------------------------------------------------------------

def entry(samples):
    ordered = sorted(samples)
    return {"value": ordered[len(ordered) // 2], "min": ordered[0],
            "max": ordered[-1], "samples": samples}


@pytest.mark.parametrize("a, b, better, expected", [
    ([1.00, 1.01, 1.02], [1.03, 1.04, 1.05], "lower", "same"),
    ([1.00, 1.01, 1.02], [1.20, 1.21, 1.22], "lower", "worse"),
    ([1.00, 1.01, 1.02], [0.80, 0.81, 0.82], "lower", "better"),
    ([100, 101, 102], [80, 81, 82], "higher", "worse"),
    ([100, 101, 102], [120, 121, 122], "higher", "better"),
    ([1.0, 1.3, 1.6], [1.1, 1.35, 1.7], "lower", "unresolved"),
    ([1.0, 1.3, 1.6], [0.5, 0.7, 0.9], "lower", "better"),
    ([1.0, 1.3, 1.6], [1.7, 2.0, 2.3], "lower", "worse"),
])
def test_compare_verdicts(a, b, better, expected):
    assert verdict(entry(a), entry(b), better, 0.10) == expected
