"""Profiler tree semantics, engine integration, and bit-identity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.nn.network import build_dras_network
from repro.nn.optim import Adam
from repro.obs.profile import PROFILE_SCHEMA, Profiler
from repro.obs.trace import Tracer, channels, read_trace, sinks, span
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.workload.models import ThetaModel

REPO = Path(__file__).resolve().parent.parent


def _jobs(n=120, nodes=32, seed=0):
    model = ThetaModel.scaled(nodes)
    return model.generate(n, np.random.default_rng(seed))


class TestProfilerTree:
    def test_tree_accumulation(self):
        prof = Profiler()
        with sinks(profiler=prof, inherit=False):
            for _ in range(3):
                with span("outer"):
                    with span("inner"):
                        pass
                    with span("inner"):
                        pass
        (outer,) = prof.roots
        assert outer.name == "outer" and outer.calls == 3
        (inner,) = outer.children.values()
        assert inner.calls == 6
        assert outer.total_s >= inner.total_s >= 0.0
        assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)

    def test_same_name_at_distinct_positions(self):
        prof = Profiler()
        with sinks(profiler=prof, inherit=False):
            with span("a"), span("x"):
                pass
            with span("b"), span("x"):
                pass
        assert [r.name for r in prof.roots] == ["a", "b"]
        flat = {e.name: e for e in prof.flat()}
        assert flat["x"].calls == 2  # aggregated across both positions

    def test_flat_no_double_count_on_recursion(self):
        prof = Profiler()
        with sinks(profiler=prof, inherit=False), span("r"), span("r"):
            pass
        flat = {e.name: e for e in prof.flat()}
        outer_total = prof.roots[0].total_s
        # cum counts only the top-most occurrence; self sums both levels
        assert flat["r"].calls == 2
        assert flat["r"].cum_s == pytest.approx(outer_total)
        assert flat["r"].self_s == pytest.approx(outer_total)

    def test_pop_without_push_raises(self):
        with pytest.raises(ValueError, match="pop"):
            Profiler().pop()

    def test_pop_to_unwinds_exception(self):
        prof = Profiler()
        depth = prof.open_depth
        with pytest.raises(RuntimeError):
            try:
                prof.push("a")
                prof.push("b")
                raise RuntimeError("boom")
            finally:
                prof.pop_to(depth)
        assert prof.open_depth == 0
        # the abandoned scopes still accumulated their time
        (a,) = prof.roots
        assert a.calls == 1 and a.children["b"].calls == 1

    def test_scope_exits_on_exception(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with sinks(profiler=prof, inherit=False), span("s"):
                raise RuntimeError("boom")
        assert prof.open_depth == 0
        assert prof.roots[0].total_s >= 0.0

    def test_write_json_round_trip(self, tmp_path):
        prof = Profiler()
        prof.push("engine.run")
        prof.push("engine.instance")
        prof.pop_to(0)
        out = prof.write_json(tmp_path / "p.json")
        doc = json.loads(out.read_text())
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["roots"][0]["name"] == "engine.run"
        assert doc["roots"][0]["calls"] == 1
        assert {e["name"] for e in doc["flat"]} == {
            "engine.run", "engine.instance"}


class TestEngineProfiling:
    def test_counts_match_instances(self):
        prof = Profiler()
        result = run_simulation(32, FCFSEasy(), _jobs(), profile=prof)
        flat = {e.name: e for e in prof.flat()}
        assert flat["engine.run"].calls == 1
        assert flat["engine.instance"].calls == result.num_instances
        assert flat["engine.schedule"].calls == result.num_instances
        # scheduling happens inside the instance scope
        (run_root,) = prof.roots
        instance = run_root.children["engine.instance"]
        assert "engine.schedule" in instance.children

    def test_profiled_run_bit_identical(self):
        jobs = _jobs()
        plain = run_simulation(32, FCFSEasy(), [j.copy_fresh() for j in jobs])
        profiled = run_simulation(
            32, FCFSEasy(), [j.copy_fresh() for j in jobs], profile=Profiler()
        )
        for a, b in zip(plain.jobs, profiled.jobs):
            assert (a.start_time, a.end_time, a.mode) == (
                b.start_time, b.end_time, b.mode)
        assert plain.makespan == profiled.makespan
        assert plain.num_instances == profiled.num_instances

    def test_no_open_scopes_after_policy_raises(self):
        class Exploding(FCFSEasy):
            def schedule(self, view):
                raise RuntimeError("boom")

        prof = Profiler()
        with pytest.raises(RuntimeError, match="boom"):
            run_simulation(32, Exploding(), _jobs(n=20), profile=prof)
        assert prof.open_depth == 0
        assert prof.roots[0].name == "engine.run"


class TestNNProfiling:
    def test_nn_scopes_recorded(self, rng):
        prof = Profiler()
        with sinks(profiler=prof):
            net = build_dras_network(10, 8, 8, 4, rng=rng)
            opt = Adam(net.parameters())
            x = rng.standard_normal((2, 10, 2))
            out = net.forward(x)
            net.backward(np.ones_like(out))
            opt.step()
        flat = {e.name: e for e in prof.flat()}
        assert flat["nn.forward"].calls == 1
        assert flat["nn.backward"].calls == 1
        assert flat["nn.adam_step"].calls == 1


def frozen_pg_run(**engine_options):
    """A frozen DRAS-PG agent's run on 16 nodes (also run by a child)."""
    config = DRASConfig.scaled(16, window=4, hidden1=16, hidden2=8, seed=0,
                               time_scale=ThetaModel.MAX_RUNTIME)
    agent = DRASPG(config).eval(online_learning=False)
    return run_simulation(16, agent, _jobs(n=40, nodes=16), **engine_options)


class TestGlobalProfiler:
    def test_set_and_restore(self):
        prof = Profiler()
        before = channels()
        with sinks(profiler=prof):
            assert channels().profiler is prof
        assert channels().profiler is before.profiler

    def test_explicit_sinks_see_the_env_route_scopes(self, tmp_path):
        """``Engine(profile=, trace=)`` are current for the run: the
        agent's ``nn.forward`` reaches both, and the explicit profile has
        the scope names and call counts ``REPRO_PROFILE`` records."""
        out, path = tmp_path / "env.json", tmp_path / "t.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c",
             "from tests.test_obs_profile import frozen_pg_run; frozen_pg_run()"],
            env={**os.environ, "REPRO_PROFILE": str(out),
                 "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO}"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        profiler = Profiler()
        with Tracer(path) as tracer:
            frozen_pg_run(profile=profiler, trace=tracer)
        assert {"nn.forward", "agent.encode", "agent.sample"} <= {
            r["name"] for r in read_trace(path) if r["type"] == "begin"}
        explicit = {e.name: e.calls for e in profiler.flat()}
        assert "nn.forward" in explicit
        assert explicit == {e["name"]: e["calls"]
                            for e in json.loads(out.read_text())["flat"]}

    def test_env_activation_writes_json_at_exit(self, tmp_path):
        """REPRO_PROFILE profiles a whole process and persists at exit."""
        out = tmp_path / "profile.json"
        code = (
            "import numpy as np\n"
            "from repro.schedulers.fcfs import FCFSEasy\n"
            "from repro.sim.engine import run_simulation\n"
            "from repro.workload.models import ThetaModel\n"
            "jobs = ThetaModel.scaled(32).generate("
            "40, np.random.default_rng(0))\n"
            "run_simulation(32, FCFSEasy(), jobs)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(REPO / "src"),
                 "REPRO_PROFILE": str(out), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["schema"] == PROFILE_SCHEMA
        names = {e["name"] for e in doc["flat"]}
        assert {"engine.run", "engine.instance", "engine.schedule"} <= names
