"""Tracer round-trip, span-tree reconstruction, and bit-identity."""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import LiveBus
from repro.obs.profile import Profiler
from repro.obs.trace import (
    BUFFER_LINES,
    TRACE_SCHEMA,
    Tracer,
    TraceWarning,
    build_span_tree,
    channels,
    read_trace,
    sinks,
    span,
)
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.workload.models import ThetaModel


REPO = Path(__file__).resolve().parent.parent


def _jobs(n=120, nodes=32, seed=0):
    model = ThetaModel.scaled(nodes)
    return model.generate(n, np.random.default_rng(seed))


class TestTracerEmission:
    def test_meta_record_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(path):
            pass
        records = read_trace(path)
        assert records[0] == {"type": "meta", "schema": TRACE_SCHEMA}

    def test_round_trip_span_tree(self, tmp_path):
        """emit -> parse JSONL -> reconstruct the exact span tree."""
        path = tmp_path / "t.jsonl"
        with Tracer(path) as tr:
            outer = tr.begin("outer", t=1.0)
            tr.event("boom", job=7)
            tr.end(tr.begin("inner", depth=2))
            tr.end(outer)
            tr.event("orphan")  # outside any span: dropped by the builder

        roots = build_span_tree(read_trace(path))
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "outer"
        assert root.fields == {"t": 1.0}
        assert root.wall_end is not None and root.duration >= 0.0
        assert [e["name"] for e in root.events] == ["boom"]
        assert root.events[0]["job"] == 7
        assert [c.name for c in root.children] == ["inner"]
        inner = root.children[0]
        assert inner.pid == root.sid
        assert inner.fields == {"depth": 2}
        assert [s.name for s in root.walk()] == ["outer", "inner"]

    def test_end_must_match_innermost(self):
        tr = Tracer(io.StringIO())
        a = tr.begin("a")
        tr.begin("b")
        with pytest.raises(ValueError, match="innermost"):
            tr.end(a)

    def test_file_like_sink_not_closed(self):
        sink = io.StringIO()
        with Tracer(sink) as tr:
            tr.event("x")
        assert not sink.closed
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [r["type"] for r in lines] == ["meta", "event"]

    def test_buffering_flushes_on_threshold(self):
        sink = io.StringIO()
        tr = Tracer(sink)
        assert sink.getvalue() == ""  # meta still buffered
        for _ in range(BUFFER_LINES - 2):
            tr.event("e")
        assert sink.getvalue() == ""
        tr.event("e")
        assert len(sink.getvalue().splitlines()) == BUFFER_LINES
        tr.event("e")
        tr.flush()
        assert len(sink.getvalue().splitlines()) == BUFFER_LINES + 1
        tr.close()
        assert not sink.closed

    def test_numpy_fields_serialized(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(path) as tr:
            tr.event("e", size=np.int64(5), frac=np.float64(0.5))
        record = read_trace(path)[1]
        assert record["size"] == 5 and record["frac"] == 0.5

    def test_closed_tracer_refuses_records(self):
        sink = io.StringIO()
        tr = Tracer(sink)
        sid = tr.begin("open")
        emit = tr.event_shape("e", job=int)
        tr.close()
        written = sink.getvalue()
        for record in (lambda: tr.event("e", job=1), lambda: tr.begin("s"),
                       lambda: tr.end(sid), lambda: emit(1),
                       lambda: tr.begin_shape("s", t=float)(1.0)):
            with pytest.raises(ValueError, match="closed"):
                record()
        tr.flush()
        tr.close()
        assert sink.getvalue() == written

    def test_name_field_overrides_record_name(self):
        """``name`` is positional-only, so a field may be called ``name``;
        like any field named after a fixed one, it wins in the record."""
        sink = io.StringIO()
        tr = Tracer(sink)
        tr.event("e", name="job-7")
        tr.end(tr.begin("b", name="job-8", t=1.0))
        with sinks(tr), span("g", name="job-9"):
            pass
        tr.close()
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [(r["type"], r["name"]) for r in records if "name" in r] == [
            ("event", "job-7"), ("begin", "job-8"), ("begin", "job-9")]

    def test_invalid_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_unclosed_span_has_zero_duration(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tr = Tracer(path)
        tr.begin("crashed")
        tr.close()
        (root,) = build_span_tree(read_trace(path))
        assert root.wall_end is None and root.duration == 0.0


#: quotes, ``%``, escapes, control and non-ASCII characters
_TEXT = st.text(
    alphabet=st.sampled_from('ab "\\%/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    max_size=6)
_SCALARS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, float("nan"), float("inf"),
                     float("-inf")]),
    _TEXT,
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
)
#: field keys, some colliding with a base field or needing escapes
_KEYS = st.sampled_from(["t", "job", "mode", "pid", "wall", "sid", "type",
                         "name", 'q"u%dte', "\u00e9\n"])


def _expected(line, rtype, name, fields, sid, pid):
    """``json.dumps`` of the record ``line`` should hold, with its own wall."""
    record = {"type": rtype, "name": name, "sid": sid, "pid": pid,
              "wall": json.loads(line)["wall"]}
    if rtype == "event":
        del record["sid"]
    record.update(fields)
    return json.dumps(record, default=lambda value: value.item())


class TestTraceBytes:
    """Every line is byte for byte ``json.dumps`` of its record, on the
    compiled path and the fallback alike."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["engine.release", 'n"a%sme', "\u00e9"]),
           fields=st.dictionaries(_KEYS, _SCALARS, max_size=5),
           declared=st.lists(st.sampled_from([int, float, str]),
                             min_size=5, max_size=5),
           nested=st.booleans())
    def test_lines_equal_json_dumps(self, name, fields, declared, nested):
        sink = io.StringIO()
        tr = Tracer(sink)
        pid = tr.begin("outer") if nested else None
        values = tuple(fields.values())
        # the value's own class when it has a slot, else a mismatch
        types = {key: value.__class__
                 if value.__class__ in (int, float, str) else cls
                 for (key, value), cls in zip(fields.items(), declared)}
        emit = tr.event_shape(name, **types)
        tr.event(name, **fields)
        sid = tr.begin(name, **fields)
        tr.end(sid)
        emit(*values)
        emit(*values)  # the float memo's hit
        shape_sid = tr.begin_shape(name, **types)(*values)
        tr.close()
        lines = sink.getvalue().splitlines()[1 + nested:]
        assert len(lines) == 6
        for line, (rtype, record_sid) in zip(
                lines, [("event", None), ("begin", sid), ("end", sid),
                        ("event", None), ("event", None),
                        ("begin", shape_sid)]):
            if rtype == "end":
                assert line == json.dumps({"type": "end", "sid": sid,
                                           "wall": json.loads(line)["wall"]})
            else:
                assert line == _expected(line, rtype, name, fields,
                                         record_sid, pid)

    @settings(max_examples=200, deadline=None)
    @given(clocks=st.lists(st.one_of(
        st.floats(), st.sampled_from([0.0, -0.0, 1.5, float("nan")])),
        max_size=8))
    def test_clock_fragment_follows_every_value(self, clocks):
        """The per-key float memo: equal, sign-flipped and repeated
        clocks across the records of a span and its events."""
        sink = io.StringIO()
        tr = Tracer(sink)
        emit = tr.event_shape("e", t=float, job=int)
        for t in clocks:
            sid = tr.begin("s", t=t)
            emit(t, 1)
            tr.end(sid)
        tr.close()
        lines = sink.getvalue().splitlines()[1:]
        for k, t in enumerate(clocks):
            begin, event = lines[3 * k], lines[3 * k + 1]
            sid = json.loads(begin)["sid"]
            assert begin == _expected(begin, "begin", "s", {"t": t}, sid, None)
            assert event == _expected(event, "event", "e", {"t": t, "job": 1},
                                      None, sid)


class TestGlobalTracer:
    def test_set_and_restore(self):
        tr = Tracer(io.StringIO())
        before = channels()
        with sinks(tr):
            assert channels().tracer is tr
        assert channels().tracer is before.tracer


class TestChannels:
    def test_sinks_replace_channel_by_channel_and_restore(self):
        """The one way to install sinks: each one given wins for the
        block, the other channels are kept (or off, ``inherit=False``),
        and the previous set comes back on any exit."""
        tracer, profiler, bus = Tracer(io.StringIO()), Profiler(), LiveBus()
        before = channels()
        with sinks(profiler=profiler):
            assert channels() == (before.tracer, profiler, before.live)
            with pytest.raises(RuntimeError), sinks(tracer, live=bus):
                assert channels() == (tracer, profiler, bus)
                raise RuntimeError("boom")
            assert channels() == (before.tracer, profiler, before.live)
            with sinks(live=bus, inherit=False):
                assert channels() == (None, None, bus)
        assert channels() is before


class TestGlobalSpan:
    """``repro.obs.span``: the one helper the agents, NN stack and trainer use."""

    @pytest.fixture
    def globals_(self):
        sink = io.StringIO()
        with sinks(inherit=False):
            yield {"tracer": Tracer(sink), "profiler": Profiler(),
                   "sink": sink}

    def _records(self, globals_):
        globals_["tracer"].flush()
        lines = globals_["sink"].getvalue().splitlines()
        return [json.loads(l) for l in lines][1:]

    def test_dark_is_one_shared_null_context(self, globals_):
        first, second = span("nn.forward", layers=3), span("nn.backward")
        assert first is second
        with first:
            with second:     # reentrant
                pass

    def test_tracer_only(self, globals_):
        with sinks(globals_["tracer"]), span("nn.forward", layers=3,
                                              shape=(1, 2)):
            pass
        begin, end = self._records(globals_)
        assert (begin["type"], begin["name"], begin["layers"],
                begin["shape"]) == ("begin", "nn.forward", 3, [1, 2])
        assert end == {"type": "end", "sid": begin["sid"], "wall": end["wall"]}
        assert globals_["profiler"].roots == []

    def test_profiler_only(self, globals_):
        with sinks(profiler=globals_["profiler"]), span("nn.adam_step", t=1):
            pass
        (root,) = globals_["profiler"].roots
        assert (root.name, root.calls) == ("nn.adam_step", 1)
        assert self._records(globals_) == []

    def test_scope_encloses_span_and_unwinds_on_error(self, globals_):
        tracer, profiler = globals_["tracer"], globals_["profiler"]
        with pytest.raises(RuntimeError), sinks(tracer, profiler):
            with span("nn.backward", layers=2):
                # inside: the scope is open and so is the span
                assert profiler.open_depth == 1
                assert [r["type"] for r in self._records(globals_)] \
                    == ["begin"]
                raise RuntimeError("boom")
        assert profiler.open_depth == 0
        assert [r["type"] for r in self._records(globals_)] \
            == ["begin", "end"]

    def test_instrumented_sites_kept_their_names(self):
        """The perf harness wraps these class attributes from outside."""
        from repro.nn.network import Network
        from repro.nn.optim import Adam

        assert Network.__call__ is Network.forward
        for owner, gone in ((Network, "_instrumented_forward"),
                            (Network, "_instrumented_backward"),
                            (Adam, "_instrumented_step")):
            assert not hasattr(owner, gone)
        assert callable(Network.backward) and callable(Adam.step)


class TestTrainerSinks:
    """A short ``Trainer.train`` with the global tracer and profiler on."""

    @pytest.fixture(scope="class")
    def sinks(self, tmp_path_factory):
        from repro.core.config import DRASConfig
        from repro.core.dras_pg import DRASPG
        from repro.rl.trainer import Trainer

        nodes = 16
        model = ThetaModel.scaled(nodes)
        rng = np.random.default_rng(0)
        jobsets = [("sampled", model.generate(30, rng)) for _ in range(2)]
        config = DRASConfig.scaled(nodes, window=4, seed=0,
                                   time_scale=ThetaModel.MAX_RUNTIME)
        trainer = Trainer(DRASPG(config), nodes,
                          validation_jobs=model.generate(30, rng))
        path = tmp_path_factory.mktemp("train") / "t.jsonl"
        profiler = Profiler()
        with Tracer(path) as tracer, sinks(tracer, profiler):
            trainer.train(jobsets)
        return build_span_tree(read_trace(path)), profiler

    def test_train_scopes_are_profile_roots(self, sinks):
        _, profiler = sinks
        assert profiler.open_depth == 0
        roots = {root.name: root for root in profiler.roots}
        assert set(roots) == {"train.episode", "train.validate"}
        for root in roots.values():
            assert root.calls == 2
            assert "engine.run" in root.children
            assert root.children["engine.run"].calls == 2

    def test_trace_fold_agrees_with_live_profile(self, sinks):
        """The two sinks see the same spans: equal calls per shared name."""
        roots, profiler = sinks
        folded = {e.name: e.calls for e in Profiler().fold(roots).flat()}
        live = {e.name: e.calls for e in profiler.flat()}
        shared = folded.keys() & live.keys()
        assert shared == {"train.episode", "train.validate",
                          "engine.instance", "nn.forward", "nn.backward",
                          "nn.adam_step", "agent.encode", "agent.sample",
                          "agent.reward"}
        assert {name: folded[name] for name in shared} \
            == {name: live[name] for name in shared}


class TestEngineTracing:
    def test_traced_run_bit_identical(self, tmp_path):
        """Tracing must not perturb the simulation in any way."""
        jobs = _jobs()
        plain = run_simulation(32, FCFSEasy(), [j.copy_fresh() for j in jobs])
        traced = run_simulation(
            32, FCFSEasy(), [j.copy_fresh() for j in jobs],
            trace=tmp_path / "t.jsonl",
        )
        for a, b in zip(plain.jobs, traced.jobs):
            assert (a.start_time, a.end_time, a.mode) == (
                b.start_time, b.end_time, b.mode)
        assert plain.makespan == traced.makespan
        assert plain.num_instances == traced.num_instances

    def test_engine_emits_instance_spans_and_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = run_simulation(32, FCFSEasy(), _jobs(), trace=path)
        roots = build_span_tree(read_trace(path))
        instances = [s for s in roots if s.name == "engine.instance"]
        assert len(instances) == result.num_instances
        events = [e for s in instances for e in s.events]
        names = {e["name"] for e in events}
        assert "engine.allocate" in names
        assert "engine.release" in names
        allocs = [e for e in events if e["name"] == "engine.allocate"]
        assert len(allocs) == len(result.finished_jobs)
        # every event carries the engine clock alongside the wall clock
        assert all("t" in e and "wall" in e for e in events)


class TestTraceDurability:
    def test_exit_flushes_under_exception(self, tmp_path):
        """The ``with`` block persists the buffered tail when it raises."""
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with Tracer(path) as tr:
                tr.begin("doomed")
                tr.event("last_words", n=1)
                raise RuntimeError("boom")
        records = read_trace(path)
        assert [r["type"] for r in records] == ["meta", "begin", "event"]
        assert records[2]["n"] == 1

    def test_crashed_process_leaves_parseable_trace(self, tmp_path):
        """REPRO_TRACE + an unhandled exception: atexit flush still
        persists everything emitted before the crash."""
        out = tmp_path / "crash.jsonl"
        code = (
            "import numpy as np\n"
            "from repro.schedulers.fcfs import FCFSEasy\n"
            "from repro.sim.engine import run_simulation\n"
            "from repro.workload.models import ThetaModel\n"
            "class Exploding(FCFSEasy):\n"
            "    def schedule(self, view):\n"
            "        if view.now > 0:\n"
            "            raise RuntimeError('mid-run crash')\n"
            "        return super().schedule(view)\n"
            "jobs = ThetaModel.scaled(32).generate("
            "40, np.random.default_rng(0))\n"
            "run_simulation(32, Exploding(), jobs)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(REPO / "src"),
                 "REPRO_TRACE": str(out), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "mid-run crash" in proc.stderr
        records = read_trace(out)  # strict parse: every line survived whole
        assert records[0]["type"] == "meta"
        instances = [s for s in build_span_tree(records)
                     if s.name == "engine.instance"]
        assert instances, "spans emitted before the crash must survive"
        # the span the policy raised inside is unclosed but present
        assert any(s.wall_end is None for s in instances)


class TestLenientParsing:
    def test_lenient_read_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(path) as tr:
            sid = tr.begin("ok")
            tr.event("e")
            tr.end(sid)
        # simulate a crash mid-write: corrupt tail + a stray array line
        with path.open("a", encoding="utf-8") as fh:
            fh.write('[1, 2]\n{"type": "beg')
        with pytest.warns(TraceWarning):
            records = read_trace(path, strict=False)
        assert [r["type"] for r in records] == [
            "meta", "begin", "event", "end"]

    def test_build_span_tree_survives_malformed_records(self):
        records = [
            {"type": "begin", "name": "a", "sid": 1, "wall": 0.0},
            {"type": "begin", "name": "no_sid"},          # dropped
            {"type": "end", "sid": 99, "wall": 1.0},      # unknown span
            {"type": "end", "sid": "x", "wall": 1.0},     # bogus sid type
            {"type": "event", "name": "e", "pid": 1},
            {"type": "event", "name": "orphan", "pid": 42},
            # a record family older traces carry: parsed past, not kept
            {"type": "counter", "name": "queue", "value": 3, "pid": 1},
            "not a dict",
            {"type": "end", "sid": 1, "wall": 2.0},
        ]
        (root,) = build_span_tree(records)
        assert root.name == "a"
        assert root.wall_end == 2.0
        assert [e["name"] for e in root.events] == ["e"]
