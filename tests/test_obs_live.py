"""Live telemetry bus: stamping, sinks, spec parsing, publishers."""

import io
import json
import os

import numpy as np
import pytest

from repro.obs import live as live_mod
from repro.obs.live import (
    LIVE_SCHEMA,
    LiveBus,
    ProgressSink,
    SnapshotWriter,
    live_from_spec,
)
from repro.obs import trace as trace_mod
from repro.obs.trace import channels, sinks
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.workload.models import ThetaModel


def _jobs(n=120, nodes=32, seed=0):
    model = ThetaModel.scaled(nodes)
    return model.generate(n, np.random.default_rng(seed))


class Collector:
    """A sink that records every snapshot it is handed."""

    def __init__(self):
        self.records = []
        self.closed = False

    def on_snapshot(self, record):
        self.records.append(record)

    def close(self):
        self.closed = True


class TestLiveBus:
    def test_publish_stamps_schema_seq_and_wall(self):
        bus = LiveBus()
        r1 = bus.publish("sim", {"done": 1})
        r2 = bus.publish("sim", {"done": 2})
        r3 = bus.publish("train", {"episode": 0})
        assert r1["schema"] == LIVE_SCHEMA and r1["kind"] == "sim"
        assert (r1["seq"], r2["seq"]) == (1, 2)   # per-kind, from 1
        assert r3["seq"] == 1                      # independent counter
        assert r1["wall"] <= r2["wall"]

    def test_broken_sink_is_detached_not_fatal(self):
        class Exploding:
            calls = 0

            def on_snapshot(self, record):
                type(self).calls += 1
                raise RuntimeError("boom")

        bus = LiveBus()
        good = bus.attach(Collector())
        bus.attach(Exploding())
        with pytest.warns(RuntimeWarning) as caught:
            bus.publish("sim", {"done": 1})
            bus.publish("sim", {"done": 2})
        assert Exploding.calls == 1          # dropped after the first raise
        assert len(good.records) == 2        # the healthy sink kept both
        # one warning, naming the sink's type and its error
        assert [str(w.message) for w in caught] == [
            "live: detached Exploding after RuntimeError: boom"]

    def test_close_closes_sinks_and_detaches(self):
        class Unclosable:
            def on_snapshot(self, record):
                pass

            def close(self):
                raise OSError("already gone")

        bus = LiveBus()
        sink = bus.attach(Collector())
        bus.attach(Unclosable())
        bus.close()                          # must not raise
        assert sink.closed
        bus.publish("sim", {"done": 1})
        assert sink.records == []            # detached by close()


class TestProgressSink:
    def _record(self, **fields):
        record = {"schema": LIVE_SCHEMA, "kind": "sim", "seq": 1, "wall": 0.0}
        record.update(fields)
        return record

    def test_format_line_fields_progress_and_eta(self):
        sink = ProgressSink(io.StringIO())
        first = self._record(t=100.0, events=500, queue_depth=3,
                             done=20, total=80)
        sink.on_snapshot(first)
        # one snapshot gives no rate, so no ETA
        assert sink.format_line(first).endswith("done 20/80 (25%)")
        line = sink.format_line(self._record(seq=2, wall=10.0, t=900.0,
                                             events=4500, queue_depth=7,
                                             done=40, total=80))
        assert line.startswith("[sim] t=900.0s ev=4500 q=7")
        assert "done 40/80 (50%)" in line
        # 20 done in 10s -> 2/s -> 40 remaining / 2 = 20s
        assert line.endswith("ETA 20s")

    def test_non_tty_renders_one_line_per_snapshot(self):
        stream = io.StringIO()
        sink = ProgressSink(stream, min_interval_s=0.0)
        sink.on_snapshot(self._record(done=1, total=2))
        sink.on_snapshot(self._record(seq=2, done=2, total=2))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2 and all(l.startswith("[sim]") for l in lines)

    def test_rate_limit_drops_interior_but_never_final(self):
        stream = io.StringIO()
        sink = ProgressSink(stream, min_interval_s=3600.0)
        sink.on_snapshot(self._record(done=1, total=3))
        sink.on_snapshot(self._record(seq=2, done=2, total=3))   # limited
        sink.on_snapshot(self._record(seq=3, done=3, total=3, final=True))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "done 3/3" in lines[-1]

    def test_closed_stream_does_not_abort_the_run(self):
        stream = io.StringIO()
        sink = ProgressSink(stream, min_interval_s=0.0)
        stream.close()
        sink.on_snapshot(self._record(done=1, total=2))   # must not raise
        sink.close()


class TestSnapshotWriter:
    def test_shard_has_meta_header_then_sorted_snapshots(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        writer = SnapshotWriter(path, source="w0")
        bus = LiveBus()
        bus.attach(writer)
        bus.publish("sim", {"done": 1, "total": 2})
        bus.close()
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["type"] == "meta" and meta["schema"] == LIVE_SCHEMA
        assert meta["source"] == "w0" and "unix" in meta
        row = json.loads(lines[1])
        assert row["type"] == "snapshot" and row["source"] == "w0"
        assert row["kind"] == "sim" and row["done"] == 1
        # sorted keys -> byte-stable shards
        assert lines[1] == json.dumps(row, sort_keys=True)

    def test_default_source_names_the_pid(self, tmp_path):
        import os

        writer = SnapshotWriter(tmp_path / "s.jsonl")
        assert writer.source == f"pid{os.getpid()}"
        writer.close()

    def test_close_is_idempotent_and_stops_writes(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = SnapshotWriter(path, source="w")
        writer.close()
        writer.close()
        writer.on_snapshot({"kind": "sim"})   # silently dropped
        assert len(path.read_text().splitlines()) == 1


class TestLiveFromSpec:
    @pytest.mark.parametrize("spec", ["", "0", "off", "  off  "])
    def test_disabled_specs(self, spec):
        assert live_from_spec(spec) is None

    @pytest.mark.parametrize("spec", ["1", "progress"])
    def test_progress_specs(self, spec):
        bus = live_from_spec(spec, stream=io.StringIO())
        assert isinstance(bus._sinks[0], ProgressSink)
        bus.close()

    @pytest.mark.parametrize("spec", ["9099", "70000", " 2 "])
    def test_port_spec_rejected(self, spec, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="HTTP view was removed"):
            live_from_spec(spec, stream=io.StringIO())
        assert list(tmp_path.iterdir()) == []   # no shard named after it

    def test_path_spec_attaches_a_snapshot_writer(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        bus = live_from_spec(str(path))
        assert isinstance(bus._sinks[0], SnapshotWriter)
        bus.publish("sim", {"done": 1})
        bus.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["source"] == f"pid{os.getpid()}"


class TestGlobalBus:
    @pytest.fixture()
    def fresh_global(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "_CURRENT", None)
        yield monkeypatch

    def test_unset_env_means_no_bus(self, fresh_global):
        fresh_global.delenv("REPRO_LIVE", raising=False)
        assert channels().live is None

    def test_env_spec_builds_and_caches_the_bus(self, fresh_global):
        fresh_global.setenv("REPRO_LIVE", "progress")
        bus = channels().live
        assert isinstance(bus._sinks[0], ProgressSink)
        assert channels().live is bus      # cached, env not re-read
        bus.close()

    def test_set_global_returns_previous_and_blocks_env(self, fresh_global):
        fresh_global.setenv("REPRO_LIVE", "progress")
        mine = LiveBus()
        with sinks(live=mine, inherit=False) as current:
            assert current.live is mine
            assert channels().live is mine
            with sinks(inherit=False):
                assert channels().live is None   # env is NOT re-read
            assert channels().live is mine
        assert trace_mod._CURRENT is None      # the previous set is back

    def test_env_port_spec_rejected(self, fresh_global):
        fresh_global.setenv("REPRO_LIVE", "9099")
        with pytest.raises(ValueError, match="HTTP view was removed"):
            channels()


class TestEngineIntegration:
    def test_engine_publishes_on_event_cadence(self, monkeypatch):
        monkeypatch.setattr(live_mod, "LIVE_SIM_EVERY", 100)
        bus = LiveBus()
        sink = bus.attach(Collector())
        run_simulation(32, FCFSEasy(), _jobs(), live=bus)
        assert len(sink.records) >= 2
        assert all(r["kind"] == "sim" for r in sink.records)
        seqs = [r["seq"] for r in sink.records]
        assert seqs == list(range(1, len(seqs) + 1))
        final = sink.records[-1]
        assert final.get("final") is True
        assert final["done"] == final["total"] == 120
        assert {"t", "events", "queue_depth", "running",
                "utilization"} <= set(final)

    def test_live_run_is_bit_identical_to_dark(self, monkeypatch):
        monkeypatch.setattr(live_mod, "LIVE_SIM_EVERY", 50)
        jobs = _jobs()
        dark = run_simulation(32, FCFSEasy(), [j.copy_fresh() for j in jobs])
        bus = LiveBus()
        bus.attach(Collector())
        watched = run_simulation(32, FCFSEasy(),
                                 [j.copy_fresh() for j in jobs],
                                 live=bus)
        for a, b in zip(dark.jobs, watched.jobs):
            assert (a.start_time, a.end_time, a.mode) == (
                b.start_time, b.end_time, b.mode)
        assert dark.makespan == watched.makespan
        assert dark.num_instances == watched.num_instances


class TestTrainerIntegration:
    def test_train_publishes_one_snapshot_per_episode(self):
        from repro.core.config import DRASConfig
        from repro.core.dras_pg import DRASPG
        from repro.rl.trainer import Trainer
        from tests.conftest import make_job

        config = DRASConfig(num_nodes=16, window=4, hidden1=16, hidden2=8,
                            seed=0, objective="capability", time_scale=1000.0)
        jobs = [make_job(size=4, walltime=50.0, submit=float(i * 10))
                for i in range(8)]
        bus = LiveBus()
        sink = bus.attach(Collector())
        with sinks(live=bus):
            Trainer(DRASPG(config), 16).train([("phase", jobs),
                                               ("phase", jobs)])
        # beside the "sim" snapshots of each episode's engine
        train = [r for r in sink.records if r["kind"] == "train"]
        assert [r["episode"] for r in train] == [0, 1]
        assert train[0]["done"] == 1 and train[0]["total"] == 2
        assert train[-1].get("final") is True
