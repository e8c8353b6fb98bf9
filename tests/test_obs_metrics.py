"""Metrics instruments and the registries exposed by engine/trainer/schedulers."""

import numpy as np
import pytest

from repro.obs.metrics import (
    TIMER_HIST_EDGES,
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
)
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.workload.models import ThetaModel


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_tracks_extremes(self):
        g = Gauge()
        for v in (3.0, -1.0, 7.0):
            g.set(v)
        assert (g.value, g.min, g.max, g.samples) == (7.0, -1.0, 7.0, 3)

    def test_timer_mean_and_ema(self):
        t = Timer(ema_alpha=0.5)
        t.observe(2.0)
        assert t.ema == 2.0  # first sample seeds the EMA
        t.observe(4.0)
        assert t.ema == pytest.approx(3.0)
        assert t.mean == pytest.approx(3.0)
        assert t.last == 4.0 and t.count == 2

    def test_timer_context_manager(self):
        t = Timer()
        with t.time():
            pass
        assert t.count == 1 and t.total >= 0.0

    def test_timer_alpha_validated(self):
        with pytest.raises(ValueError):
            Timer(ema_alpha=0.0)


class TestTimerHistogram:
    def test_bins_cover_underflow_interior_and_overflow(self):
        t = Timer()
        t.observe(0.0)        # underflow (<= 1 microsecond)
        t.observe(1e-7)       # underflow
        t.observe(0.01)       # interior
        t.observe(1e5)        # overflow (> 100 s)
        assert t.bins[0] == 2 and t.bins[-1] == 1
        assert sum(t.bins) == t.count == 4

    def test_interior_sample_lands_between_its_edges(self):
        t = Timer()
        t.observe(0.01)
        index = next(i for i, c in enumerate(t.bins) if c)
        assert TIMER_HIST_EDGES[index - 1] <= 0.01 < TIMER_HIST_EDGES[index]

    def test_quantiles_are_order_independent(self):
        samples = [1e-5, 3e-4, 0.002, 0.002, 0.05, 1.0, 9.0, 80.0]
        forward, backward = Timer(), Timer()
        for s in samples:
            forward.observe(s)
        for s in reversed(samples):
            backward.observe(s)
        assert forward.bins == backward.bins
        for q in (0.5, 0.9, 0.99):
            assert forward.quantile(q) == backward.quantile(q)

    def test_quantile_resolution_is_the_bin(self):
        t = Timer()
        for _ in range(100):
            t.observe(0.01)
        # every rank lands in the one occupied bin: its geometric
        # midpoint, within the 4-bins-per-decade resolution of the value
        assert t.p50 == t.p90 == t.p99
        assert t.p50 == pytest.approx(0.01, rel=0.35)

    def test_p99_separates_the_tail(self):
        t = Timer()
        for _ in range(99):
            t.observe(0.001)
        for _ in range(5):
            t.observe(10.0)
        assert t.p50 == pytest.approx(0.001, rel=0.35)
        assert t.p99 == pytest.approx(10.0, rel=0.35)
        assert t.p99 > 100 * t.p50

    def test_empty_timer_quantile_is_zero(self):
        assert Timer().quantile(0.5) == 0.0

    def test_reset_clears_the_bins(self):
        t = Timer()
        t.observe(0.5)
        t.reset()
        assert sum(t.bins) == 0 and t.p99 == 0.0

    def test_snapshot_exposes_quantiles_and_a_bin_copy(self):
        reg = MetricsRegistry()
        timer = reg.timer("t")
        timer.observe(0.02)
        snap = reg.snapshot()["t"]
        assert snap["p50_s"] == timer.p50
        assert snap["p90_s"] == timer.p90
        assert snap["p99_s"] == timer.p99
        assert snap["hist_counts"] == timer.bins
        assert len(snap["hist_counts"]) == len(TIMER_HIST_EDGES) + 1
        snap["hist_counts"][0] += 1            # a copy, not the live list
        assert snap["hist_counts"] != timer.bins


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.timer("t").observe(0.25)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["g"]["value"] == 1.5 and snap["g"]["samples"] == 1
        assert snap["t"]["count"] == 1 and snap["t"]["total_s"] == 0.25

    def test_unsampled_gauge_has_null_extremes(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        snap = reg.snapshot()
        assert snap["g"]["min"] is None and snap["g"]["max"] is None

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {}


class TestWiredRegistries:
    def _run(self, n_jobs=80, nodes=32):
        model = ThetaModel.scaled(nodes)
        jobs = model.generate(n_jobs, np.random.default_rng(0))
        scheduler = FCFSEasy()
        engine = Engine(Cluster(nodes), scheduler, jobs)
        result = engine.run()
        return engine, scheduler, result

    def test_engine_metrics_populated(self):
        engine, _, result = self._run()
        snap = engine.metrics.snapshot()
        assert snap["engine.events_submit"] == len(result.jobs)
        assert snap["engine.events_finish"] == len(result.finished_jobs)
        assert snap["engine.jobs_started"] == len(result.finished_jobs)
        assert snap["engine.instances"] == result.num_instances
        assert snap["engine.schedule_s"]["count"] == result.num_instances

    def test_scheduler_metrics_populated_by_engine(self):
        _, scheduler, result = self._run()
        snap = scheduler.metrics.snapshot()
        assert snap["instances"] == result.num_instances
        assert snap["schedule_s"]["count"] == result.num_instances

    def test_trainer_metrics(self):
        from repro.core.config import DRASConfig
        from repro.core.dras_pg import DRASPG
        from repro.rl.trainer import Trainer
        from tests.conftest import make_job

        config = DRASConfig(num_nodes=16, window=4, hidden1=16, hidden2=8,
                            seed=0, objective="capability", time_scale=1000.0)
        agent = DRASPG(config)
        jobs = [make_job(size=4, walltime=50.0, submit=float(i * 10))
                for i in range(8)]
        trainer = Trainer(agent, 16, validation_jobs=jobs[:4])
        trainer.run_episode(jobs)
        trainer.validate()
        snap = trainer.metrics.snapshot()
        assert snap["train.episodes"] == 1
        assert snap["train.validations"] == 1
        assert snap["train.episode_s"]["count"] == 1


class TestResetSemantics:
    def test_reset_values_keeps_bindings(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        gauge = reg.gauge("g")
        timer = reg.timer("t")
        counter.inc(5)
        gauge.set(2.0)
        timer.observe(0.5)
        reg.reset_values()
        # names stay bound to the SAME objects, now zeroed
        assert reg.counter("c") is counter and counter.value == 0
        assert reg.gauge("g") is gauge and gauge.samples == 0
        assert reg.timer("t") is timer and timer.count == 0
        # cached references keep recording after the reset
        counter.inc()
        assert reg.snapshot()["c"] == 1

    def test_reset_values_zeroes_aliased_instrument_once(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        shared = a.timer("schedule_s")
        b.alias("schedule_s", shared)
        shared.observe(1.0)
        b.reset_values()
        # both registries see the same zeroed object
        assert a.timer("schedule_s").count == 0
        assert b.snapshot()["schedule_s"]["count"] == 0

    def test_alias_rejects_non_instrument(self):
        with pytest.raises(TypeError, match="not an instrument"):
            MetricsRegistry().alias("x", object())

    def test_scheduler_reset_between_runs(self):
        """reset_metrics between runs: counts reflect the second run only,
        and the engine alias survives because instruments are zeroed in
        place rather than dropped."""
        model = ThetaModel.scaled(32)
        scheduler = FCFSEasy()
        for expected_runs in (1, 2):
            jobs = model.generate(60, np.random.default_rng(expected_runs))
            engine = Engine(Cluster(32), scheduler, jobs)
            result = engine.run()
            snap = scheduler.metrics.snapshot()
            assert snap["instances"] == result.num_instances
            scheduler.reset_metrics()
        assert scheduler.metrics.snapshot()["instances"] == 0

    def test_reset_metrics_before_first_access_is_noop(self):
        scheduler = FCFSEasy()
        scheduler.__dict__.pop("_metrics", None)
        scheduler.reset_metrics()  # must not create the registry
        assert getattr(scheduler, "_metrics", None) is None

    def test_same_engine_rerun_accumulates_until_reset(self):
        model = ThetaModel.scaled(32)
        scheduler = FCFSEasy()
        jobs = model.generate(40, np.random.default_rng(0))
        engine = Engine(Cluster(32), scheduler, jobs)
        result = engine.run()
        first = engine.metrics.snapshot()["engine.instances"]
        assert first == result.num_instances
        engine.metrics.reset_values()
        assert engine.metrics.snapshot()["engine.instances"] == 0
        # the engine's cached instrument refs still work after zeroing
        assert scheduler.metrics.snapshot()["instances"] == 0
