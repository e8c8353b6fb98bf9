"""The duration histogram and the engine's two event counters."""

import numpy as np

from repro.obs.metrics import TIMER_HIST_EDGES, Counter, MetricsRegistry, Timer
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.job import JobState
from repro.workload.models import ThetaModel


class TestInstruments:
    def test_counter(self):
        c = Counter()
        assert c.value == 0
        c.value += 5
        assert c.value == 5

    def test_timer_mean_and_count(self):
        t = Timer()
        assert t.mean == 0.0
        t.observe(2.0)
        t.observe(4.0)
        assert (t.count, t.total, t.mean) == (2, 6.0, 3.0)


class TestTimerHistogram:
    def test_bins_cover_underflow_interior_and_overflow(self):
        t = Timer()
        t.observe(0.0)        # underflow (<= 1 microsecond)
        t.observe(1e-7)       # underflow
        t.observe(0.01)       # interior
        t.observe(1e5)        # overflow (> 100 s)
        assert t.bins[0] == 2 and t.bins[-1] == 1
        assert sum(t.bins) == t.count == 4
        assert len(t.bins) == len(TIMER_HIST_EDGES) + 1

    def test_interior_sample_lands_between_its_edges(self):
        t = Timer()
        t.observe(0.01)
        index = next(i for i, c in enumerate(t.bins) if c)
        assert TIMER_HIST_EDGES[index - 1] <= 0.01 < TIMER_HIST_EDGES[index]

    def test_bins_are_order_independent(self):
        samples = [1e-5, 3e-4, 0.002, 0.002, 0.05, 1.0, 9.0, 80.0]
        forward, backward = Timer(), Timer()
        for s in samples:
            forward.observe(s)
        for s in reversed(samples):
            backward.observe(s)
        assert forward.bins == backward.bins


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")


def _engine(n_jobs, nodes=32):
    jobs = ThetaModel.scaled(nodes).generate(n_jobs, np.random.default_rng(0))
    return Engine(Cluster(nodes), FCFSEasy(), jobs)


class TestWiredRegistries:
    def test_engine_metrics_populated(self):
        engine = _engine(80)
        result = engine.run()
        assert engine.metrics.counter("engine.events_submit").value \
            == len(result.jobs)
        assert engine.metrics.counter("engine.events_finish").value \
            == len(result.finished_jobs)

    def test_same_engine_rerun_accumulates(self):
        engine = _engine(40)
        submits = engine.metrics.counter("engine.events_submit")
        engine.run()
        assert submits.value == 40
        for job in engine._jobs.values():   # replay the same jobset
            job.state, job.start_time, job.end_time = JobState.PENDING, None, None
            job.mode, job.ever_reserved = None, False
        engine.run()
        assert submits.value == 80
