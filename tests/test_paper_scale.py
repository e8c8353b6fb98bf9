"""Full-scale (paper-size) configuration smoke tests.

The benchmark suite runs at a reduced scale for speed; these tests
verify the *paper-size* Theta configuration — 4,360 nodes, the
21.9M-parameter network — actually instantiates and schedules
end-to-end, in the paper's float32: 87.6 MB of weights.  (The Cori
networks hold ~162M parameters; weights plus Adam moments are ~1.9 GB
even in float32, so only their dimensions are checked.)
"""

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_pg import DRASPG
from repro.nn.network import count_parameters
from repro.sim.engine import run_simulation
from repro.sim.job import JobState
from repro.workload.models import ThetaModel
from tests.conftest import make_job


@pytest.fixture(scope="module")
def theta_agent():
    return DRASPG(DRASConfig.theta(seed=0))


class TestFullSizeTheta:
    def test_network_size(self, theta_agent):
        assert count_parameters(theta_agent.network) == 21_890_053
        assert sum(p.value.nbytes for p in theta_agent.network.parameters()) \
            == 4 * 21_890_053

    def test_forward_pass_shape(self, theta_agent):
        x = np.random.default_rng(0).random((1, 4460, 2))
        logits = theta_agent.network.forward(x)
        assert logits.shape == (1, 50)
        assert logits.dtype == np.float32
        assert np.isfinite(logits).all()

    def test_schedules_real_sized_jobs(self, theta_agent):
        """A short full-scale episode: 4,360 nodes, 128..4096-node jobs."""
        theta_agent.eval(online_learning=False)
        jobs = [
            make_job(size=s, walltime=3600.0, submit=float(i * 60))
            for i, s in enumerate((128, 4096, 512, 2048, 256, 1024, 128, 128))
        ]
        result = run_simulation(4360, theta_agent, jobs)
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_learning_step_full_size(self, theta_agent):
        """One online-learning episode updates the 21.9M parameters."""
        theta_agent.train()
        fc1 = next(p for p in theta_agent.network.parameters()
                   if p.name == 'fc1.weight')
        before = fc1.value[:4, :4].copy()
        # simultaneous arrivals create multi-job windows, so selections
        # are real choices and the policy gradient is non-zero
        jobs = [make_job(size=1500, walltime=600.0, submit=float(i // 4))
                for i in range(12)]
        run_simulation(4360, theta_agent, jobs)
        after = fc1.value[:4, :4]
        assert theta_agent.updates_done > 0
        assert not np.allclose(before, after)
        # every buffer the update touched followed the network's dtype,
        # and the only parameter-sized ones are value, grad, m and v
        opt = theta_agent.optimizer
        per_param = [a for p in opt.params for a in (p.value, p.grad)]
        per_param += [*opt._m, *opt._v]
        held = list(per_param)
        for owner in (opt, *theta_agent.network.layers):
            assert not hasattr(owner, "_gw_scratch")
            for v in vars(owner).values():
                held += [a for a in (v if isinstance(v, (list, tuple)) else [v])
                         if isinstance(a, np.ndarray)]
        assert {a.dtype for a in held} == {np.dtype(np.float32)}
        assert all(a.flags.c_contiguous for a in per_param)
        assert sum(a.nbytes for a in opt._scratch) <= 2**20
        owned = {id(a) for a in per_param}
        assert all(id(a) in owned for a in held if a.nbytes > 2**20)


class TestFullSizeWorkload:
    def test_paper_theta_model_generates(self):
        model = ThetaModel.paper()
        jobs = model.generate(500, np.random.default_rng(0))
        assert all(128 <= j.size <= 4360 for j in jobs)
        assert all(j.runtime <= 86400.0 for j in jobs)

    def test_paper_fcfs_run(self):
        from repro.schedulers import FCFSEasy
        from repro.sim.metrics import RunMetrics

        model = ThetaModel.paper()
        jobs = model.generate(800, np.random.default_rng(1))
        result = run_simulation(4360, FCFSEasy(), jobs)
        m = RunMetrics.from_result(result)
        assert m.num_jobs == 800
        assert 0.3 < m.utilization <= 1.0


class TestIndexedQueueAtScale:
    """Counting (clock-free) guard on what the event loop looks at.

    Theta's smallest job is 128 nodes, so under a surge most backfill
    passes find fewer free nodes than any waiting job needs, and most
    completions release nobody: neither may cost a walk down the queue.
    """

    def test_no_scan_that_cannot_hit_no_unrelated_dependency_test(
            self, monkeypatch):
        from repro.schedulers import FCFSEasy
        from repro.sim.backfill import BackfillPlanner
        from repro.sim.engine import SchedulingView
        from repro.sim.queue import WaitQueue

        class WatchedDeps(tuple):
            """Dependencies that record when the queue reads them."""

            def __iter__(self):
                parent = finishing[-1]
                if parent is not None and parent.job_id not in tuple(self):
                    unrelated.append((parent.job_id, tuple(self)))
                reads.append(parent)
                return super().__iter__()

        jobs = ThetaModel.paper().generate(
            1200, np.random.default_rng(3), load_factor=100.0)
        for job in jobs:
            job.dependencies = WatchedDeps(job.dependencies)
        finishing = [None]     # job whose notify_finished is running
        reads: list = []       # one entry per read of a dependency tuple
        unrelated: list = []   # reads a completion made of a stranger's
        passes = {"asked": 0, "scanned": 0, "held_max": 0}

        backfill_first = SchedulingView.backfill_first
        first_candidate = BackfillPlanner.first_candidate
        notify_finished = WaitQueue.notify_finished

        def counted_backfill_first(view, pool=None):
            passes["asked"] += 1
            return backfill_first(view, pool)

        def guarded_first_candidate(planner, jobs, reservation, now):
            passes["scanned"] += 1
            free = planner._cluster.available_nodes
            assert any(job.size <= free for job in jobs), \
                f"scan entered with {free} free nodes and nothing that fits"
            return first_candidate(planner, jobs, reservation, now)

        def watched_notify_finished(queue, job):
            passes["held_max"] = max(passes["held_max"], len(queue.held))
            finishing.append(job)
            try:
                notify_finished(queue, job)
            finally:
                finishing.pop()

        monkeypatch.setattr(SchedulingView, "backfill_first",
                            counted_backfill_first)
        monkeypatch.setattr(BackfillPlanner, "first_candidate",
                            guarded_first_candidate)
        monkeypatch.setattr(WaitQueue, "notify_finished",
                            watched_notify_finished)
        result = run_simulation(4360, FCFSEasy(), jobs)

        assert all(j.state is JobState.FINISHED for j in result.jobs)
        # the trace exercises both mechanisms ...
        assert passes["held_max"] >= 5
        assert 0 < passes["scanned"] < passes["asked"] / 2
        # ... and a completion reads no dependencies but its dependents'
        assert reads and not unrelated


class TestCoriDimensions:
    def test_cori_config_dims_only(self):
        cfg = DRASConfig.cori()
        assert cfg.pg_dims.rows == 12176
        assert cfg.pg_dims.param_count == 161_960_053
        # ~1.3 GB of weights plus 3x that in grads/Adam state: checked
        # analytically, not instantiated
