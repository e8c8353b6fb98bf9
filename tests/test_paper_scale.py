"""Full-scale (paper-size) configuration smoke tests.

The benchmark suite runs at a reduced scale for speed; these tests
verify the *paper-size* configurations actually instantiate and
schedule end-to-end, in the paper's float32: Theta — 4,360 nodes, the
21.9M-parameter network, 87.6 MB of weights — through a frozen and a
learning episode, and Cori's 162M-parameter DRAS-PG (0.65 GB of
weights, which is all a frozen agent holds) through one forward — that
one only under ``REPRO_SANITIZE=1``, i.e. in CI's ``faulted`` job: it
takes ~5 s, which tier-1 does not have; so does two checkpointed
episodes of full-size Theta training.  A Cori-sized fill of
one-node jobs runs the other way round: dark only, since the sanitizer
checks the whole cluster after each of its 24k mutations.  Footprint is
asserted by counting arrays and traced bytes, never by RSS or the clock.
"""

import copy
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.check.sanitize import sanitizer_enabled
from repro.core.config import DRASConfig
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.nn.network import count_parameters
from repro.sim.cluster import Cluster
from repro.sim.engine import run_simulation
from repro.sim.job import JobState
from repro.workload.models import ThetaModel
from tests.conftest import alloc_bytes, make_job

MIB = 2**20


def traced_peak(fn):
    """``fn()`` and the most bytes it held at once (NumPy reports its
    buffers to ``tracemalloc``), over what was held when it started."""
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not already:
            tracemalloc.stop()


def build_pins(agent):
    """sha256 prefix over the initial weights, and the generator's next draw."""
    digest = hashlib.sha256()
    for p in agent.network.parameters():
        digest.update(p.value)  # the buffer itself: no 71 MB copy
    return digest.hexdigest()[:16], copy.deepcopy(agent.rng).random()


def large_arrays(agent):
    """The role of every array over 1 MiB the network and optimizer hold.

    Walks the parameters, the optimizer and the layers; every array met
    on the way, large or not, must be float32, and every value, dense
    gradient and moment C-contiguous.  A gradient kept as a factor pair
    is walked factor by factor, and each factor, ``[B, in]`` or ``[B,
    out]``, must stay under 1 MiB.  A layer's block table
    (``Dense._blocks``, which shared forwards read the first layer's row
    sums from) is ``blocks``, and holds at most 1/16 of the bytes of its
    weight.
    """
    opt = agent.optimizer
    roles = {}
    for layer in agent.network.layers:
        if getattr(layer, "_blocks", None) is not None:
            assert layer._blocks.nbytes <= layer.weight.value.nbytes // 16
            roles[id(layer._blocks)] = f"blocks {layer.weight.name}"
    factors = [f for p in opt.params if isinstance(p.grad, tuple)
               for f in p.grad]
    assert all(f.nbytes < MIB for f in factors)
    for i, p in enumerate(opt.params):
        dense = None if isinstance(p.grad, tuple) else p.grad
        per_param = {"value": p.value, "grad": dense,
                     "m": opt._m and opt._m[i], "v": opt._v and opt._v[i]}
        for role, a in per_param.items():
            if a is not None:
                assert a.flags.c_contiguous, (role, p.name)
                roles[id(a)] = f"{role} {p.name}"
    held = {}
    for owner in (opt, *agent.network.layers):
        for v in vars(owner).values():
            for a in (v if isinstance(v, (list, tuple)) else [v]):
                if isinstance(a, np.ndarray):
                    held[id(a)] = a
    held.update((id(a), a) for a in (*(p.value for p in opt.params),
                                     *(p.grad for p in opt.params), *factors)
                if isinstance(a, np.ndarray))
    assert {a.dtype for a in held.values()} == {np.dtype(np.float32)}
    return sorted(roles.get(i, "unowned") for i, a in held.items()
                  if a.nbytes > MIB)


#: the weight matrices over 1 MiB (``out.weight`` is 200 KB)
MATRICES = ("fc1.weight", "fc2.weight")


@pytest.fixture(scope="module")
def theta_build():
    """One Theta DRAS-PG and the traced peak of building it."""
    return traced_peak(lambda: DRASPG(DRASConfig.theta(seed=0)))


@pytest.fixture(scope="module")
def theta_agent(theta_build):
    return theta_build[0]


def short_episode(agent):
    """A short full-scale episode: 4,360 nodes, 128..4096-node jobs."""
    jobs = [
        make_job(size=s, walltime=3600.0, submit=float(i * 60))
        for i, s in enumerate((128, 4096, 512, 2048, 256, 1024, 128, 128))
    ]
    return run_simulation(4360, agent, jobs)


class TestFullSizeTheta:
    def test_network_size(self, theta_agent):
        assert count_parameters(theta_agent.network) == 21_890_053
        assert sum(p.value.nbytes for p in theta_agent.network.parameters()) \
            == 4 * 21_890_053

    def test_build_is_pinned_and_peaks_at_the_weights(self, theta_build):
        """Weights are born float32: no wide draw, gradient or moment."""
        agent, peak = theta_build
        assert peak <= 4 * 21_890_053 + 16 * MIB
        assert build_pins(agent) == ("5a21bb572300ecc7", 0.07848698741232618)

    def test_dql_build_is_pinned(self):
        agent = DRASDQL(DRASConfig.theta(seed=0))
        assert build_pins(agent) == ("a3c11560af8a8de3", 0.5080082660541502)

    def test_forward_pass_shape(self, theta_agent):
        x = np.random.default_rng(0).random((1, 4460, 2))
        logits = theta_agent.network.forward(x)
        assert logits.shape == (1, 50)
        assert logits.dtype == np.float32
        assert np.isfinite(logits).all()

    def test_schedules_real_sized_jobs(self, theta_agent):
        theta_agent.eval(online_learning=False)
        result = short_episode(theta_agent)
        assert all(j.state is JobState.FINISHED for j in result.jobs)

    def test_frozen_agent_holds_only_its_weights(self, theta_agent):
        """Deciding allocates nothing parameter-sized — sanitized or not."""
        theta_agent.eval(online_learning=False)
        _, peak = traced_peak(lambda: short_episode(theta_agent))
        assert peak < 16 * MIB
        assert large_arrays(theta_agent) == sorted(
            ["blocks fc1.weight", *(f"value {m}" for m in MATRICES)])
        assert all(p.grad is None for p in theta_agent.network.parameters())
        opt = theta_agent.optimizer
        assert opt._m is None and opt._v is None

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
        # the only parameter-sized buffers the update left behind are
        # value, m and v, all in the network's dtype (and fc1's block
        # table, 1/16 of it): the weights' gradients are factor pairs
        assert large_arrays(theta_agent) == sorted(
            ["blocks fc1.weight", *(f"{role} {m}" for m in MATRICES
                                    for role in ("value", "m", "v"))])
        assert sum(a.nbytes for a in theta_agent.optimizer._scratch) <= MIB


class TestTrainingFootprint:
    """Two episodes of ``Trainer.train`` on an agent whose weights are
    all that is large (8.2 MiB; fc2 is 2048 x 1024) hold three units:
    value, ``m`` and ``v``.  A weight's gradient is a factor pair, never
    formed whole (a backward that wrote it would make four); no snapshot
    is taken before ``train()`` returns and a checkpoint lends nothing,
    so every step updates in place (a per-episode ``state_dict()``, or
    a writer that lent the weights, would make the next step write a
    fresh version beside the pinned one: four)."""

    @staticmethod
    def train(**trainer_kw):
        from repro.rl.trainer import Trainer

        def jobs(seed):
            rng = np.random.default_rng(seed)
            return [make_job(size=int(rng.integers(1, 13)),
                             walltime=float(rng.integers(20, 200)),
                             submit=float(5 * i)) for i in range(16)]

        def build_and_train():
            agent = DRASPG(DRASConfig(
                num_nodes=16, window=4, hidden1=2048, hidden2=1024, seed=0,
                objective="capability", time_scale=1000.0))
            Trainer(agent, 16, **trainer_kw).train(
                [("p", jobs(0)), ("p", jobs(1))])
            return agent

        agent, peak = traced_peak(build_and_train)
        unit = sum(p.value.nbytes for p in agent.network.parameters())
        assert agent.updates_done > 1
        return peak, unit

    def test_two_episodes_hold_three_units(self):
        peak, unit = self.train()
        assert peak <= 3.5 * unit

    def test_checkpointed_episodes_hold_three_units(self, tmp_path):
        peak, unit = self.train(checkpoint_path=tmp_path / "ck.npz")
        assert (tmp_path / "ck.npz").exists()
        assert peak <= 3.5 * unit


@pytest.mark.skipif(
    not sanitizer_enabled(),
    reason="two episodes on 87.6 MB of weights take ~3 s, over tier-1's "
           "time budget: CI's `faulted` job (REPRO_SANITIZE=1) runs them")
class TestFullSizeThetaTraining:
    def test_checkpointed_training_holds_three_units(self, tmp_path):
        """Table III's Theta DRAS-PG, two checkpointed episodes of
        ``Trainer.train``: value, ``m`` and ``v`` (3 x 87.6 MB), and
        nothing else parameter-sized."""
        from repro.rl.trainer import Trainer

        def jobs(seed):
            # simultaneous arrivals: multi-job windows, real choices
            return [make_job(size=1500 - seed, walltime=600.0,
                             submit=float(i // 4)) for i in range(12)]

        def build_and_train():
            agent = DRASPG(DRASConfig.theta(seed=0))
            Trainer(agent, 4360, checkpoint_path=tmp_path / "ck.npz").train(
                [("p", jobs(0)), ("p", jobs(1))])
            return agent

        agent, peak = traced_peak(build_and_train)
        assert agent.updates_done > 1
        assert (tmp_path / "ck.npz").exists()
        assert peak <= 3.5 * 4 * 21_890_053


class TestCoriDimensions:
    def test_cori_config_dims_only(self):
        cfg = DRASConfig.cori()
        assert cfg.pg_dims.rows == 12176
        assert cfg.pg_dims.param_count == 161_960_053


@pytest.mark.skipif(
    not sanitizer_enabled(),
    reason="builds 0.65 GB in ~5 s, over tier-1's time budget: CI's "
           "`faulted` job (REPRO_SANITIZE=1) is where it runs")
class TestFullSizeCori:
    def test_frozen_cori_pg_builds_and_infers(self):
        """Table III's larger network, built: 0.65 GB and nothing else."""
        (agent, logits), peak = traced_peak(self.build_and_infer)
        assert count_parameters(agent.network) == 161_960_053
        assert peak <= 4 * 161_960_053 + 16 * MIB
        assert logits.shape == (1, 50) and logits.dtype == np.float32
        assert np.isfinite(logits).all()

    @staticmethod
    def build_and_infer():
        agent = DRASPG(DRASConfig.cori(seed=0))
        x = np.random.default_rng(0).random((1, 12176, 2))
        return agent, agent.network.forward(x)


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

    @pytest.mark.skipif(
        sanitizer_enabled(),
        reason="the sanitizer's cluster checks are O(N) per mutation: "
               "24k of them on 12,076 nodes")
    def test_cori_fill_memory_is_linear_in_busy_nodes(self, monkeypatch):
        """Cori's 12,076 nodes filled by one-node jobs within 3 s.

        Each running job holds its own node index and nothing else; one
        that kept the free list it was cut from alive would make the
        fill hold N²/2 indices, a traced peak of 564 MiB.  FCFS reads no
        placement, so the fill reads it once, when the machine is full:
        the whole history is placed then, and the allocation table must
        keep 8 B per busy node alive, not a free list per job.
        """
        from repro.schedulers import FCFSEasy

        n = 12_076
        allocate = Cluster.allocate
        kept = []

        def read_placement_when_full(cluster, job, now):
            allocate(cluster, job, now)
            if cluster.available_nodes == 0:
                kept.append(alloc_bytes(cluster))

        monkeypatch.setattr(Cluster, "allocate", read_placement_when_full)
        jobs = [make_job(size=1, walltime=600.0, submit=3.0 * i / n)
                for i in range(n)]
        result, peak = traced_peak(
            lambda: run_simulation(n, FCFSEasy(), jobs))
        assert all(j.state is JobState.FINISHED for j in result.jobs)
        assert kept == [8 * n]
        assert peak <= 16 * MIB


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
                if parent is not None and parent.job_id not in self:
                    # ``tuple(self)`` would re-enter this method
                    unrelated.append((parent.job_id,
                                      tuple(super().__iter__())))
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

        def counted_backfill_first(view):
            passes["asked"] += 1
            return backfill_first(view)

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
        # dark: the sanitizer's queue-index check reads every held job's
        # dependencies, and this test counts what the event loop reads
        result = run_simulation(4360, FCFSEasy(), jobs, sanitize=False)

        assert all(j.state is JobState.FINISHED for j in result.jobs)
        # the trace exercises both mechanisms ...
        assert passes["held_max"] >= 5
        assert 0 < passes["scanned"] < passes["asked"] / 2
        # ... and a completion reads no dependencies but its dependents'
        assert reads and not unrelated
