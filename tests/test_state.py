"""Unit tests for the DRAS state encoding (§III-A)."""

import numpy as np
import pytest

from repro.check.sanitize import check_shared_forward
from repro.core.config import DRASConfig
from repro.core.decima import DecimaPG
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.core.state import StateEncoder
from repro.nn import layers
from repro.nn.network import build_dras_network
from repro.sim.cluster import Cluster
from repro.sim.engine import run_simulation
from repro.sim.faults import FaultConfig
from tests.conftest import make_job, with_node_rows


@pytest.fixture
def encoder():
    return StateEncoder(num_nodes=8, window=3, time_scale=100.0)


class TestValidation:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            StateEncoder(0, 3)
        with pytest.raises(ValueError):
            StateEncoder(8, 0)
        with pytest.raises(ValueError):
            StateEncoder(8, 3, time_scale=0.0)


class TestShapes:
    def test_pg_rows(self, encoder):
        assert encoder.pg_rows == 2 * 3 + 8

    def test_dql_rows(self, encoder):
        assert encoder.dql_rows == 2 + 8

    def test_paper_theta_shape(self):
        enc = StateEncoder(num_nodes=4360, window=50)
        assert enc.pg_rows == 4460
        assert enc.dql_rows == 4362


class TestJobBlock:
    def test_feature_layout(self, encoder):
        job = make_job(size=4, walltime=500.0, submit=10.0, priority=1)
        block = encoder.job_block(job, now=60.0)
        assert block.shape == (2, 2)
        assert block[0, 0] == 4 / 8      # size
        assert block[0, 1] == 500 / 100  # estimated runtime
        assert block[1, 0] == 1.0        # priority
        assert block[1, 1] == 50 / 100   # queued time

    def test_normalized_values(self, encoder):
        job = make_job(size=4, walltime=50.0, submit=0.0)
        block = encoder.job_block(job, now=25.0)
        assert block[0, 0] == pytest.approx(4 / 8)
        assert block[0, 1] == pytest.approx(50 / 100)
        assert block[1, 1] == pytest.approx(25 / 100)


class TestWindowEncoding:
    def test_shape_and_mask(self, encoder, cluster):
        jobs = [make_job(size=1), make_job(size=2)]
        x, mask = encoder.encode_window(jobs, cluster, now=0.0)
        assert x.shape == (14, 2)
        assert list(mask) == [True, True, False]

    def test_padding_rows_zero(self, encoder, cluster):
        jobs = [make_job(size=1)]
        x, _ = encoder.encode_window(jobs, cluster, now=0.0)
        assert np.all(x[2:6] == 0.0)  # slots 2 and 3 empty

    def test_node_rows_present(self, encoder, cluster):
        cluster.allocate(make_job(size=2, walltime=50.0), now=0.0)
        x, _ = encoder.encode_window([make_job(size=1)], cluster, now=0.0)
        node_rows = x[6:]
        assert node_rows.shape == (8, 2)
        assert node_rows[0, 0] == 0.0          # busy
        assert node_rows[0, 1] == pytest.approx(0.5)  # 50/100
        assert node_rows[2, 0] == 1.0          # free

    def test_too_many_jobs_rejected(self, encoder, cluster):
        jobs = [make_job() for _ in range(4)]
        with pytest.raises(ValueError, match="exceed"):
            encoder.encode_window(jobs, cluster, now=0.0)

    def test_empty_window_all_masked(self, encoder, cluster):
        x, mask = encoder.encode_window([], cluster, now=0.0)
        assert not mask.any()
        assert x.shape == (14, 2)


class TestJobEncoding:
    def test_encode_job_shape(self, encoder, cluster):
        x = encoder.encode_job(make_job(size=2), cluster, now=0.0)
        assert x.shape == (10, 2)

    def test_batch_matches_single(self, encoder, cluster):
        jobs = [make_job(size=1), make_job(size=3, priority=1)]
        cluster.allocate(make_job(size=3, walltime=50.0), now=0.0)
        heads, groups = encoder.encode_jobs_batch(jobs, cluster, now=5.0)
        assert heads.shape == (2, 2, 2)
        # the node rows come back once, not copied per job: the free
        # row and one for each node of the job (3 < MIN_GROUP_ROWS)
        assert groups.rows.shape == (4, 2) and not groups.nodes
        for i, job in enumerate(jobs):
            single = encoder.encode_job(job, cluster, now=5.0)
            assert np.array_equal(heads[i], single[:2])
            assert np.array_equal(groups.expand(8), single[2:])

    def test_windows_match_single(self, encoder, cluster):
        cluster.allocate(make_job(size=3, walltime=50.0), now=0.0)
        windows = [[make_job(size=1), make_job(size=3, priority=1)],
                   [make_job(size=2)], []]
        heads, masks, groups = encoder.encode_windows(windows, cluster, now=5.0)
        assert heads.shape == (3, 6, 2) and masks.shape == (3, 3)
        for b, jobs in enumerate(windows):
            x, mask = encoder.encode_window(jobs, cluster, now=5.0)
            assert np.array_equal(np.concatenate([heads[b], groups.expand(8)]), x)
            assert np.array_equal(masks[b], mask)
        with pytest.raises(ValueError, match="empty"):
            encoder.encode_windows([], cluster, now=0.0)
        with pytest.raises(ValueError, match="exceed"):
            encoder.encode_windows([[make_job()] * 4], cluster, now=0.0)

    def test_empty_batch_rejected(self, encoder, cluster):
        with pytest.raises(ValueError, match="empty"):
            encoder.encode_jobs_batch([], cluster, now=0.0)


class TestNodeGroups:
    """A group is an allocation, not a job id: what the sum cache keys on.

    One small DQL-shaped network (2 + 46 rows) scores a 46-node cluster
    through ``forward(x, shared=)`` after every change, with three nodes
    enough for a group; ``agrees`` is the sanitizer's own bound against
    the plain forward over the expanded rows.
    """

    N = 46

    @pytest.fixture
    def scored(self, monkeypatch):
        monkeypatch.setattr(layers, "MIN_GROUP_ROWS", 3)
        rng = np.random.default_rng(0)
        net = build_dras_network(2 + self.N, 8, 4, 1, rng=rng)
        encoder = StateEncoder(self.N, window=3, time_scale=100.0)
        heads = rng.normal(size=(3, 2, 2))

        def agrees(cluster, now):
            groups = encoder.node_groups(cluster, now)
            block = encoder.node_rows(cluster, now)
            assert np.array_equal(groups.expand(self.N), block)
            check_shared_forward(net.forward(heads, shared=groups),
                                 net.forward(with_node_rows(heads, block)))
            return groups

        return net.layers[1], agrees

    def test_requeued_job_restarts_elsewhere_under_its_old_id(self, scored):
        fc1, agrees = scored
        cluster = Cluster(self.N)
        victim = make_job(size=4, walltime=50.0)
        cluster.allocate(victim, now=0.0)
        first = cluster.nodes_of(victim.job_id)
        old = agrees(cluster, 1.0).nodes[0]
        assert id(old) in fc1._sums
        cluster.release_killed(victim, now=2.0)
        cluster.allocate(make_job(size=6, walltime=80.0), now=2.0)
        cluster.allocate(victim, now=3.0)    # requeue-front, restart
        second = cluster.nodes_of(victim.job_id)
        assert victim.job_id in cluster.running_job_ids
        assert not set(first) & set(second)
        groups = agrees(cluster, 4.0)
        assert id(old) not in fc1._sums
        assert {id(nodes) for nodes in groups.nodes} == set(fc1._sums) - {None}
        # each allocation owns its nodes: neither pins a free list
        new = cluster._alloc[victim.job_id]
        assert any(nodes is new for nodes in groups.nodes)
        assert old.base is None and new.base is None

    def test_down_node_is_its_own_group_until_repaired(self, scored):
        """Repaired before and after the expected time; late, it reads 0."""
        _, agrees = scored
        cluster = Cluster(self.N)
        cluster.allocate(make_job(size=5, walltime=500.0), now=0.0)
        cluster.fail_nodes([10, 11, 30], 0.0, np.array([50.0, 50.0, 90.0]))
        groups = agrees(cluster, 20.0)
        assert groups.lone.tolist() == [10, 11, 30]
        assert groups.rows[2:].tolist() == [[0, 0.3], [0, 0.3], [0, 0.7]]
        cluster.repair_nodes([10], 20.0)              # early
        assert agrees(cluster, 20.0).lone.tolist() == [11, 30]
        late = agrees(cluster, 70.0)                  # 11 is overdue
        assert late.rows[2:].tolist() == [[0, 0.0], [0, 0.2]]
        cluster.repair_nodes([11], 70.0)              # late
        assert agrees(cluster, 70.0).lone.tolist() == [30]

    def test_job_past_its_estimate_is_busy_at_zero(self, scored):
        """The value clamps to 0; the flag stays 0 — not the free row."""
        _, agrees = scored
        cluster = Cluster(self.N)
        cluster.allocate(make_job(size=3, walltime=10.0, runtime=99.0), now=0.0)
        groups = agrees(cluster, 50.0)
        assert groups.rows.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        assert groups.expand(self.N)[:4].tolist() == [[0, 0]] * 3 + [[1, 0]]

    def test_reset_between_episodes(self, scored):
        """The same jobs on the same nodes are new allocations."""
        fc1, agrees = scored
        cluster = Cluster(self.N)
        keys = []
        for _ in range(2):
            cluster.allocate(make_job(size=4, walltime=50.0), now=0.0)
            cluster.allocate(make_job(size=1, walltime=50.0), now=0.0)
            agrees(cluster, 5.0)
            keys.append(set(fc1._sums))
            cluster.reset()
            assert agrees(cluster, 0.0).rows.shape == (1, 2)
            assert set(fc1._sums) == {None}
        assert len(keys[0]) == len(keys[1]) == 2

    @pytest.mark.parametrize("agent_cls", [DRASPG, DRASDQL, DecimaPG])
    def test_one_agent_through_engine_after_engine(self, agent_cls,
                                                   sanitizer_on):
        """Train, validate, train — kills and requeues included, sanitized.

        Every decision of the three runs is checked against the plain
        forward by the sanitizer's oracle.
        """
        agent = agent_cls(DRASConfig(
            num_nodes=32, window=3, hidden1=12, hidden2=6, seed=0,
            time_scale=100.0, update_every=2))
        jobs = [make_job(size=int(s), walltime=40.0, runtime=30.0,
                         submit=float(5 * i))
                for i, s in enumerate([4, 9, 2, 16, 1, 7, 12, 3, 5, 8] * 2)]
        faults = FaultConfig(mtbf=25.0, mttr=30.0, job_kill_mtbf=40.0,
                             requeue="requeue-front", min_repair=5.0, seed=1)
        requeues = 0
        for learning in (True, False, True):
            agent.learning = learning
            result = run_simulation(
                32, agent, [job.copy_fresh() for job in jobs], faults=faults)
            requeues += result.resilience.requeues
        assert requeues > 0 and agent.updates_done > 0

    def test_small_allocations_are_scored_node_by_node(self):
        """As shipped: a sum per job of ``MIN_GROUP_ROWS`` nodes, no more."""
        cluster = Cluster(200)
        for size in (64, 15, 40, 5, 16, 1):
            cluster.allocate(make_job(size=size, walltime=50.0), now=0.0)
        cluster.fail_nodes([190], 0.0, 30.0)
        encoder = StateEncoder(200, window=3, time_scale=100.0)
        groups = encoder.node_groups(cluster, 10.0)
        assert [len(nodes) for nodes in groups.nodes] == [64, 40, 16]
        assert groups.lone.size == 15 + 5 + 1 + 1
        block = encoder.node_rows(cluster, 10.0)
        assert np.array_equal(groups.expand(200), block)
        rng = np.random.default_rng(1)
        net = build_dras_network(2 + 200, 8, 4, 1, rng=rng)
        heads = rng.normal(size=(3, 2, 2))
        check_shared_forward(net.forward(heads, shared=groups),
                             net.forward(with_node_rows(heads, block)))
        fc1 = net.layers[1]
        assert len(fc1._sums) == 1 + 3 <= 1 + 200 // layers.MIN_GROUP_ROWS
        assert sum(total.nbytes for nodes, total in fc1._sums.values()
                   if nodes is not None) <= fc1.weight.value[2:].nbytes // 8
