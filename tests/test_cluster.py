"""Unit tests for the node pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster
from tests.conftest import alloc_bytes, make_job


class TestBasics:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_initially_all_free(self, cluster):
        assert cluster.available_nodes == 8
        assert cluster.used_nodes == 0
        assert cluster.running_job_ids == []

    def test_can_fit(self, cluster):
        assert cluster.can_fit(8)
        assert not cluster.can_fit(9)


class TestAllocation:
    def test_allocate_reduces_free(self, cluster):
        job = make_job(size=3)
        cluster.allocate(job, now=0.0)
        assert len(cluster.nodes_of(job.job_id)) == 3
        assert cluster.available_nodes == 5
        assert cluster.is_running(job.job_id)

    def test_allocate_picks_lowest_indices(self, cluster):
        job = make_job(size=3)
        cluster.allocate(job, now=0.0)
        assert list(cluster.nodes_of(job.job_id)) == [0, 1, 2]

    def test_allocate_overflow_raises(self, cluster):
        cluster.allocate(make_job(size=6), now=0.0)
        with pytest.raises(RuntimeError, match="only 2 free"):
            cluster.allocate(make_job(size=3), now=0.0)

    def test_double_allocate_raises(self, cluster):
        job = make_job(size=2)
        cluster.allocate(job, now=0.0)
        with pytest.raises(RuntimeError, match="already allocated"):
            cluster.allocate(job, now=1.0)

    def test_release_restores_free(self, cluster):
        job = make_job(size=5)
        cluster.allocate(job, now=0.0)
        cluster.release(job)
        assert cluster.available_nodes == 8
        assert not cluster.is_running(job.job_id)

    def test_release_unknown_raises(self, cluster):
        with pytest.raises(RuntimeError, match="not allocated"):
            cluster.release(make_job(size=1))

    def test_released_nodes_reusable(self, cluster):
        a = make_job(size=8)
        cluster.allocate(a, now=0.0)
        cluster.release(a)
        b = make_job(size=8)
        cluster.allocate(b, now=1.0)
        assert len(cluster.nodes_of(b.job_id)) == 8

    def test_table_memory_is_linear_in_busy_nodes(self):
        """A capacity fill: each running job keeps only its own nodes.

        A slice of the free list would keep the whole list alive, and
        filling N nodes one at a time would then hold N²/2 entries.
        """
        n = 2048
        cluster = Cluster(n)
        jobs = [make_job(size=1) for _ in range(2 * n)]

        def allocate(job):
            cluster.allocate(job, now=0.0)
            assert alloc_bytes(cluster) == 8 * cluster.used_nodes

        for job in jobs[:n]:
            allocate(job)
        for job in jobs[:n:2]:
            cluster.release(job)
            assert alloc_bytes(cluster) == 8 * cluster.used_nodes
        for job in jobs[n:n + n // 2]:
            allocate(job)
        assert cluster.available_nodes == 0


class TestFreeList:
    """The kept free list against its definition, the free-marked nodes."""

    NODES = 12
    OPS = ("allocate", "release", "release_killed", "fail_nodes",
           "repair_nodes", "reset")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(1, NODES),
                              st.integers(0, 1000)), max_size=40))
    def test_matches_flatnonzero_definition(self, ops):
        cluster = Cluster(self.NODES)
        running = []
        for now, (op, size, pick) in enumerate(ops):
            cluster._place()
            definition = np.flatnonzero(cluster._job_of == -1)
            if op == "allocate" and size <= definition.size:
                job = make_job(size=size, walltime=50.0 + pick)
                cluster.allocate(job, float(now))
                assert np.array_equal(cluster.nodes_of(job.job_id),
                                      definition[:size])
                running.append(job)
            elif op in ("release", "release_killed") and running:
                job = running.pop(pick % len(running))
                if op == "release":
                    cluster.release(job)
                else:
                    cluster.release_killed(job, float(now))
            elif op == "fail_nodes" and definition.size:
                # every ``size``-th free node from a drawn offset
                victims = definition[pick % definition.size::size]
                cluster.fail_nodes(victims, float(now), now + 30.0)
            elif op == "repair_nodes" and cluster.down_nodes:
                down = np.flatnonzero(cluster.down_mask)
                cluster.repair_nodes(down[pick % down.size::size], float(now))
            elif op == "reset":
                cluster.reset()
                running.clear()
            cluster._place()
            assert np.array_equal(cluster._free,
                                  np.flatnonzero(cluster._job_of == -1))
            assert cluster._free.size == cluster.available_nodes


class TestPlacementOnRead:
    """Starts and finishes are logged; placement is caught up when read."""

    def test_queries_read_accounting_only(self, sanitizer_off):
        cluster = Cluster(8)
        a, b, c = (make_job(size=3, walltime=50.0) for _ in range(3))
        cluster.allocate(a, now=0.0)
        cluster.allocate(b, now=1.0)
        cluster.release(a)
        cluster.allocate(c, now=2.0)
        assert cluster.available_nodes == 2
        assert cluster.running_job_ids == [b.job_id, c.job_id]
        assert cluster.reservation_point(4, 2.0) == (51.0, 5)
        assert cluster._alloc == {} and len(cluster._log_keys) == 4
        # ``a`` started and finished unread, and still decided where
        # ``b`` and then ``c`` went
        assert cluster.nodes_of(b.job_id).tolist() == [3, 4, 5]
        assert cluster.nodes_of(c.job_id).tolist() == [0, 1, 2]
        assert len(cluster._log_keys) == 0

    def test_log_entry_is_16_bytes(self, cluster):
        assert cluster._log_keys.itemsize + cluster._log_sizes.itemsize == 16

    def test_easy_run_never_places(self, monkeypatch):
        from repro.schedulers import FCFSEasy
        from repro.sim.engine import run_simulation

        placed = []
        place = Cluster._place
        monkeypatch.setattr(Cluster, "_place",
                            lambda self: placed.append(place(self)))
        jobs = [make_job(size=1 + i % 5, walltime=40.0, runtime=10.0 + i % 7,
                         submit=float(i)) for i in range(60)]
        run_simulation(8, FCFSEasy(), jobs, sanitize=False)
        assert placed == []


class TestNodeState:
    def test_shape(self, cluster):
        state = cluster.node_state(now=0.0)
        assert state.shape == (8, 2)

    def test_free_nodes_encoding(self, cluster):
        state = cluster.node_state(now=0.0)
        assert np.all(state[:, 0] == 1.0)
        assert np.all(state[:, 1] == 0.0)

    def test_busy_nodes_encoding(self, cluster):
        cluster.allocate(make_job(size=3, walltime=100.0), now=10.0)
        state = cluster.node_state(now=50.0)
        # nodes 0..2 busy until t=110, i.e. 60 s from now
        assert np.all(state[:3, 0] == 0.0)
        assert np.allclose(state[:3, 1], 60.0)
        assert np.all(state[3:, 0] == 1.0)
        assert np.all(state[3:, 1] == 0.0)

    def test_remaining_time_never_negative(self, cluster):
        cluster.allocate(make_job(size=2, walltime=10.0), now=0.0)
        state = cluster.node_state(now=100.0)  # past the estimate
        assert np.all(state[:2, 1] == 0.0)


class TestShadowTime:
    def test_fits_now(self, cluster):
        assert cluster.shadow_time(4, now=7.0) == 7.0

    def test_single_blocking_job(self, cluster):
        cluster.allocate(make_job(size=6, walltime=100.0), now=0.0)
        # need 4, free 2 -> wait for the size-6 job's estimate at t=100
        assert cluster.shadow_time(4, now=0.0) == 100.0

    def test_staggered_releases(self, cluster):
        cluster.allocate(make_job(size=4, walltime=50.0), now=0.0)   # free at 50
        cluster.allocate(make_job(size=4, walltime=200.0), now=0.0)  # free at 200
        assert cluster.shadow_time(3, now=0.0) == 50.0
        assert cluster.shadow_time(4, now=0.0) == 50.0
        assert cluster.shadow_time(5, now=0.0) == 200.0
        assert cluster.shadow_time(8, now=0.0) == 200.0

    def test_oversized_raises(self, cluster):
        with pytest.raises(ValueError, match="exceeds cluster size"):
            cluster.shadow_time(9, now=0.0)

    def test_free_nodes_at(self, cluster):
        cluster.allocate(make_job(size=4, walltime=50.0), now=0.0)
        cluster.allocate(make_job(size=4, walltime=200.0), now=0.0)
        assert cluster.free_nodes_at(0.0, now=0.0) == 0
        assert cluster.free_nodes_at(50.0, now=0.0) == 4
        assert cluster.free_nodes_at(199.0, now=0.0) == 4
        assert cluster.free_nodes_at(200.0, now=0.0) == 8


class TestReleaseIndex:
    def test_one_group_per_job_and_per_down_node(self, cluster):
        cluster.allocate(make_job(size=3, walltime=100.0), now=0.0)
        cluster.allocate(make_job(size=2, walltime=40.0), now=10.0)
        cluster.fail_nodes([6, 7], 10.0, np.array([70.0, 50.0]))
        times, sizes = cluster.release_groups(now=20.0)
        assert times.tolist() == [50.0, 50.0, 70.0, 100.0]
        assert sizes.tolist() == [2, 1, 1, 3]
        assert sizes.sum() == cluster.num_nodes - cluster.available_nodes
        assert cluster.estimated_release_times(20.0).tolist() == [
            50.0, 50.0, 50.0, 70.0, 100.0, 100.0, 100.0]
        assert (cluster.used_nodes, cluster.down_nodes, cluster.up_nodes) \
            == (5, 2, 6)

    def test_tied_group_removed_by_key(self, cluster):
        jobs = [make_job(size=size, walltime=100.0) for size in (1, 2, 3)]
        for job in jobs:
            cluster.allocate(job, now=0.0)
        cluster.release(jobs[1])  # neither first nor last of the tie
        assert cluster.release_groups(0.0)[1].tolist() == [1, 3]
        cluster.release(jobs[2])
        assert cluster.release_groups(0.0)[1].tolist() == [1]

    def test_overrun_job_releases_now(self, cluster):
        cluster.allocate(make_job(size=6, walltime=10.0), now=0.0)
        # past its estimate the job is expected to free "now" ...
        assert cluster.shadow_time(8, now=25.0) == 25.0
        assert cluster.reservation_point(8, now=25.0) == (25.0, 8)
        # ... and not a moment before
        assert cluster.free_nodes_at(20.0, now=25.0) == 2

    @pytest.mark.parametrize("size, shadow_group", [
        (5, 1),   # the shadow group is the first of the tie run
        (6, 2),   # ... in its middle
        (8, 3),   # ... its last
    ])
    def test_shadow_group_in_a_tie_run(self, cluster, size, shadow_group):
        cluster.allocate(make_job(size=2, walltime=50.0), now=0.0)
        for nodes in (1, 2, 1):
            cluster.allocate(make_job(size=nodes, walltime=100.0), now=0.0)
        times, sizes = cluster.release_groups(10.0)
        assert times.tolist() == [50.0, 100.0, 100.0, 100.0]
        needed = size - cluster.available_nodes
        assert sizes.cumsum().searchsorted(needed) == shadow_group
        # every group of the run releases at the shadow, not just its first
        assert cluster.reservation_point(size, now=10.0) == (100.0, 8)
        assert cluster.shadow_time(size, now=10.0) == 100.0
        assert cluster.free_nodes_at(100.0, now=10.0) == 8

    def test_blade_down_until_one_repair_time(self, cluster):
        cluster.allocate(make_job(size=2, walltime=200.0), now=0.0)
        cluster.fail_nodes([2, 3, 4, 5, 6], 0.0, 80.0)   # one scalar repair
        times, sizes = cluster.release_groups(10.0)
        assert times.tolist() == [80.0] * 5 + [200.0]
        assert sizes.tolist() == [1] * 5 + [2]
        # the second node of the blade is the shadow; all five come back
        assert cluster.reservation_point(3, now=10.0) == (80.0, 6)
        assert cluster.reservation_point(7, now=10.0) == (200.0, 8)

    def test_fail_refuses_a_repeated_node(self, cluster):
        with pytest.raises(ValueError, match="repeated node"):
            cluster.fail_nodes([3, 3], 0.0, 5.0)
        assert (cluster.available_nodes, cluster.down_nodes) == (8, 0)
        assert cluster.release_groups(0.0)[1].tolist() == []

    def test_repair_refuses_a_repeated_node_before_mutating(self, cluster):
        cluster.fail_nodes([3, 4], 0.0, 5.0)
        with pytest.raises(ValueError, match="repeated node"):
            cluster.repair_nodes([3, 3], 1.0)
        assert (cluster.available_nodes, cluster.down_nodes) == (6, 2)
        assert cluster.release_groups(0.0)[1].tolist() == [1, 1]
        cluster.repair_nodes([3, 4], 1.0)  # node 3's downtime is intact
        assert (cluster.available_nodes, cluster.down_nodes) == (8, 0)
        assert cluster.lost_node_seconds() == 2.0

    def test_overdue_shadow_group_releases_with_later_overdue_ones(
            self, cluster):
        cluster.allocate(make_job(size=3, walltime=10.0), now=0.0)
        cluster.allocate(make_job(size=2, walltime=20.0), now=0.0)
        cluster.allocate(make_job(size=2, walltime=100.0), now=0.0)
        # both overrun jobs are expected to free "now": the shadow group
        # (10.0) and the one after it (20.0) clip to the same instant
        assert cluster.reservation_point(3, now=25.0) == (25.0, 6)
        assert cluster.shadow_time(3, now=25.0) == 25.0
        # the next group after the shadow releases later: read directly
        assert cluster.reservation_point(3, now=15.0) == (15.0, 4)
        assert cluster.reservation_point(7, now=25.0) == (100.0, 8)


class TestAccounting:
    def test_used_node_seconds_after_release(self, cluster):
        job = make_job(size=4, walltime=100.0, runtime=60.0)
        cluster.allocate(job, now=0.0)
        cluster.release(job)
        assert cluster.used_node_seconds() == 4 * 60.0

    def test_reset(self, cluster):
        cluster.allocate(make_job(size=4), now=0.0)
        cluster.reset()
        assert cluster.available_nodes == 8
        assert cluster.used_node_seconds() == 0.0
