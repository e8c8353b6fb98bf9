"""Unit + property tests for the resource availability profile."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster
from repro.sim.profile import ResourceProfile
from tests.conftest import make_job


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceProfile([], [], 4)
        with pytest.raises(ValueError):
            ResourceProfile([0.0, 0.0], [1, 2], 4)  # not increasing
        with pytest.raises(ValueError):
            ResourceProfile([0.0], [5], 4)          # above capacity
        with pytest.raises(ValueError):
            ResourceProfile([0.0, 1.0], [1], 4)     # length mismatch

    def test_free_counts_validated_against_num_nodes(self):
        """A single segment claiming more free nodes than exist is rejected."""
        with pytest.raises(ValueError, match=r"\[0, num_nodes\]"):
            ResourceProfile([0.0], [9], 8)
        with pytest.raises(ValueError, match=r"\[0, num_nodes\]"):
            ResourceProfile([0.0, 10.0], [4, -1], 8)
        # boundary values are fine
        profile = ResourceProfile([0.0, 10.0], [0, 8], 8)
        assert profile.free_at(10.0) == 8

    def test_num_nodes_must_be_positive(self):
        with pytest.raises(ValueError, match="num_nodes"):
            ResourceProfile([0.0], [0], 0)
        with pytest.raises(ValueError, match="num_nodes"):
            ResourceProfile([0.0], [0], -4)

    def test_breakpoints_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ResourceProfile([0.0, float("inf")], [2, 4], 4)
        with pytest.raises(ValueError, match="finite"):
            ResourceProfile([float("nan")], [2], 4)

    def test_from_idle_cluster(self):
        profile = ResourceProfile.from_cluster(Cluster(8), now=5.0)
        times, free = profile.steps()
        assert times == [5.0]
        assert free == [8]

    def test_from_loaded_cluster(self):
        cluster = Cluster(8)
        cluster.allocate(make_job(size=4, walltime=50.0), now=0.0)
        cluster.allocate(make_job(size=2, walltime=200.0), now=0.0)
        profile = ResourceProfile.from_cluster(cluster, now=0.0)
        assert profile.free_at(0.0) == 2
        assert profile.free_at(50.0) == 6
        assert profile.free_at(200.0) == 8

    def test_simultaneous_releases_merged(self):
        cluster = Cluster(8)
        cluster.allocate(make_job(size=2, walltime=50.0), now=0.0)
        cluster.allocate(make_job(size=3, walltime=50.0), now=0.0)
        profile = ResourceProfile.from_cluster(cluster, now=0.0)
        assert profile.free_at(50.0) == 8


def per_time_scan_steps(cluster, now):
    """``from_cluster`` as it was built before the release index: one
    equality scan of every busy node per distinct release time."""
    releases = cluster.estimated_release_times(now)
    times, free = [now], [cluster.available_nodes]
    for t in np.unique(releases):
        count = int(np.sum(releases == t))
        t = float(max(t, now))
        if t == times[-1]:
            free[-1] += count
        else:
            times.append(t)
            free.append(free[-1] + count)
    return times, free


class TestFromClusterGroups:
    def test_equals_per_time_scan_on_small_case(self):
        """Ties, an overrun job clipped onto ``now`` and down nodes."""
        cluster = Cluster(16)
        cluster.allocate(make_job(size=2, walltime=5.0), now=0.0)   # overrun
        cluster.allocate(make_job(size=3, walltime=50.0), now=0.0)
        cluster.allocate(make_job(size=1, walltime=40.0), now=10.0)  # ties 50
        cluster.allocate(make_job(size=4, walltime=200.0), now=10.0)
        cluster.fail_nodes([14, 15], 10.0, np.array([50.0, 75.0]))
        for now in (10.0, 20.0, 50.0, 300.0):
            got = ResourceProfile.from_cluster(cluster, now).steps()
            assert got == per_time_scan_steps(cluster, now)
            assert all(type(t) is float for t in got[0])
            assert all(type(f) is int for f in got[1])
        times, free = ResourceProfile.from_cluster(cluster, 20.0).steps()
        assert times == [20.0, 50.0, 75.0, 210.0]
        assert free == [4 + 2, 6 + 3 + 1 + 1, 12, 16]

    def test_full_cori_profiles_in_one_pass(self):
        """A full 12,076-node Cori: 6,038 distinct release times."""
        cluster = Cluster(12076)
        for i in range(cluster.num_nodes // 2):
            cluster.allocate(make_job(size=2, walltime=100.0 + i), now=0.0)
        assert cluster.available_nodes == 0

        def best_of_three(build) -> float:
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                build()
                best = min(best, time.perf_counter() - started)
            return best

        profile = ResourceProfile.from_cluster(cluster, 50.0)
        assert profile.steps() == per_time_scan_steps(cluster, 50.0)
        assert len(profile.steps()[0]) == 1 + 6038
        grouped = best_of_three(
            lambda: ResourceProfile.from_cluster(cluster, 50.0))
        scanned = best_of_three(lambda: per_time_scan_steps(cluster, 50.0))
        assert grouped < 0.25          # ~5 ms on the reference host
        assert grouped < scanned / 3   # the scan is ~15x slower there


class TestQueries:
    def _profile(self):
        # 2 free now, 6 free at 50, 8 free at 200
        return ResourceProfile([0.0, 50.0, 200.0], [2, 6, 8], 8)

    def test_free_at_before_start_rejected(self):
        with pytest.raises(ValueError):
            self._profile().free_at(-1.0)

    def test_earliest_start_fits_now(self):
        assert self._profile().earliest_start(2, 10.0) == 0.0

    def test_earliest_start_waits_for_release(self):
        assert self._profile().earliest_start(4, 10.0) == 50.0
        assert self._profile().earliest_start(8, 10.0) == 200.0

    def test_earliest_start_needs_contiguous_window(self):
        # 3 free only during [50, 200): a 500s job of size 7 must wait to 200
        profile = ResourceProfile([0.0, 50.0, 200.0], [2, 7, 8], 8)
        assert profile.earliest_start(7, 100.0) == 50.0
        assert profile.earliest_start(8, 100.0) == 200.0

    def test_dip_blocks_long_jobs(self):
        # free dips at t=100: long jobs starting at 0 must postpone
        profile = ResourceProfile([0.0, 100.0, 150.0], [4, 1, 8], 8)
        assert profile.earliest_start(2, 50.0) == 0.0     # ends before dip
        assert profile.earliest_start(2, 120.0) == 150.0  # spans the dip
        assert profile.earliest_start(1, 120.0) == 0.0    # fits through dip

    def test_invalid_queries(self):
        with pytest.raises(ValueError):
            self._profile().earliest_start(0, 10.0)
        with pytest.raises(ValueError):
            self._profile().earliest_start(9, 10.0)
        with pytest.raises(ValueError):
            self._profile().earliest_start(2, 0.0)


class TestReserve:
    def test_reserve_subtracts_capacity(self):
        profile = ResourceProfile([0.0], [8], 8)
        profile.reserve(10.0, 3, 20.0)
        assert profile.free_at(5.0) == 8
        assert profile.free_at(10.0) == 5
        assert profile.free_at(29.0) == 5
        assert profile.free_at(30.0) == 8

    def test_reserve_respects_capacity(self):
        profile = ResourceProfile([0.0], [2], 8)
        with pytest.raises(ValueError, match="exceeds free"):
            profile.reserve(0.0, 3, 10.0)

    def test_sequential_planning(self):
        """Plan jobs in order; each reservation affects the next query."""
        profile = ResourceProfile([0.0], [4], 4)
        t1 = profile.earliest_start(4, 100.0)
        profile.reserve(t1, 4, 100.0)
        t2 = profile.earliest_start(2, 50.0)
        assert t1 == 0.0
        assert t2 == 100.0

    @settings(max_examples=40, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(st.integers(1, 8), st.floats(1.0, 100.0)),
            min_size=1, max_size=8,
        )
    )
    def test_property_planned_starts_feasible(self, requests):
        """earliest_start + reserve never violates capacity."""
        profile = ResourceProfile([0.0], [8], 8)
        for size, duration in requests:
            start = profile.earliest_start(size, duration)
            profile.reserve(start, size, duration)  # must not raise
        _, free = profile.steps()
        assert all(0 <= f <= 8 for f in free)
