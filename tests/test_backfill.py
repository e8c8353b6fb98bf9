"""Unit tests for EASY-backfilling machinery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.schedulers import FCFSEasy
from repro.sim.backfill import _HEAD, BackfillPlanner, Reservation
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine, SchedulingView, run_simulation
from repro.sim.queue import WaitQueue
from tests.conftest import make_job


@pytest.fixture
def loaded_cluster():
    """8 nodes: 4 busy until t=100, 2 busy until t=300, 2 free."""
    cluster = Cluster(8)
    cluster.allocate(make_job(size=4, walltime=100.0), now=0.0)
    cluster.allocate(make_job(size=2, walltime=300.0), now=0.0)
    return cluster


class TestReserve:
    def test_reservation_fields(self, loaded_cluster):
        planner = BackfillPlanner(loaded_cluster)
        big = make_job(size=6)
        res = planner.reserve(big, now=0.0)
        assert res.job_id == big.job_id
        assert res.size == 6
        # 2 free + 4 released at t=100 -> shadow at 100
        assert res.shadow_time == 100.0
        # at t=100: 6 nodes free, reserved takes 6 -> 0 extra
        assert res.extra_nodes == 0

    def test_extra_nodes_positive(self, loaded_cluster):
        planner = BackfillPlanner(loaded_cluster)
        res = planner.reserve(make_job(size=4), now=0.0)
        assert res.shadow_time == 100.0
        assert res.extra_nodes == 2  # 6 free at shadow, 4 reserved


class TestAllows:
    def test_short_job_fits_before_shadow(self):
        res = Reservation(job_id=1, size=6, shadow_time=100.0, extra_nodes=0)
        short = make_job(size=2, walltime=50.0)
        assert res.allows(short, now=0.0, free_nodes=2)

    def test_long_job_blocked_without_extra(self):
        res = Reservation(job_id=1, size=6, shadow_time=100.0, extra_nodes=0)
        long_job = make_job(size=2, walltime=500.0)
        assert not res.allows(long_job, now=0.0, free_nodes=2)

    def test_long_job_allowed_on_extra_nodes(self):
        res = Reservation(job_id=1, size=6, shadow_time=100.0, extra_nodes=2)
        long_job = make_job(size=2, walltime=500.0)
        assert res.allows(long_job, now=0.0, free_nodes=2)

    def test_too_wide_for_extra(self):
        res = Reservation(job_id=1, size=6, shadow_time=100.0, extra_nodes=1)
        long_job = make_job(size=2, walltime=500.0)
        assert not res.allows(long_job, now=0.0, free_nodes=2)

    def test_must_fit_free_nodes(self):
        res = Reservation(job_id=1, size=6, shadow_time=100.0, extra_nodes=8)
        job = make_job(size=3, walltime=10.0)
        assert not res.allows(job, now=0.0, free_nodes=2)

    def test_exact_boundary_allowed(self):
        res = Reservation(job_id=1, size=6, shadow_time=100.0, extra_nodes=0)
        job = make_job(size=1, walltime=100.0)  # ends exactly at shadow
        assert res.allows(job, now=0.0, free_nodes=1)


class TestCandidates:
    def test_order_preserved_and_reserved_excluded(self, loaded_cluster):
        planner = BackfillPlanner(loaded_cluster)
        big = make_job(size=6)
        res = planner.reserve(big, now=0.0)
        a = make_job(size=1, walltime=50.0)
        b = make_job(size=2, walltime=20.0)
        c = make_job(size=2, walltime=9999.0)  # too long, no extra nodes
        candidates = planner.candidates([big, a, b, c], res, now=0.0)
        assert candidates == [a, b]

    def test_no_candidates(self, loaded_cluster):
        planner = BackfillPlanner(loaded_cluster)
        res = planner.reserve(make_job(size=6), now=0.0)
        jobs = [make_job(size=5, walltime=10.0)]  # wider than 2 free nodes
        assert planner.candidates(jobs, res, now=0.0) == []


class TestEasyGuarantee:
    """EASY's promise: a backfill never delays the reserved job."""

    @pytest.mark.xfail(strict=True, reason=(
        "Reservation.extra_nodes stays frozen for the whole scheduling "
        "instance: both 2-node backfills spend the same 2 extra nodes and "
        "the 8-node job, reserved for t=100, starts at t=1002"))
    def test_reserved_job_starts_by_its_shadow_time(self):
        shadows: dict[int, float] = {}

        class FirstPromise:
            def on_reserve(self, job, now, reservation):
                shadows.setdefault(job.job_id, reservation.shadow_time)

        wide = make_job(size=8, walltime=50.0, submit=1.0)
        jobs = [make_job(size=6, walltime=100.0, submit=0.0), wide,
                make_job(size=2, walltime=1000.0, submit=2.0),
                make_job(size=2, walltime=1000.0, submit=2.0)]
        run_simulation(10, FCFSEasy(), jobs, observers=[FirstPromise()])
        assert shadows[wide.job_id] == 100.0
        assert wide.start_time <= shadows[wide.job_id]


class TestArrayScan:
    """``first_candidate`` on the live queue against the list loop.

    Past its head the planner tests the queue's size/walltime arrays;
    the answer must be the very job the loop over a copy of the list
    (no array path) and ``Reservation.allows`` pick.
    """

    NODES = 16
    #: how each job reaches the queue: the mutators the arrays follow
    #: ("started" leaves from wherever it stands once the queue is built)
    ROUTES = ("submit", "held", "front", "back", "dropped", "started")

    def cluster_with(self, free):
        """A cluster with ``free`` of its nodes free."""
        cluster = Cluster(self.NODES)
        cluster.allocate(make_job(size=self.NODES - free), 0.0)
        return cluster

    def test_reserved_job_first_past_the_head(self):
        queue = WaitQueue()
        for _ in range(_HEAD):
            queue.submit(make_job(size=self.NODES))
        reserved, hit = make_job(size=1), make_job(size=1)
        queue.submit(reserved)
        queue.submit(hit)
        reservation = Reservation(job_id=reserved.job_id, size=self.NODES,
                                  shadow_time=0.0, extra_nodes=1)
        planner = BackfillPlanner(self.cluster_with(free=1), queue)
        assert planner.first_candidate(
            queue.peek_waiting(), reservation, 0.0) is hit

    def test_cutoff_is_inclusive_past_the_head(self):
        cutoff = 50.0 + 1e-9
        queue = WaitQueue()
        for _ in range(_HEAD):
            queue.submit(make_job(size=self.NODES))
        late = make_job(size=2, walltime=np.nextafter(cutoff, np.inf))
        on_time = make_job(size=2, walltime=cutoff)   # 0 + it == cutoff
        queue.submit(late)
        queue.submit(on_time)
        reservation = Reservation(job_id=-1, size=self.NODES,
                                  shadow_time=50.0, extra_nodes=1)
        planner = BackfillPlanner(self.cluster_with(free=2), queue)
        assert planner.first_candidate(
            queue.peek_waiting(), reservation, 0.0) is on_time

    @settings(max_examples=400, deadline=None)
    @given(length=st.sampled_from([0, 1, _HEAD - 1, _HEAD, _HEAD + 1,
                                   _HEAD + 2, 2 * _HEAD, 3 * _HEAD]),
           wide=st.sampled_from([0, _HEAD // 2, _HEAD - 1, _HEAD, _HEAD + 1,
                                 2 * _HEAD]),
           narrow=st.sampled_from([0.05, 0.3, 1.0]),
           now=st.sampled_from([0.0, 0.1, 7.0, 12345.678]),
           ahead=st.sampled_from([0.0, 0.3, 50.0]),
           free=st.integers(0, NODES - 1),
           extra=st.integers(0, NODES),    # above or below ``free``
           reserve=st.sampled_from(["first fit", "any", "absent"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_list_loop_and_allows(self, length, wide, narrow, now,
                                          ahead, free, extra, reserve, seed):
        rng = np.random.default_rng(seed)
        shadow = now + ahead
        edge = shadow + 1e-9 - now   # ``now + edge`` is the cutoff
        # half of them on or next to the cutoff
        walltimes = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
                     edge, 1.0, 1e5]
        # narrow sizes straddle both size tests
        sizes = [size for size in (1, free, free + 1, extra, extra + 1,
                                   int(rng.integers(1, self.NODES)))
                 if 1 <= size < self.NODES]
        queue = WaitQueue()
        parent = make_job()
        started = []
        kept = 0   # jobs that will still wait at the end: ``length`` of them
        while kept < length:
            route = self.ROUTES[rng.integers(len(self.ROUTES))]
            # a full-width job never fits: the first ``wide`` jobs, and
            # all that jump to the front, push the first hit past the head
            size = (int(rng.choice(sizes))
                    if kept >= wide and route != "front"
                    and rng.random() < narrow else self.NODES)
            job = make_job(size=size, walltime=float(rng.choice(walltimes)),
                           deps=(parent.job_id,) if route == "held" else ())
            queue.submit(job)
            if route in ("front", "back", "dropped"):
                queue.remove(job)
                if route != "dropped":
                    queue.requeue(job, front=route == "front")
            elif route == "started":
                started.append(job)
            kept += route not in ("dropped", "started")
        queue.notify_finished(parent)   # the held jobs join the tail
        for job in started:
            queue.remove(job)
        live = queue.peek_waiting()
        assert len(live) == length
        reservation = Reservation(job_id=-1, size=self.NODES,
                                  shadow_time=shadow, extra_nodes=extra)
        fitting = [j for j in live if reservation.allows(j, now, free)]
        # the reserved job: the one the scan would otherwise return, any
        # waiting job, or one that is not in the queue
        reserved = parent
        if reserve == "first fit" and fitting:
            reserved = fitting[0]
        elif reserve == "any" and live:
            reserved = live[rng.integers(len(live))]
        reservation = Reservation(job_id=reserved.job_id, size=self.NODES,
                                  shadow_time=shadow, extra_nodes=extra)
        cluster = self.cluster_with(free)

        expected = next((j for j in fitting if j is not reserved), None)
        scanned = BackfillPlanner(cluster, queue).first_candidate(
            live, reservation, now)
        looped = BackfillPlanner(cluster).first_candidate(
            list(live), reservation, now)
        assert scanned is looped is expected


class TestViewShortcut:
    """``SchedulingView.backfill_*`` against the planner's full scan.

    With ``pool=None`` the view answers from the queue's size census
    when no waiting job fits the free nodes; whatever it answers must be
    what scanning the whole queue would have.
    """

    NODES = 12
    job_shapes = st.lists(
        st.tuples(st.integers(1, NODES), st.sampled_from([5.0, 50.0, 500.0])),
        max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(running=job_shapes, queued=job_shapes, data=st.data())
    def test_matches_brute_force(self, running, queued, data):
        cluster = Cluster(self.NODES)
        waiting = [make_job(size=size, walltime=walltime)
                   for size, walltime in queued]
        engine = Engine(cluster, FCFSEasy(), waiting)
        for size, walltime in running:
            if size <= cluster.available_nodes:
                cluster.allocate(make_job(size=size, walltime=walltime), 0.0)
        for job in waiting:
            engine.queue.submit(job)
        engine.now = 1.0
        # any blocked job may hold the reservation: the smallest waiting
        # job, the only one, or one deep in the queue
        blocked = [j for j in waiting if j.size > cluster.available_nodes]
        assume(blocked)
        reserved = data.draw(st.sampled_from(blocked))
        view = SchedulingView(engine)
        reservation = view.reserve(reserved)

        expected = [j for j in waiting if j is not reserved
                    and reservation.allows(j, 1.0, cluster.available_nodes)]
        scanned = engine.planner.candidates(
            engine.queue.waiting, reservation, 1.0)
        assert scanned == expected
        assert view.backfill_candidates() == expected
        assert view.backfill_first() is (expected[0] if expected else None)
        # an explicit pool is scanned as given
        assert view.backfill_candidates(pool=waiting[::-1]) == expected[::-1]
