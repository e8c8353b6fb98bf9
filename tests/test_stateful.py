"""Stateful property tests (hypothesis rule-based state machines).

These drive the cluster and wait queue through long random
allocate/release and submit/finish sequences, checking the class
invariants after every step — the kind of bookkeeping bugs (leaked
nodes, double releases, lost jobs) that unit tests rarely reach.  The
cluster machine also scores every state it reaches through
``Network.forward(x, shared=)``: the grouped node snapshot and the
weight-row sums cached per allocation against the plain forward.
A twin cluster follows the same history but is read only when the
machine draws a ``peek``: its placement, caught up in one go, must be
the one the sanitized cluster built one mutation at a time.
"""

import copy

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.check import sanitize
from repro.check.sanitize import sanitizing
from repro.core.state import StateEncoder
from repro.nn import layers
from repro.nn.network import build_dras_network
from repro.sim.cluster import Cluster
from repro.sim.job import ExecMode, Job, JobState
from repro.sim.queue import WaitQueue
from tests.conftest import alloc_bytes, with_node_rows

NODES = 40
WINDOW = 4


class ClusterMachine(RuleBasedStateMachine):
    """Random allocate/release/fail/repair sequences on a 40-node cluster.

    Walltimes and repair delays come from a few round values so that
    groups tie on their release time, and the clock moves in steps that
    carry it past estimates and expected repairs.  A killed job may be
    restarted later — the same ``Job``, the same id, whatever nodes are
    lowest then.  Two small DRAS networks (a DQL-style head of 2 rows, a
    PG-style one of ``2W``) score every state, with ``GROUP`` nodes
    enough for a group so that cached groups, jobs too small for one and
    down nodes all occur.  The networks may look away for some steps
    (``blink``), as an agent does that is not asked at every event: what
    they cached must not be served to a later allocation that merely
    resembles the old one.

    ``owner`` models placement as its definition: a start takes the
    lowest-indexed nodes the model has free.  The sanitized ``cluster``
    places after every mutation; the unsanitized ``twin`` places only
    when a kill or a fault needs it or a ``peek`` reads it, and answers
    every query from accounting alone in between.
    """

    GROUP = 2

    WALLTIMES = st.sampled_from([5.0, 10.0, 10.0, 40.0, 160.0])

    def __init__(self) -> None:
        super().__init__()
        self.cluster = Cluster(NODES)
        self.twin = Cluster(NODES)
        #: model placement: job id per node, -1 free, -2 down
        self.owner = np.full(NODES, -1, dtype=np.int64)
        self.running: dict[int, Job] = {}
        self.killed: list[Job] = []
        self.down: set[int] = set()
        self.clock = 0.0
        self.encoder = StateEncoder(NODES, WINDOW, time_scale=100.0)
        rng = np.random.default_rng(0)
        #: head rows k -> (network over k + NODES rows, a batch of heads)
        self.scored = {
            k: (build_dras_network(k + NODES, 8, 4, WINDOW, rng=rng),
                rng.normal(size=(3, k, 2)))
            for k in (2, 2 * WINDOW)}
        self.watching = True
        self.shipped_group, layers.MIN_GROUP_ROWS = layers.MIN_GROUP_ROWS, self.GROUP

    def teardown(self) -> None:
        layers.MIN_GROUP_ROWS = self.shipped_group

    def both(self, name: str, *args):
        """``name(*args)`` on the cluster, sanitized, then on the twin
        with the sanitizer off: placing only when read is its point."""
        with sanitizing(True):
            got = getattr(self.cluster, name)(*args)
        with sanitizing(False):
            return got, getattr(self.twin, name)(*args)

    @rule(size=st.integers(1, NODES), walltime=WALLTIMES)
    def allocate(self, size: int, walltime: float) -> None:
        job = Job(size=size, walltime=walltime, runtime=walltime,
                  submit_time=self.clock)
        if size <= self.cluster.available_nodes:
            self.start(job)
        else:
            for cluster, active in ((self.cluster, True), (self.twin, False)):
                try:
                    with sanitizing(active):
                        cluster.allocate(job, self.clock)
                except RuntimeError:
                    pass
                else:
                    raise AssertionError("oversubscription accepted")

    def start(self, job: Job) -> None:
        self.both("allocate", job, self.clock)
        self.owner[self._free_nodes()[:job.size]] = job.job_id
        job.mark_started(self.clock, ExecMode.READY)
        self.running[job.job_id] = job

    def vacate(self, job: Job) -> None:
        self.owner[self.owner == job.job_id] = -1

    @precondition(lambda self: self.running)
    @rule(data=st.data())
    def release(self, data) -> None:
        job_id = data.draw(st.sampled_from(sorted(self.running)))
        job = self.running.pop(job_id)
        self.both("release", job)
        self.vacate(job)

    @rule(data=st.data())
    def churn(self, data) -> None:
        """A few small starts and finishes in a row, no read between.

        The twin then places a job that started and finished unread,
        whose nodes still decided where the jobs after it went.
        """
        for _ in range(data.draw(st.integers(2, 6))):
            if self.running and data.draw(st.booleans()):
                self.release(data)
            else:
                self.allocate(data.draw(st.integers(1, 4)),
                              data.draw(self.WALLTIMES))

    @precondition(lambda self: self.running)
    @rule(data=st.data(), requeue=st.booleans())
    def release_killed(self, data, requeue: bool) -> None:
        job_id = data.draw(st.sampled_from(sorted(self.running)))
        job = self.running.pop(job_id)
        held = self.cluster.nodes_of(job_id)
        nodes, twin_nodes = self.both("release_killed", job, self.clock)
        assert sorted(nodes) == sorted(held)
        assert np.array_equal(twin_nodes, nodes)
        self.vacate(job)
        job.mark_killed(self.clock, requeue=requeue)
        if requeue:
            self.killed.append(job)

    @precondition(lambda self: any(
        j.size <= self.cluster.available_nodes for j in self.killed))
    @rule(data=st.data())
    def restart(self, data) -> None:
        """A requeued job runs again: its old id, the nodes free now."""
        job = data.draw(st.sampled_from(
            [j for j in self.killed if j.size <= self.cluster.available_nodes]))
        self.killed.remove(job)
        self.start(job)

    def _free_nodes(self) -> list[int]:
        return np.flatnonzero(self.owner == -1).tolist()

    def fail(self, nodes: list[int], up_at) -> None:
        self.both("fail_nodes", nodes, self.clock, up_at)
        self.owner[nodes] = -2
        self.down.update(nodes)

    @precondition(lambda self: self.cluster.available_nodes > 0)
    @rule(data=st.data(), delay=WALLTIMES)
    def fail_scalar(self, data, delay: float) -> None:
        nodes = data.draw(st.lists(st.sampled_from(self._free_nodes()),
                                   min_size=1, max_size=4, unique=True))
        self.fail(nodes, self.clock + delay)

    @precondition(lambda self: self.cluster.available_nodes > 0)
    @rule(data=st.data())
    def fail_per_node(self, data) -> None:
        nodes = data.draw(st.lists(st.sampled_from(self._free_nodes()),
                                   min_size=1, max_size=4, unique=True))
        delays = data.draw(st.lists(self.WALLTIMES, min_size=len(nodes),
                                    max_size=len(nodes)))
        self.fail(nodes, self.clock + np.asarray(delays))

    @precondition(lambda self: self.down)
    @rule(data=st.data())
    def repair(self, data) -> None:
        """Early or late: ``advance`` may have passed the expected repair."""
        nodes = data.draw(st.lists(st.sampled_from(sorted(self.down)),
                                   min_size=1, unique=True))
        self.both("repair_nodes", nodes, self.clock)
        self.owner[nodes] = -1
        self.down.difference_update(nodes)

    @rule()
    def reset(self) -> None:
        self.both("reset")
        self.owner.fill(-1)
        self.running.clear()
        self.killed.clear()
        self.down.clear()

    @rule(dt=st.sampled_from([0.5, 5.0, 10.0, 100.0]))
    def advance(self, dt: float) -> None:
        self.clock += dt

    @rule()
    def blink(self) -> None:
        self.watching = not self.watching

    @rule()
    def peek(self) -> None:
        """Read the twin's placement: all its unplaced history at once."""
        twin, cluster, now = self.twin, self.cluster, self.clock
        assert np.array_equal(twin.node_state(now), cluster.node_state(now))
        for got, want in zip(twin.node_groups(now, self.GROUP),
                             cluster.node_groups(now, self.GROUP)):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert list(twin._alloc) == list(cluster._alloc)
        assert all(np.array_equal(nodes, cluster._alloc[job_id])
                   for job_id, nodes in twin._alloc.items())
        assert np.array_equal(twin._free, cluster._free)
        assert not twin._log_keys

    @invariant()
    def accounting_consistent(self) -> None:
        used = sum(j.size for j in self.running.values())
        assert self.cluster.used_nodes == used
        assert self.cluster.down_nodes == len(self.down)
        assert self.cluster.up_nodes == NODES - len(self.down)
        assert self.cluster.available_nodes == NODES - used - len(self.down)
        assert set(self.cluster.running_job_ids) == set(self.running)
        assert set(np.flatnonzero(self.cluster.down_mask)) == self.down
        # each running job keeps its own nodes alive, not a free list
        assert alloc_bytes(self.cluster) == 8 * used

    @invariant()
    def placement_is_the_model(self) -> None:
        """Each running job holds the nodes lowest-indexed-free gave it."""
        for job_id in self.running:
            assert np.array_equal(self.cluster.nodes_of(job_id),
                                  np.flatnonzero(self.owner == job_id))
        assert np.array_equal(self.cluster.down_mask, self.owner == -2)

    @invariant()
    def twin_answers_from_accounting(self) -> None:
        """Every query of the unplaced twin is the placed cluster's answer.

        And asking does not place it.
        """
        twin, cluster, now = self.twin, self.cluster, self.clock
        unplaced = len(twin._log_keys)
        for name in ("available_nodes", "used_nodes", "down_nodes",
                     "up_nodes", "running_job_ids", "wasted_node_seconds"):
            assert getattr(twin, name) == getattr(cluster, name)
        for job_id in self.running:
            assert twin.is_running(job_id)
        assert twin.used_node_seconds(self.running, now) \
            == cluster.used_node_seconds(self.running, now)
        assert twin.lost_node_seconds(now) == cluster.lost_node_seconds(now)
        for got, want in zip(twin.release_groups(now),
                             cluster.release_groups(now)):
            assert np.array_equal(got, want)
        assert np.array_equal(twin.estimated_release_times(now),
                              cluster.estimated_release_times(now))
        for size in range(1, NODES + 1):
            assert twin.shadow_time(size, now) == cluster.shadow_time(size, now)
            assert twin.reservation_point(size, now) \
                == cluster.reservation_point(size, now)
        for when in (now - 1.0, now, now + 7.5, now + 1e6):
            assert twin.free_nodes_at(when, now) \
                == cluster.free_nodes_at(when, now)
        assert len(twin._log_keys) == unplaced

    @invariant()
    def node_state_consistent(self) -> None:
        state = self.cluster.node_state(self.clock)
        assert int(state[:, 0].sum()) == self.cluster.available_nodes
        # busy nodes expose non-negative availability horizons
        assert (state[:, 1] >= 0).all()

    @invariant()
    def grouped_forward_is_the_plain_one(self) -> None:
        """The snapshot expands to the node rows; scoring it is scoring them.

        And the sums a layer keeps are of the allocations the cluster
        holds now, within the bound on their number, and its block table
        within 1/16 of the weight.
        """
        groups = self.encoder.node_groups(self.cluster, self.clock)
        block = self.encoder.node_rows(self.cluster, self.clock)
        assert np.array_equal(groups.expand(NODES), block)
        assert [len(nodes) for nodes in groups.nodes] \
            == [j.size for j in self.running.values() if j.size >= self.GROUP]
        live = {id(nodes) for nodes in groups.nodes}
        for k, (net, heads) in self.scored.items() if self.watching else ():
            sanitize.check_shared_forward(
                net.forward(heads, shared=groups),
                net.forward(with_node_rows(heads, block)))
            fc1 = net.layers[1]
            assert set(fc1._sums) - {None} == live
            assert len(fc1._sums) <= 1 + NODES // self.GROUP
            assert fc1._blocks.nbytes <= fc1.weight.value.nbytes // 16

    @invariant()
    def queries_match_brute_force(self) -> None:
        """All four release-time queries against the per-node arrays."""
        cluster, now = self.cluster, self.clock
        free = cluster.available_nodes
        # the reference: mask the non-free nodes, gather, clip, sort
        releases = np.sort(np.maximum(
            cluster._avail_at[cluster._job_of != -1], now))
        got = cluster.estimated_release_times(now)
        assert got.dtype == releases.dtype
        assert np.array_equal(got, releases)

        def free_at(when: float) -> int:
            return free + int(np.count_nonzero(releases <= when))

        for size in range(1, NODES + 1):   # covers size <= free as well
            shadow = now if size <= free else float(releases[size - free - 1])
            assert cluster.shadow_time(size, now) == shadow
            assert cluster.reservation_point(size, now) == (shadow,
                                                            free_at(shadow))
        probes = {now - 1.0, now, now + 7.5, now + 1e6, *releases.tolist()}
        for when in probes:                # includes when < now and ties
            assert cluster.free_nodes_at(when, now) == free_at(when)
        for query in (cluster.shadow_time, cluster.reservation_point):
            try:
                query(NODES + 1, now)
            except ValueError:
                pass
            else:
                raise AssertionError("size > num_nodes accepted")


class WaitQueueMachine(RuleBasedStateMachine):
    """Random queue histories against a plain-list model of the queue.

    The model is the definition the indexes replaced: an ordered list of
    waiting jobs, a list of held ones, and the finished / failed id sets
    every held job's dependencies are re-tested against.  Sizes come
    from a small range so size classes fill, empty and tie; submit
    times repeat so releases tie-break on the job id; dependencies may
    be absent, several, repeated, or name a job that does not exist.
    The queue runs its own ``queue-index`` check after every mutator.
    """

    #: ids no job ever gets: a dependency on one never finishes
    UNKNOWN = st.integers(10**9, 10**9 + 3)

    def __init__(self) -> None:
        super().__init__()
        self.queue = WaitQueue()
        self.waiting: list[Job] = []
        self.held: list[Job] = []
        self.running: list[Job] = []
        self.finished: set[int] = set()
        self.dead: set[int] = set()
        self.known: list[int] = []
        self.clock = 0.0

    def mutate(self, name: str, *args, **kwargs):
        """``name`` on the queue, which ends with its ``queue-index``
        check (the sanitizer is on for it)."""
        with sanitizing(True):
            return getattr(self.queue, name)(*args, **kwargs)

    def draw_from(self, data, jobs: list[Job]) -> Job:
        return jobs[data.draw(st.integers(0, len(jobs) - 1))]

    @rule(size=st.integers(1, 6), tick=st.sampled_from([0.0, 0.0, 1.0]),
          n_deps=st.sampled_from([0, 0, 1, 2, 3]), data=st.data())
    def submit(self, size: int, tick: float, n_deps: int, data) -> None:
        dep = self.UNKNOWN
        if self.known:
            dep = st.one_of(st.sampled_from(self.known), dep)
        deps = tuple(data.draw(st.lists(dep, min_size=n_deps, max_size=n_deps)))
        self.clock += tick
        job = Job(size=size, walltime=10.0, runtime=10.0,
                  submit_time=self.clock, dependencies=deps)
        self.known.append(job.job_id)
        accepted = self.mutate("submit", job)
        assert accepted == self.dead.isdisjoint(deps)
        if not accepted:
            assert job.state is JobState.PENDING
            self.dead.add(job.job_id)
        elif set(deps) <= self.finished:
            self.waiting.append(job)
        else:
            self.held.append(job)

    @precondition(lambda self: self.waiting)
    @rule(data=st.data())
    def start(self, data) -> None:
        job = self.draw_from(data, self.waiting)
        self.mutate("remove", job)
        self.waiting = [j for j in self.waiting if j is not job]
        job.state = JobState.RUNNING
        self.running.append(job)

    @precondition(lambda self: self.running)
    @rule(data=st.data())
    def finish(self, data) -> None:
        job = self.draw_from(data, self.running)
        self.running.remove(job)
        job.state = JobState.FINISHED
        self.finished.add(job.job_id)
        self.mutate("notify_finished", job)
        released = [j for j in self.held
                    if set(j.dependencies) <= self.finished]
        self.held = [j for j in self.held if j not in released]
        self.waiting += sorted(released,
                               key=lambda j: (j.submit_time, j.job_id))
        assert all(j.state is JobState.WAITING for j in released)

    @precondition(lambda self: self.running)
    @rule(front=st.booleans(), data=st.data())
    def kill_and_requeue(self, front: bool, data) -> None:
        job = self.draw_from(data, self.running)
        self.running.remove(job)
        job.state = JobState.WAITING
        self.mutate("requeue", job, front=front)
        if front:
            self.waiting.insert(0, job)
        else:
            self.waiting.append(job)

    @precondition(lambda self: self.running)
    @rule(data=st.data())
    def kill_and_abandon(self, data) -> None:
        job = self.draw_from(data, self.running)
        self.running.remove(job)
        job.state = JobState.FAILED
        self.dead.add(job.job_id)
        doomed = self.mutate("notify_failed", job)
        expected: list[Job] = []
        while True:
            newly = [j for j in self.held
                     if not self.dead.isdisjoint(j.dependencies)]
            if not newly:
                break
            self.held = [j for j in self.held if j not in newly]
            self.dead.update(j.job_id for j in newly)
            expected += newly
        expected.sort(key=lambda j: (j.submit_time, j.job_id))
        assert same_objects(doomed, expected)

    @invariant()
    def queue_is_the_model(self) -> None:
        queue = self.queue
        assert same_objects(queue.waiting, self.waiting)
        assert same_objects(queue.peek_waiting(), self.waiting)
        assert same_objects(queue.held, self.held)
        assert len(queue) == len(self.waiting)
        assert queue.total_pending == len(self.waiting) + len(self.held)
        assert queue.min_size == min((j.size for j in self.waiting),
                                     default=float("inf"))
        for k in (1, 3, len(self.waiting) + 1):
            assert same_objects(queue.window(k), self.waiting[:k])

    @invariant()
    def membership_is_by_identity(self) -> None:
        for job in self.waiting:
            assert job in self.queue
            assert copy.copy(job) not in self.queue
        for job in self.held + self.running:
            assert job not in self.queue


def same_objects(got: list[Job], expected: list[Job]) -> bool:
    """The very same job objects, in the same order."""
    return len(got) == len(expected) and all(
        a is b for a, b in zip(got, expected))


TestClusterMachine = ClusterMachine.TestCase
TestWaitQueueMachine = WaitQueueMachine.TestCase
TestClusterMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestWaitQueueMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
