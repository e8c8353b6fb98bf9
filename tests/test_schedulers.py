"""Unit tests for the heuristic baseline schedulers."""

import itertools

import numpy as np
import pytest

from repro.core import AGENTS, DRASConfig
from repro.schedulers import (
    POLICIES,
    BaseScheduler,
    BinPacking,
    FCFSEasy,
    KnapsackOptimization,
    RandomScheduler,
    solve_knapsack,
)
from repro.sim.engine import run_simulation
from repro.sim.job import ExecMode, JobState
from tests.conftest import make_job

#: every scheduler of the two tables, built fresh; an agent's test id
#: is its lower-cased ``name``
BUILDERS = [
    *(pytest.param(lambda f=factory: f("capability", 0), id=name)
      for name, factory in POLICIES.items()),
    *(pytest.param(lambda cls=cls: cls(DRASConfig(
        num_nodes=8, window=3, hidden1=12, hidden2=6, seed=0,
        time_scale=100.0)), id=cls.name.lower())
      for cls in AGENTS.values()),
]


def repro_scheduler_classes() -> set[type]:
    """Every concrete ``BaseScheduler`` subclass defined under ``repro``.

    Concrete means no other ``repro`` scheduler subclasses it, which
    leaves out intermediate bases such as ``HierarchicalAgent`` and
    ``DRASPG`` (``DecimaPG``'s base; it runs here through its ``AGENTS``
    row).
    """
    found: set[type] = set()
    frontier = [BaseScheduler]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub.__module__.startswith("repro.") and sub not in found:
                found.add(sub)
                frontier.append(sub)
    return {cls for cls in found
            if not any(sub in found for sub in cls.__subclasses__())}


class TestEveryScheduler:
    """The engine calls ``schedule(view)`` and the lifecycle hooks by
    name, so every scheduler class runs once here: a drifted signature
    raises ``TypeError`` on the first call, even for a policy no other
    test exercises."""

    def test_every_class_is_reachable(self):
        built = {type(param.values[0]()) for param in BUILDERS}
        assert repro_scheduler_classes() <= built

    @pytest.mark.parametrize("build", BUILDERS)
    def test_runs_a_tiny_simulation(self, build):
        scheduler = build()
        jobs = [make_job(size=1 + i % 4, walltime=20.0, submit=float(3 * i))
                for i in range(12)]
        result = run_simulation(8, scheduler, jobs)
        assert [j.state for j in result.jobs] == [JobState.FINISHED] * 12


class TestFCFSEasy:
    def test_strict_arrival_order_when_no_backfill(self):
        jobs = [make_job(size=4, walltime=10.0, submit=float(i)) for i in range(4)]
        run_simulation(4, FCFSEasy(), jobs)
        starts = [j.start_time for j in jobs]
        assert starts == sorted(starts)

    def test_head_blocks_non_backfillable_successors(self):
        blocker = make_job(size=3, walltime=100.0, submit=0.0)
        head = make_job(size=4, walltime=10.0, submit=1.0)
        # fits the nodes but would delay head's reservation
        sneaky = make_job(size=1, walltime=1000.0, submit=2.0)
        run_simulation(4, FCFSEasy(), [blocker, head, sneaky])
        assert head.start_time == pytest.approx(100.0)
        assert sneaky.start_time > head.start_time

    def test_first_fit_backfill_order(self):
        blocker = make_job(size=3, walltime=100.0, submit=0.0)
        head = make_job(size=4, walltime=10.0, submit=1.0)
        bf1 = make_job(size=1, walltime=40.0, submit=2.0)
        bf2 = make_job(size=1, walltime=40.0, submit=3.0)
        run_simulation(4, FCFSEasy(), [blocker, head, bf1, bf2])
        # only one 1-node hole: earliest-arrived candidate wins
        assert bf1.start_time == pytest.approx(2.0)
        assert bf2.start_time >= 42.0

    def test_easy_single_reservation_only(self):
        # two blocked big jobs: only the head gets a reservation
        blocker = make_job(size=3, walltime=100.0, submit=0.0)
        big1 = make_job(size=4, walltime=10.0, submit=1.0)
        big2 = make_job(size=4, walltime=10.0, submit=2.0)
        run_simulation(4, FCFSEasy(), [blocker, big1, big2])
        assert big1.mode is ExecMode.RESERVED
        assert big1.start_time < big2.start_time


class TestBinPacking:
    def test_largest_runnable_first(self):
        small = make_job(size=1, walltime=10.0, submit=0.0)
        large = make_job(size=4, walltime=10.0, submit=0.0)
        run_simulation(4, BinPacking(), [small, large])
        assert large.start_time == 0.0
        assert small.start_time == pytest.approx(10.0)

    def test_packs_greedily(self):
        jobs = [make_job(size=s, walltime=10.0, submit=0.0) for s in (3, 2, 2, 1)]
        run_simulation(4, BinPacking(), jobs)
        # picks 3 then 1 at t=0; the two 2s at t=10
        assert jobs[0].start_time == 0.0
        assert jobs[3].start_time == 0.0
        assert jobs[1].start_time == pytest.approx(10.0)
        assert jobs[2].start_time == pytest.approx(10.0)

    def test_never_reserves(self):
        jobs = [make_job(size=4, walltime=10.0, submit=float(i)) for i in range(3)]
        run_simulation(4, BinPacking(), jobs)
        assert all(j.mode is ExecMode.READY for j in jobs)

    def test_starves_large_jobs_under_small_job_stream(self):
        # a steady stream of 2-node jobs keeps 2 nodes busy at all times,
        # so the whole-system job never sees 4 free nodes
        small = [
            make_job(size=2, walltime=100.0, submit=float(i * 50))
            for i in range(10)
        ]
        big = make_job(size=4, walltime=10.0, submit=1.0)
        run_simulation(4, BinPacking(), small + [big])
        assert big.start_time > small[-1].start_time


class TestRandomScheduler:
    def test_deterministic_with_seed(self):
        def run(seed):
            jobs = [make_job(size=s, walltime=10.0, submit=0.0) for s in (1, 2, 3, 1)]
            run_simulation(4, RandomScheduler(seed=seed), jobs)
            return [j.start_time for j in jobs]

        assert run(7) == run(7)

    def test_all_jobs_finish(self):
        jobs = [make_job(size=s, walltime=10.0, submit=0.0) for s in (4, 3, 2, 1)]
        result = run_simulation(4, RandomScheduler(seed=1), jobs)
        assert len(result.finished_jobs) == 4

    def test_never_reserves(self):
        jobs = [make_job(size=4, walltime=10.0, submit=float(i)) for i in range(3)]
        run_simulation(4, RandomScheduler(seed=0), jobs)
        assert all(j.mode is ExecMode.READY for j in jobs)


class TestSolveKnapsack:
    def test_empty(self):
        assert solve_knapsack([], [], 10) == []

    def test_zero_capacity(self):
        assert solve_knapsack([1], [1.0], 0) == []

    def test_simple_optimum(self):
        # capacity 5: {3,2} with values 4+3=7 beats {5}=6
        chosen = solve_knapsack([3, 2, 5], [4.0, 3.0, 6.0], 5)
        assert sorted(chosen) == [0, 1]

    def test_single_big_item(self):
        chosen = solve_knapsack([5, 1], [100.0, 1.0], 5)
        assert chosen == [0]

    def test_item_wider_than_capacity_skipped(self):
        chosen = solve_knapsack([10, 2], [100.0, 1.0], 5)
        assert chosen == [1]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            solve_knapsack([1, 2], [1.0], 5)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            solve_knapsack([1], [1.0], -1)

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            solve_knapsack([0], [1.0], 5)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            weights = [int(w) for w in rng.integers(1, 6, size=n)]
            values = [float(v) for v in rng.random(n)]
            capacity = int(rng.integers(0, 12))
            chosen = solve_knapsack(weights, values, capacity)
            assert sum(weights[i] for i in chosen) <= capacity
            best = 0.0
            for subset in itertools.product((0, 1), repeat=n):
                w = sum(wi for wi, s in zip(weights, subset) if s)
                if w <= capacity:
                    best = max(best, sum(vi for vi, s in zip(values, subset) if s))
            got = sum(values[i] for i in chosen)
            assert got == pytest.approx(best)


class TestKnapsackOptimization:
    def test_capability_prefers_valuable_subset(self):
        sched = KnapsackOptimization("capability")
        # one 4-node job vs two 2-node jobs: capability value favours
        # whichever packing maximizes sum of size fractions (tied) plus
        # wait; with identical waits the full pack wins either way.
        jobs = [make_job(size=4, walltime=10.0, submit=0.0),
                make_job(size=2, walltime=10.0, submit=0.0),
                make_job(size=2, walltime=10.0, submit=0.0)]
        result = run_simulation(4, sched, jobs)
        started_at_0 = [j for j in jobs if j.start_time == 0.0]
        assert sum(j.size for j in started_at_0) == 4  # capacity saturated

    def test_capacity_prefers_short_jobs(self):
        sched = KnapsackOptimization("capacity")
        short = make_job(size=4, walltime=10.0, submit=0.0)
        long = make_job(size=4, walltime=10000.0, submit=0.0)
        run_simulation(4, sched, [long, short])
        assert short.start_time == 0.0
        assert long.start_time == pytest.approx(10.0)

    def test_never_reserves(self):
        jobs = [make_job(size=4, walltime=10.0, submit=float(i)) for i in range(3)]
        run_simulation(4, KnapsackOptimization("capability"), jobs)
        assert all(j.mode is ExecMode.READY for j in jobs)

    def test_invalid_objective_raises_at_schedule(self):
        sched = KnapsackOptimization("nonsense")
        with pytest.raises(ValueError, match="unknown objective"):
            run_simulation(4, sched, [make_job(size=1)])
