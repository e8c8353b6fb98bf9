"""Unit tests for the runtime sanitizer (repro.check.sanitize)."""

import subprocess
import sys

import numpy as np
import pytest

from repro.check import sanitize
from repro.check.sanitize import SanitizerError, sanitizing
from repro.core import DRASConfig, DRASPG
from repro.nn.layers import LeakyReLU
from repro.nn.network import build_dras_network
from repro.nn.optim import Adam
from repro.schedulers import FCFSEasy
from repro.sim.backfill import Reservation
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine, SimulationResult, run_simulation
from repro.sim.job import ExecMode, Job, JobState
from repro.sim.metrics import RunMetrics
from repro.sim.queue import WaitQueue
from repro.workload import ThetaModel


@pytest.fixture
def env_read(monkeypatch):
    """``env_read(value)`` sets ``REPRO_SANITIZE`` and drops the cached
    decision, so the next read is the process's first."""
    def read(value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        monkeypatch.setattr(sanitize, "_ACTIVE", None)
    return read


def make_job(job_id, size=2, submit=0.0, runtime=100.0):
    return Job(job_id=job_id, size=size, walltime=runtime * 2,
               runtime=runtime, submit_time=submit)


class SlicedCluster(Cluster):
    """A mutant whose placement stores slices of the free list.

    Same nodes, same counts, same release index: only the stored arrays
    are views, each keeping the whole free list it was cut from alive.
    """

    def _place(self):
        free = self._free
        for key, size in zip(self._log_keys, self._log_sizes):
            if key >= 0:
                chosen, free = free[:size], free[size:]
                self._job_of[chosen] = key
                self._avail_at[chosen] = self._jobs.get(key, (0.0,))[0]
                self._alloc[key] = chosen
            else:
                nodes = self._alloc.pop(~key)
                self._job_of[nodes] = -1
                self._avail_at[nodes] = 0.0
                free = np.sort(np.concatenate((free, nodes)), kind="stable")
        self._free = free
        del self._log_keys[:], self._log_sizes[:]


class Recorder(FCFSEasy):
    """FCFS/EASY that records the sanitizer decision at every instance."""

    def __init__(self):
        super().__init__()
        self.seen = set()

    def schedule(self, view):
        self.seen.add(sanitize.sanitizer_enabled())
        super().schedule(view)


class TestActivation:
    def test_env_var_enables(self, env_read):
        env_read("1")
        assert sanitize.sanitizer_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "False"])
    def test_falsy_env_values_disable(self, env_read, value):
        env_read(value)
        assert not sanitize.sanitizer_enabled()

    def test_env_is_read_once(self, env_read, monkeypatch):
        env_read("1")
        assert sanitize.sanitizer_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize.sanitizer_enabled()

    def test_force_overrides_env(self, env_read):
        """A ``sanitizing`` block beats the environment, nests, and
        restores the decision before it on any exit."""
        env_read("1")
        with sanitizing(False) as inside:
            assert inside is False and not sanitize.sanitizer_enabled()
            with sanitizing(None):
                assert not sanitize.sanitizer_enabled()
            with pytest.raises(KeyError), sanitizing(True):
                assert sanitize.sanitizer_enabled()
                raise KeyError
            assert not sanitize.sanitizer_enabled()
        assert sanitize.sanitizer_enabled()

    @pytest.mark.parametrize("env, flag", [("1", False), ("", True)])
    def test_explicit_run_flag_beats_env(self, env_read, env, flag):
        """``sanitize=`` is the decision for the whole run, the policy
        included, and the one before it comes back after."""
        env_read(env)
        policy = Recorder()
        run_simulation(4, policy, [make_job(1, size=4),
                                   make_job(2, size=4, submit=1.0)],
                       sanitize=flag)
        assert policy.seen == {flag}
        assert sanitize.sanitizer_enabled() is not flag


class TestImportWeight:
    def test_engine_import_loads_no_analyzer(self):
        """The runtime reaches ``check.sanitize`` without the static layer.

        Every CLI start and spawned sweep worker imports the engine;
        the analyzers (lint driver, rule families, effect inference)
        are only for ``repro check``.
        """
        code = (
            "import sys, repro.sim.engine, repro.check\n"
            "assert repro.check.sanitizer_enabled() in (True, False)\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.check.')))\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "['repro.check.sanitize']"


class TestClusterInvariants:
    def corrupt_cluster(self):
        """Allocate one job, then leak a node behind the table's back."""
        cluster = Cluster(8)
        with sanitizing(True):
            cluster.allocate(make_job(1, size=4), 0.0)
        cluster._job_of[0] = -1
        return cluster

    def test_node_leak_raises_descriptive_error(self, sanitizer_on):
        cluster = self.corrupt_cluster()
        with pytest.raises(SanitizerError, match="node-conservation"):
            cluster.allocate(make_job(2, size=1), 1.0)

    def test_corruption_silent_when_disabled(self, sanitizer_off):
        cluster = self.corrupt_cluster()
        cluster.allocate(make_job(2, size=1), 1.0)  # no error

    def test_env_var_activates_cluster_checks(self, env_read):
        env_read("1")
        cluster = Cluster(8)
        job = make_job(1, size=4)
        cluster.allocate(job, 0.0)
        cluster._job_of[7] = 99  # phantom job on a free node
        # the phantom node is both busy and on the free list, so the
        # conservation sum trips before the allocation-table check
        with pytest.raises(SanitizerError, match="node-conservation"):
            cluster.release(job)

    def test_allocation_sliced_from_the_free_list_raises(self, sanitizer_on):
        with pytest.raises(SanitizerError, match="job 1 is a view"):
            SlicedCluster(8).allocate(make_job(1, size=3), 0.0)

    def test_allocation_sliced_from_the_free_list_silent_when_disabled(
            self, sanitizer_off):
        cluster = SlicedCluster(8)
        first = make_job(1, size=3)
        cluster.allocate(first, 0.0)
        cluster.allocate(make_job(2, size=2), 1.0)
        cluster.release(first)
        cluster._place()
        assert cluster._alloc[2].base is not None   # no error, still a view

    @pytest.mark.parametrize("tamper, problem", [
        (lambda nodes: nodes[::-1].copy(), "not strictly increasing"),
        (lambda nodes: nodes + 4, "marked with another job"),
    ])
    def test_misshapen_allocation_raises(self, tamper, problem, sanitizer_on):
        cluster = Cluster(8)
        cluster.allocate(make_job(1, size=3), 0.0)
        cluster.allocate(make_job(2, size=2), 0.0)
        cluster._alloc[1] = tamper(cluster._alloc[1])
        with pytest.raises(SanitizerError, match=f"job 1 .*{problem}"):
            cluster.allocate(make_job(3, size=1), 1.0)

    @pytest.mark.parametrize("column, delta", [
        ("_rel_times", 1.0),   # a group that releases at the wrong time
        ("_rel_cum", 1),       # an interior running count: total unchanged
        ("_rel_cum", 3),       # above the next count: a group of -1 nodes
    ])
    def test_corrupt_release_index_raises(self, column, delta, sanitizer_on):
        cluster = Cluster(8)
        cluster.allocate(make_job(1, size=4), 0.0)
        cluster.allocate(make_job(2, size=2), 5.0)
        getattr(cluster, column)[0] += delta  # behind the mutators' back
        with pytest.raises(SanitizerError, match="release-index"):
            cluster.allocate(make_job(3, size=1), 6.0)

    def test_stale_free_list_raises(self, sanitizer_on):
        cluster = Cluster(8)
        first = make_job(1, size=3)
        cluster.allocate(first, 0.0)
        cluster.allocate(make_job(2, size=2), 0.0)
        cluster._free[0] = 4   # one entry names a node of job 2
        with pytest.raises(SanitizerError, match="free list"):
            cluster.release(first)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_free_count_off_by_one_raises(self, delta, sanitizer_on):
        cluster = Cluster(8)
        first = make_job(1, size=3)
        cluster.allocate(first, 0.0)
        cluster._nfree += delta   # behind the mutators' back
        with pytest.raises(SanitizerError, match="free count"):
            cluster.release(first)

    @pytest.mark.parametrize("tamper, problem", [
        (lambda when, size: (when + 1.0, size), "job 1 releases at 201.0"),
        (lambda when, size: (when, size + 1), "running jobs and sizes"),
    ])
    def test_accounting_off_its_placement_raises(self, tamper, problem,
                                                 sanitizer_on):
        cluster = Cluster(8)
        cluster.allocate(make_job(1, size=3), 0.0)
        cluster._jobs[1] = tamper(*cluster._jobs[1])
        with pytest.raises(SanitizerError, match=problem):
            cluster.allocate(make_job(2, size=1), 1.0)

    def test_stale_down_count_raises(self, sanitizer_on):
        cluster = Cluster(8)
        cluster.fail_nodes([0, 1], 0.0, 50.0)
        cluster._down_count -= 1
        with pytest.raises(SanitizerError, match="cached down count"):
            cluster.allocate(make_job(1, size=1), 1.0)

    def test_faulted_sequence_passes_the_oracle(self, sanitizer_on):
        cluster = Cluster(8)
        job = make_job(1, size=3)
        cluster.allocate(job, 0.0)
        cluster.fail_nodes([5, 6, 7], 1.0, np.array([40.0, 40.0, 9.0]))
        cluster.release_killed(job, 2.0)
        cluster.repair_nodes([7, 5], 30.0)   # one late, one early
        cluster.reset()
        sanitize.check_cluster(cluster, "reset")
        assert cluster.estimated_release_times(0.0).size == 0

    def test_clean_allocate_release_passes(self, sanitizer_on):
        cluster = Cluster(8)
        job = make_job(1, size=8)
        cluster.allocate(job, 0.0)
        job.mark_started(0.0, ExecMode.READY)
        job.mark_finished(100.0)
        cluster.release(job)
        assert cluster.available_nodes == 8


class TestQueueIndex:
    def queue(self):
        """Two waiting jobs, and one job held on an unfinished parent."""
        queue = WaitQueue()
        held = make_job(3, size=1)
        held.dependencies = (1, 1, 99)
        with sanitizing(True):
            queue.submit(make_job(1, size=4))
            queue.submit(make_job(2, size=2))
            queue.submit(held)
        return queue

    #: one way to break each index behind the mutators' back
    CORRUPTIONS = {
        "census_entry_lost": lambda q: q._census.pop(4),
        "census_minimum_stale": lambda q: setattr(q, "min_size", 1),
        "keys_out_of_order": lambda q: q._keys.reverse(),
        "key_of_another_job": lambda q: q._key_of.update({1: q._key_of[2]}),
        "size_entry_wrong": lambda q: q._sizes.__setitem__(1, 3),
        # a waiting job's estimate edited in place: the array is stale
        "walltime_mutated": lambda q: setattr(q._waiting[0], "walltime", 1.0),
        "open_dependencies_miscounted": lambda q: q._open.update({3: 3}),
        "dependent_lost": lambda q: q._dependents.pop(99),
    }

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
    def test_corrupt_index_raises(self, corrupt, sanitizer_on):
        queue = self.queue()
        corrupt(queue)
        with pytest.raises(SanitizerError, match="queue-index"):
            queue.submit(make_job(4))

    def test_corruption_silent_when_disabled(self, sanitizer_off):
        queue = self.queue()
        queue._census[4] += 1
        queue.submit(make_job(4))  # no error

    def test_env_var_activates_queue_checks(self, env_read):
        env_read("1")
        queue = WaitQueue()
        job = make_job(1)
        queue.submit(job)
        queue._census[job.size] += 1
        with pytest.raises(SanitizerError, match="queue-index"):
            queue.remove(job)

    def test_every_mutator_passes_the_oracle(self, sanitizer_on):
        queue = self.queue()
        first, second = queue.waiting
        queue.remove(first)
        queue.notify_finished(first)   # job 3 stays held on 99
        queue.requeue(first, front=True)
        queue.remove(second)
        queue.requeue(second, front=False)
        held = queue.held
        assert queue.notify_failed(make_job(99)) == held and queue.held == []
        assert (queue.waiting, queue.min_size) == ([first, second], 2)
        queue.clear()
        sanitize.check_queue_index(queue, "clear")

    def test_engine_flag_governs_its_queue(self, sanitizer_off, monkeypatch):
        checked = []
        check = sanitize.check_queue_index
        monkeypatch.setattr(sanitize, "check_queue_index",
                            lambda queue, context: checked.append(
                                check(queue, context)))
        jobs = [make_job(1, size=4), make_job(2, size=4, submit=1.0)]
        engine = Engine(Cluster(4), FCFSEasy(), jobs, sanitize=True)
        engine.run()
        assert len(checked) == 4   # two submits, two removes
        engine.queue.submit(make_job(3))   # outside the run: unchecked
        assert len(checked) == 4


class TestCheckFunctions:
    def test_monotonic_time(self):
        sanitize.check_monotonic_time(5.0, 5.0)
        sanitize.check_monotonic_time(5.0, 6.0)
        with pytest.raises(SanitizerError, match="moved backwards"):
            sanitize.check_monotonic_time(5.0, 4.0)

    def test_double_start(self):
        job = make_job(7)
        with pytest.raises(SanitizerError, match="double-start"):
            sanitize.check_job_start(job, 1.0, {7: job})
        sanitize.check_job_start(job, 1.0, {})

    def test_start_before_submission(self):
        job = make_job(3, submit=50.0)
        with pytest.raises(SanitizerError, match="causality"):
            sanitize.check_job_start(job, 10.0, {})

    @staticmethod
    def busy_until_20():
        cluster = Cluster(8)
        cluster.allocate(make_job(1, size=8, runtime=10.0), 0.0)
        return cluster

    def test_reservation_in_past(self):
        job = make_job(4, size=8)
        cluster = self.busy_until_20()
        stale = Reservation(job_id=4, size=8, shadow_time=5.0, extra_nodes=0)
        with pytest.raises(SanitizerError, match="shadow time"):
            sanitize.check_reservation(job, stale, now=10.0, running={},
                                       cluster=cluster)
        ok = Reservation(job_id=4, size=8, shadow_time=20.0, extra_nodes=0)
        sanitize.check_reservation(job, ok, now=10.0, running={},
                                   cluster=cluster)

    def test_reservation_for_running_job(self):
        job = make_job(4, size=8)
        res = Reservation(job_id=4, size=8, shadow_time=20.0, extra_nodes=0)
        with pytest.raises(SanitizerError, match="already-running"):
            sanitize.check_reservation(job, res, now=10.0, running={4: job},
                                       cluster=self.busy_until_20())

    @pytest.mark.parametrize("shadow, extra", [
        (30.0, 0),   # later than the release that frees the nodes
        (15.0, 0),   # before any release
        (20.0, 1),   # the right time, one node too many to spare
    ])
    def test_reservation_off_its_definition(self, shadow, extra):
        job = make_job(4, size=8)
        res = Reservation(job_id=4, size=8, shadow_time=shadow,
                          extra_nodes=extra)
        with pytest.raises(SanitizerError, match="arrays give 20.0 and 0"):
            sanitize.check_reservation(job, res, now=10.0, running={},
                                       cluster=self.busy_until_20())

    def test_reservation_missing_a_tied_group_raises(self, monkeypatch):
        """A query that stops at the shadow group, not at its tie run's end.

        Three one-node jobs release together; the blocked head needs two
        of them, so the shadow group is the middle of the run and the
        third group is one extra node.
        """
        def jobs():
            return [make_job(i, size=1) for i in range(3)] + [
                make_job(3, size=3)]

        def stop_at_shadow_group(cluster, size, now):
            times, sizes = cluster.release_groups(now)
            count = sizes.cumsum()
            group = int(count.searchsorted(size - cluster.available_nodes))
            return float(times[group]), (cluster.available_nodes
                                         + int(count[group]))

        run_simulation(4, FCFSEasy(), jobs(), sanitize=True)
        monkeypatch.setattr(Cluster, "reservation_point", stop_at_shadow_group)
        with pytest.raises(SanitizerError, match="200.0 and 0 extra nodes; "
                           "the per-node arrays give 200.0 and 1"):
            run_simulation(4, FCFSEasy(), jobs(), sanitize=True)


class TestMetricsInvariants:
    def finished_result(self, start, submit=100.0, end=None):
        job = make_job(1, submit=submit)
        job.state = JobState.FINISHED
        job.start_time = start
        job.end_time = end if end is not None else start + job.runtime
        return SimulationResult(jobs=[job], makespan=job.end_time,
                                first_submit=submit, num_instances=1, num_nodes=4)

    def test_negative_wait_raises(self, sanitizer_on):
        with pytest.raises(SanitizerError, match="negative wait"):
            RunMetrics.from_result(self.finished_result(start=40.0))

    def test_negative_turnaround_raises(self, sanitizer_on):
        with pytest.raises(SanitizerError, match="negative turnaround"):
            RunMetrics.from_result(self.finished_result(start=150.0, end=90.0))

    def test_corrupt_metrics_silent_when_disabled(self, sanitizer_off):
        assert RunMetrics.from_result(self.finished_result(start=40.0)).num_jobs == 1

    def test_clean_metrics_pass(self, sanitizer_on):
        m = RunMetrics.from_result(self.finished_result(start=150.0))
        assert m.avg_wait == 50.0


class TestNetworkInvariants:
    def make_net(self):
        return build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))

    def test_nan_input_raises(self, sanitizer_on):
        net = self.make_net()
        with pytest.raises(SanitizerError, match="NaN"):
            net.forward(np.full((1, 4, 2), np.nan))

    def test_inf_blames_producing_layer(self, sanitizer_on):
        net = self.make_net()
        net.layers[1].weight.value[:] = np.inf
        with pytest.raises(SanitizerError, match=r"layer 1 \(Dense\)"):
            net.forward(np.ones((1, 4, 2)))

    def test_nan_gradient_raises_in_backward(self, sanitizer_on):
        net = self.make_net()
        net.forward(np.ones((1, 4, 2)))
        with pytest.raises(SanitizerError, match="output gradient"):
            net.backward(np.full((1, 3), np.nan))

    def test_nan_silent_when_disabled(self, sanitizer_off):
        net = self.make_net()
        out = net.forward(np.full((1, 4, 2), np.nan))
        assert np.isnan(out).all()

    def test_clean_forward_backward_pass(self, sanitizer_on):
        net = self.make_net()
        out = net.forward(np.ones((2, 4, 2)))
        grad = net.backward(np.ones_like(out))
        assert np.isfinite(grad).all()


#: NumPy < 2 promotes by value: there a float64 *scalar* does not widen
#: a float32 array, so the scalar mutants are not mutants
NEP50 = np.result_type(np.float32, np.float64(1.0)) == np.float64
needs_nep50 = pytest.mark.skipif(
    not NEP50, reason="legacy promotion: a float64 scalar does not widen")


class TestDtypePurity:
    """``nn-dtype``: nothing in a float32 network computes in float64.

    The mutants are the NEP 50 traps: a Python-float ``np.where`` and a
    NumPy float64 scalar each turn one float32 tensor — and then every
    ``x @ W`` after it — into float64 without changing any shape.
    """

    def make_net(self):
        return build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))

    def test_clean_float32_and_float64_networks_pass(self, sanitizer_on):
        for dtype in (np.float32, np.float64):
            net = build_dras_network(4, 8, 6, 3, dtype=dtype)
            out = net.forward(np.ones((2, 4, 2)))
            grad = net.backward(np.ones((2, 3)))
            assert out.dtype == grad.dtype == dtype
            Adam(net.parameters(), lr=0.001).step()

    def test_untyped_where_in_leaky_relu_raises(self, sanitizer_on,
                                                monkeypatch):
        """Restoring ``np.where(x > 0, 1.0, alpha)`` names the layer."""
        def promoting(self, x):
            self._x = x
            return x * np.where(x > 0, 1.0, self.alpha)

        monkeypatch.setattr(LeakyReLU, "forward", promoting)
        with pytest.raises(SanitizerError,
                           match=r"nn-dtype.*layer 2 \(LeakyReLU\) is float64"):
            self.make_net().forward(np.ones((1, 4, 2)))

    def test_promoted_gradient_names_the_layer(self, sanitizer_on,
                                               monkeypatch):
        def promoting(self, grad_out):
            """The slope built from untyped scalars: float64 for any x."""
            return grad_out * np.where(self._x > 0, 1.0, self.alpha)

        monkeypatch.setattr(LeakyReLU, "backward", promoting)
        net = self.make_net()
        out = net.forward(np.ones((1, 4, 2)))
        with pytest.raises(SanitizerError,
                           match=r"nn-dtype.*backward gradient of layer 4"):
            net.backward(np.ones_like(out))

    def test_promotion_is_silent_when_disabled(self, sanitizer_off,
                                               monkeypatch):
        monkeypatch.setattr(
            LeakyReLU, "forward",
            lambda self, x: x * np.where(x > 0, 1.0, self.alpha))
        assert self.make_net().forward(np.ones((1, 4, 2))).dtype == np.float64

    @needs_nep50
    def test_float64_learning_rate_in_adam_raises(self, sanitizer_on):
        """An in-place update hides a wide scalar from every result dtype."""
        net = self.make_net()
        opt = Adam(net.parameters(), lr=np.float64(0.001))
        net.forward(np.ones((1, 4, 2)))
        net.backward(np.ones((1, 3)))
        opt.step()  # the constructor made it a Python float
        opt.lr = np.float64(0.001)
        net.forward(np.ones((1, 4, 2)))
        net.backward(np.ones((1, 3)))
        with pytest.raises(SanitizerError,
                           match="nn-dtype.*lr of conv.weight"):
            opt.step()

    def test_mixed_adam_state_raises(self, sanitizer_on):
        net = self.make_net()
        opt = Adam(net.parameters(), lr=0.001)
        net.forward(np.ones((1, 4, 2)))
        net.backward(np.ones((1, 3)))
        opt.step()  # the moments exist from the first step
        opt._m[1] = opt._m[1].astype(np.float64)
        net.forward(np.ones((1, 4, 2)))
        net.backward(np.ones((1, 3)))
        with pytest.raises(SanitizerError,
                           match="nn-dtype.*first moment of conv.bias"):
            opt.step()
        opt._m[1] = opt._m[1].astype(np.float32)
        fc1 = net.parameters()[2]
        x, d = fc1.grad             # a factor pair: each factor is checked
        fc1.grad = (x, d.astype(np.float64))
        with pytest.raises(SanitizerError,
                           match="nn-dtype.*gradient of fc1.weight"):
            opt.step()

    def test_scalar_rule(self):
        f32 = np.dtype(np.float32)
        sanitize.check_dtype("x", 0.5, f32)               # Python float: weak
        sanitize.check_dtype("x", np.float32(0.5), f32)
        sanitize.check_dtype("x", np.float64(0.5), np.dtype(np.float64))
        with pytest.raises(SanitizerError, match="x is float64"):
            sanitize.check_dtype("x", np.ones(2), f32)

    @needs_nep50
    def test_wide_numpy_scalar_widens(self):
        with pytest.raises(SanitizerError, match="x is float64"):
            sanitize.check_dtype("x", np.float64(0.5), np.dtype(np.float32))


class TestAdamInvariants:
    def test_nan_gradient_raises(self, sanitizer_on):
        net = build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.001)
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        net.parameters()[0].grad[:] = np.nan
        with pytest.raises(SanitizerError, match="gradient of conv.weight"):
            opt.step()

    @pytest.mark.parametrize("factor", [0, 1])
    def test_nan_in_a_factor_raises_and_names_the_parameter(self, factor,
                                                            sanitizer_on):
        net = build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.001)
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        fc2 = net.parameters()[3]
        pair = [f.copy() for f in fc2.grad]
        pair[factor][1, 2] = np.nan
        fc2.grad = tuple(pair)
        with pytest.raises(SanitizerError,
                           match=r"gradient of fc2.weight \(Adam step 1\)"):
            opt.step()

    def test_clean_step_passes(self, sanitizer_on):
        net = build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.001)
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        opt.step()

    def trained_once(self):
        net = build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.001)
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        opt.step()
        return net, opt

    def test_step_without_backward_is_named(self, sanitizer_on):
        """A step consumes its gradient: the next one needs a backward."""
        net, opt = self.trained_once()
        assert all(p.grad is None for p in net.parameters())
        with pytest.raises(ValueError, match=r"gradient of conv.weight is "
                                             r"None at Adam step 2"):
            opt.step()

    def test_step_consumes_a_pair_without_writing_its_factors(
            self, sanitizer_on):
        """The factors alias the layer's input and the loss gradient."""
        net = build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))
        fc1 = net.parameters()[2]
        opt = Adam([fc1], lr=0.001)
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        x, d = fc1.grad
        kept = x.copy(), d.copy()
        assert x is net.layers[1]._x
        opt.step()
        assert fc1.grad is None
        assert np.array_equal(x, kept[0]) and np.array_equal(d, kept[1])
        with pytest.raises(ValueError, match=r"gradient of fc1.weight is "
                                             r"None at Adam step 2"):
            opt.step()

    def test_backward_that_skips_a_parameter_is_named(self, sanitizer_on):
        net, opt = self.trained_once()
        fc2 = net.layers[3]
        fc2.backward = lambda grad_out: grad_out @ fc2.weight.value.T
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"gradient of fc2.weight is "
                                             r"None at Adam step 2"):
            opt.step()

    @pytest.mark.parametrize("active", ["sanitizer_on", "sanitizer_off"])
    def test_step_with_no_backward_behind_it_is_refused(self, active, request):
        """The *missing* gradient: always refused, and ``t`` stays put."""
        request.getfixturevalue(active)
        net = build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.001)
        before = net.state_dict()
        with pytest.raises(ValueError, match=r"gradient of conv.weight is "
                                             r"None at Adam step 1"):
            opt.step()
        assert opt.state_dict()["t"] == 0 and opt._m is None
        assert all(np.array_equal(v, before[k])
                   for k, v in net.state_dict().items())

    def test_first_backward_that_skips_a_parameter_is_refused(
            self, sanitizer_off):
        net = build_dras_network(4, 8, 6, 3, rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.001)
        fc2 = net.layers[3]
        fc2.backward = lambda grad_out: grad_out @ fc2.weight.value.T
        before = net.state_dict()
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        with pytest.raises(ValueError, match="gradient of fc2.weight is None"):
            opt.step()
        # refused before any parameter moved, not halfway down the list
        assert all(np.array_equal(v, before[k])
                   for k, v in net.state_dict().items())

    def test_stale_gradient_is_silent_when_disabled(self, sanitizer_off):
        net, opt = self.trained_once()
        assert all(np.isfinite(p.dense_grad()).all()
                   for p in net.parameters())
        opt.step()

    def test_wide_block_scratch_raises(self, sanitizer_on):
        net, opt = self.trained_once()
        opt._scratch = tuple(np.zeros(a.shape) for a in opt._scratch)
        net.forward(np.ones((2, 4, 2)))
        net.backward(np.ones((2, 3)))
        with pytest.raises(SanitizerError,
                           match="nn-dtype.*scratch 0 of conv.weight"):
            opt.step()

    def test_shape_check(self):
        sanitize.check_same_shape("w", (2, 3), (2, 3))
        with pytest.raises(SanitizerError, match="changed shape"):
            sanitize.check_same_shape("w", (2, 3), (3, 2))


class TestEndToEnd:
    def test_explicit_flag_checks_the_policy_network(self, sanitizer_off):
        """``sanitize=True`` reaches the agent's forward as
        ``REPRO_SANITIZE=1`` does: an fc1 weight written in place without
        its ``version`` counted is served stale sums, and only the
        ``shared-forward`` oracle sees it.  ``sanitize=False`` inside a
        sanitized block runs dark, and the block's decision comes back."""
        agent = DRASPG(DRASConfig(num_nodes=32, window=3, hidden1=12,
                                  hidden2=6, seed=0, time_scale=100.0))
        agent.eval(online_learning=False)
        jobs = ThetaModel.scaled(32).generate(40, np.random.default_rng(5))
        run_simulation(32, agent, [j.copy_fresh() for j in jobs])
        agent.network.layers[1].weight.value += 1.0   # no version bump
        with pytest.raises(SanitizerError, match="shared-forward"):
            run_simulation(32, agent, [j.copy_fresh() for j in jobs],
                           sanitize=True)
        assert not sanitize.sanitizer_enabled()
        with sanitizing(True):
            result = run_simulation(32, agent, [j.copy_fresh() for j in jobs],
                                    sanitize=False)
            assert sanitize.sanitizer_enabled()
        assert len(result.finished_jobs) == 40

    def test_sanitized_run_matches_unsanitized(self):
        model = ThetaModel.scaled(32)
        jobs = model.generate(60, np.random.default_rng(5))
        plain = run_simulation(32, FCFSEasy(), [j.copy_fresh() for j in jobs])
        checked = run_simulation(
            32, FCFSEasy(), [j.copy_fresh() for j in jobs], sanitize=True
        )
        assert RunMetrics.from_result(plain) == RunMetrics.from_result(checked)
        assert checked.makespan == plain.makespan
