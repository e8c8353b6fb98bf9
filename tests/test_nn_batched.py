"""Equivalence tests for the batched NN inference/training paths.

The vectorized core (see ``docs/nn.md``) makes four promises that
these tests pin down:

1. a batched forward equals the per-sample loop to float64 precision,
2. gradcheck passes identically for batch 1 and batch ``N``,
3. one Adam step on batch-accumulated gradients equals the step on a
   single batched backward,
4. batch-1 training is **bit-identical** to the pre-vectorization
   implementation — four golden SHA-256 digests of trained agent
   state, captured on the seed tree under ``REPRO_SANITIZE=1``, must
   reproduce exactly,
5. the two-input ``forward(x, shared=)`` every agent scores its window
   with equals the forward over the materialised ``[B, k + N, 2]``
   input to reassociation, in float64 and in float32 (the random
   cluster histories are ``tests/test_stateful.py``'s).

Promises 1-4 were made in float64 and are kept there: the networks
below are built with ``dtype=np.float64`` and the golden agents by
``float64_agent``.  The float32 networks the agents really run get
their own pinned digests, and a stated bound against the float64 ones.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import sanitize
from repro.check.sanitize import SanitizerError
from repro.core.config import DRASConfig
from repro.core.decima import DecimaPG
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.core.state import NodeGroups, StateEncoder
from repro.nn import layers
from repro.nn.layers import Dense
from repro.nn.losses import mse_loss, policy_gradient_loss
from repro.nn.network import build_dras_network
from repro.nn.optim import Adam
from repro.obs.profile import Profiler, set_global_profiler
from repro.obs.trace import Tracer, read_trace, set_global_tracer
from repro.rl.trainer import Trainer
from repro.sim.cluster import Cluster
from repro.sim.engine import run_simulation
from repro.sim.job import Job
from tests.conftest import float64_agent, with_node_rows
from tests.gradcheck import check_gradients

# small Table III-shaped stand-in: [B, 12, 2] -> [B, 4]
ROWS, H1, H2, OUT = 12, 16, 8, 4


def small_network(seed: int = 0, dtype=np.float64):
    """A tiny DRAS-shaped network for fast equivalence checks."""
    return build_dras_network(ROWS, H1, H2, OUT,
                              rng=np.random.default_rng(seed), dtype=dtype)


def reassociation_atol(dtype) -> float:
    """What two summation orders of one forward may differ by (O(1) outputs)."""
    return sanitize.SHARED_FORWARD_EPS * float(np.finfo(dtype).eps)


class TestBatchedForward:
    def test_batched_matches_loop(self):
        """One [16, rows, 2] forward == 16 batch-of-one forwards."""
        net = small_network()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, ROWS, 2))
        batched = net.forward(x)
        looped = np.stack(
            [net.forward(x[i : i + 1])[0] for i in range(16)]
        )
        assert batched.shape == (16, OUT)
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)

    def test_backward_batch_sums_sample_grads(self):
        """Batched backward writes the sum of per-sample grads."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, ROWS, 2))
        grad_out = rng.normal(size=(6, OUT))
        net_a, net_b = small_network(7), small_network(7)

        net_a.forward(x)
        net_a.backward(grad_out)

        # a backward writes, so the summing happens here
        summed = [np.zeros_like(p.value) for p in net_b.parameters()]
        for i in range(6):
            net_b.forward(x[i : i + 1])
            net_b.backward(grad_out[i : i + 1])
            for total, p in zip(summed, net_b.parameters()):
                total += p.dense_grad()

        for pa, total in zip(net_a.parameters(), summed):
            np.testing.assert_allclose(pa.dense_grad(), total,
                                       rtol=1e-9, atol=1e-12)


def materialise(x, shared, n):
    """The ``[B, k + n, 2]`` input the two-input form stands for."""
    return with_node_rows(x, shared.expand(n))


def singletons(block) -> NodeGroups:
    """Every node a group of its own: any ``[N, 2]`` block as a snapshot."""
    return NodeGroups(np.vstack([[1.0, 0.0], block]), (),
                      np.arange(len(block)))


def grouped(rng, n: int, sizes=(3, 2), lone: int = 2) -> NodeGroups:
    """Allocations of ``sizes`` nodes, ``lone`` lone nodes, the rest free."""
    order = rng.permutation(n)
    cuts = np.cumsum(sizes)
    nodes = tuple(np.sort(part) for part in np.split(order[:cuts[-1]], cuts[:-1]))
    rows = np.vstack([[1.0, 0.0], np.column_stack(
        [np.zeros(len(sizes) + lone), rng.random(len(sizes) + lone)])])
    return NodeGroups(rows, nodes, np.sort(order[cuts[-1]:cuts[-1] + lone]))


#: a first layer this wide sums its rows in blocks of 16, as Theta's does
STEP = 16
WIDE = layers._ROW_BLOCK // STEP


def row_sum_per_run(weight, rows):
    """Sum of ``weight[rows]`` the way ``Dense._row_sum`` took it before
    the block table: each run of consecutive rows block by block from
    its own first row.  The oracle the table reproduces bit for bit on
    the grid."""
    step = max(1, layers._ROW_BLOCK // weight.shape[1])
    out = np.zeros(weight.shape[1], dtype=np.float64)
    cuts = np.flatnonzero(np.diff(rows) != 1) + 1
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), rows.size]):
        first, last = int(rows[lo]), int(rows[hi - 1]) + 1
        for at in range(first, last, step):
            out += weight[at:min(at + step, last)].sum(axis=0)
    return out


def block_table(weight, k):
    """What ``Dense._blocks`` holds for ``weight`` at ``k`` head rows."""
    step = max(1, layers._ROW_BLOCK // weight.shape[1])
    return np.array([weight[at:at + step].sum(axis=0)
                     for at in range(k, len(weight) - step + 1, step)])


def runs_of(nodes):
    """``nodes`` cut into runs of consecutive values."""
    return np.split(nodes, np.flatnonzero(np.diff(nodes) != 1) + 1)


@st.composite
def node_sets(draw, n):
    """Sorted nodes of ``0..n-1``: the union of a few runs, each from a
    block edge or not, shorter than a block or not, or to the end."""
    nodes = set()
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, (n - 1) // STEP)) * STEP \
            + draw(st.one_of(st.just(0), st.integers(0, STEP - 1)))
        length = draw(st.one_of(st.integers(1, STEP - 1),
                                st.integers(STEP, 3 * STEP), st.just(n)))
        nodes.update(range(min(start, n - 1), min(start + length, n)))
    return np.array(sorted(nodes))


@pytest.fixture
def pairs_are_groups(monkeypatch):
    """Let two nodes be a group, so that a 12-row network has some."""
    monkeypatch.setattr(layers, "MIN_GROUP_ROWS", 2)


@pytest.mark.usefixtures("pairs_are_groups")
class TestSharedForward:
    """``forward(x, shared=)`` against the materialised plain forward.

    Fixed snapshots only: random allocate / release / fail / repair /
    requeue histories, the cache bound and entry lifetimes are the
    cluster machine's in ``tests/test_stateful.py``.
    """

    WINDOW = 4  # k = 2W is the PG-style head: the form is generic in k

    def test_float64_bound_is_the_old_one(self):
        """The eps-scaled bound is no looser than the 1e-12 it replaced."""
        assert reassociation_atol(np.float64) <= 1e-12

    @pytest.mark.parametrize("batch", [1, 50])
    @pytest.mark.parametrize("k", [2, 2 * WINDOW])
    def test_matches_materialised(self, batch, k):
        """All nodes free; each on its own; one pair, one lone, the rest free."""
        rng = np.random.default_rng(10)
        x = rng.normal(size=(batch, k, 2))
        n = ROWS - k
        free = NodeGroups(np.array([[1.0, 0.0]]), (), np.arange(0))
        for shared in (free, singletons(rng.normal(size=(n, 2))),
                       grouped(rng, n, sizes=(2,), lone=1)):
            for dtype in (np.float64, np.float32):
                net = small_network(dtype=dtype)
                factored = net.forward(x, shared=shared)
                assert factored.shape == (batch, OUT) and factored.dtype == dtype
                np.testing.assert_allclose(
                    factored, net.forward(materialise(x, shared, n)), rtol=0,
                    atol=reassociation_atol(dtype))

    def test_matches_materialised_at_theta_dql_dims(self, monkeypatch):
        """4,362 -> 4,000 -> 1,000 -> 1 over a cluster of Theta-sized jobs.

        A mean-sized window of 14 jobs; 13 allocations down to Theta's
        smallest (128 nodes), two down nodes and a 1-node job as the
        residual.  Prints the deviations it bounds (``pytest -s``).
        """
        monkeypatch.undo()      # groups of MIN_GROUP_ROWS, as shipped
        dims = DRASConfig.theta().dql_dims
        cluster = Cluster(dims.rows - 2)
        rng = np.random.default_rng(11)
        cluster.fail_nodes([7, 2000], 0.0, np.array([50.0, 7000.0]))
        for size in (1, 1024, 512, 512, 256, 256, *[128] * 8, 15):
            cluster.allocate(Job(size=size, walltime=float(rng.integers(600, 86400)),
                                 runtime=60.0, submit_time=0.0), 0.0)
        shared = StateEncoder(cluster.num_nodes, 50).node_groups(cluster, 300.0)
        assert len(shared.nodes) == 13 and shared.lone.size == 3 + 15
        x = rng.random((14, 2, 2))
        # float32, as the agents run it; float64 is the small networks'
        net = build_dras_network(dims.rows, dims.hidden1, dims.hidden2,
                                 dims.outputs, rng=np.random.default_rng(0))
        factored = net.forward(x, shared=shared)
        plain = net.forward(materialise(x, shared, cluster.num_nodes))
        print(f"theta-dql float32: max deviation "
              f"{np.max(np.abs(factored - plain)):.2e} at max |Q| "
              f"{np.max(np.abs(plain)):.2e}")
        np.testing.assert_allclose(factored, plain, rtol=0,
                                   atol=reassociation_atol(np.float32))
        sums = net.layers[1]._sums
        assert len(sums) == 14      # S_all and one per allocation
        assert sum(s.nbytes for _, s in sums.values()) \
            <= net.layers[1].weight.value.nbytes // 8

    @pytest.mark.parametrize("x_shape, shared_shape", [
        ((3, 2, 2), (ROWS - 3, 2)),      # not one row per lone node + the free row
        ((3, 2, 2), (1, ROWS - 2, 2)),   # rows.ndim != 2
        ((3, 2, 2), (2 * (ROWS - 2),)),
        ((2, 2), (ROWS - 1, 2)),         # x.ndim != 3
    ])
    def test_bad_shapes_rejected(self, x_shape, shared_shape):
        shared = NodeGroups(np.zeros(shared_shape), (), np.arange(ROWS - 2))
        with pytest.raises(ValueError):
            small_network().forward(np.zeros(x_shape), shared=shared)

    @pytest.mark.parametrize("nodes, lone, error", [
        ([8, 9, 10], [], ValueError),       # a group past the last node
        ([4], [], ValueError),              # a group below MIN_GROUP_ROWS
        ([4, 5], [10], IndexError),         # a lone node past the last
        ([5, 4], [], ValueError),           # a group out of order
        ([4, 4], [], ValueError),           # a node twice in a group
    ])
    def test_nodes_outside_the_network_rejected(self, nodes, lone, error):
        shared = NodeGroups(np.zeros((2 + len(lone), 2)), (np.array(nodes),),
                            np.array(lone, dtype=np.intp))
        with pytest.raises(error):
            small_network().forward(np.zeros((1, 2, 2)), shared=shared)

    def test_copied_cache_serves_nothing(self):
        """A deep copy keeps the original arrays' ids as keys: a later
        array that lands on one is not the allocation the sum is of."""
        rng = np.random.default_rng(16)
        net = build_dras_network(2 + 62, H1, H2, 1, rng=rng, dtype=np.float64)
        x, shared = rng.normal(size=(5, 2, 2)), grouped(rng, 62, sizes=(30, 20))
        net.forward(x, shared=shared)
        twin = copy.deepcopy(net)
        sums = twin.layers[1]._sums
        assert set(sums) == set(net.layers[1]._sums)
        other = grouped(rng, 62, sizes=(25, 10))
        for key, nodes in zip([k for k in sums if k is not None], other.nodes):
            sums[id(nodes)] = sums.pop(key)     # the collision, made by hand
        np.testing.assert_allclose(
            twin.forward(x, shared=other),
            twin.forward(materialise(x, other, 62)), rtol=0,
            atol=reassociation_atol(np.float64))

    @pytest.mark.parametrize("sanitized", [False, True])
    def test_backward_after_shared_forward_raises(self, sanitized, monkeypatch):
        """No stale minibatch is differentiated after an inference pass."""
        monkeypatch.setattr(sanitize, "_FORCED", sanitized)
        net = small_network()
        rng = np.random.default_rng(12)
        net.forward(rng.normal(size=(3, ROWS, 2)))  # fills the caches
        out = net.forward(rng.normal(size=(3, 2, 2)),
                          shared=grouped(rng, ROWS - 2))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            net.backward(np.ones_like(out))

    def test_sanitized_result_is_the_factored_one(self, monkeypatch):
        """The oracle pass checks; it never substitutes its own output."""
        net = small_network()
        rng = np.random.default_rng(13)
        x, shared = rng.normal(size=(5, 2, 2)), grouped(rng, ROWS - 2)
        monkeypatch.setattr(sanitize, "_FORCED", False)
        dark = net.forward(x, shared=shared)
        monkeypatch.setattr(sanitize, "_FORCED", True)
        assert np.array_equal(net.forward(x, shared=shared), dark)

    def test_sanitizer_catches_wrong_slice(self, monkeypatch):
        """A group sum that reads one table row off by a block trips
        ``shared-forward``; dark, nothing checks it."""
        rng = np.random.default_rng(14)
        net = build_dras_network(2 + 62, WIDE, H2, 1, rng=rng, dtype=np.float64)
        x = rng.normal(size=(5, 2, 2))

        def snapshot():     # new arrays: every group sum is built again
            return NodeGroups(np.array([[1.0, 0.0], [0.0, 0.3], [0.0, 0.7]]),
                              (np.arange(16, 40), np.arange(44, 62)), np.arange(0))

        monkeypatch.setattr(sanitize, "_FORCED", False)
        net.forward(x, shared=snapshot())
        blocks = net.layers[1]._blocks
        blocks[1] = blocks[2]               # row 1 holds block 2's sum
        net.forward(x, shared=snapshot())
        monkeypatch.setattr(sanitize, "_FORCED", True)
        with pytest.raises(SanitizerError, match="shared-forward"):
            net.forward(x, shared=snapshot())

    @pytest.mark.parametrize("writer", ["adam", "load_state_dict"])
    def test_result_follows_the_weights(self, writer, monkeypatch):
        """Both writers of a weight drop the block table and the sums read
        from it, and so does a call at another ``k``.

        The mutants — a write without counting, a table stamped on the
        version alone — keep serving the old ones: dark they return
        stale scores, sanitized they raise.
        """
        monkeypatch.setattr(sanitize, "_FORCED", False)
        rng = np.random.default_rng(15)
        net = build_dras_network(2 + 62, WIDE, H2, 1, rng=rng, dtype=np.float64)
        fc1 = net.layers[1]
        x, shared = rng.normal(size=(5, 2, 2)), grouped(rng, 62, sizes=(30, 20))
        x8, shared8 = rng.normal(size=(5, 8, 2)), grouped(rng, 56, sizes=(30, 20))
        opt = Adam(net.parameters(), lr=0.1)

        def write():
            if writer == "adam":
                net.backward(np.ones_like(net.forward(materialise(x, shared, 62))))
                opt.step()
            else:
                net.load_state_dict(
                    {k: v + 0.1 for k, v in net.state_dict().items()})

        def off_plain(x, shared):
            """Scores of ``shared=`` and how far they are from the plain ones."""
            k = x.shape[1]
            out = net.forward(x, shared=shared)
            return out, np.max(np.abs(out - net.forward(materialise(x, shared, 64 - k))))

        def table_is_of_the_weight(k):
            return np.array_equal(fc1._blocks, block_table(fc1.weight.value, k))

        def served_stale(x, shared):
            """Dark: scores off the plain ones, read from an old table;
            sanitized: a raise."""
            _, off = off_plain(x, shared)
            assert off > 1e-3 and not table_is_of_the_weight(x.shape[1])
            monkeypatch.setattr(sanitize, "_FORCED", True)
            with pytest.raises(SanitizerError, match="shared-forward"):
                net.forward(x, shared=shared)
            monkeypatch.setattr(sanitize, "_FORCED", False)

        before, _ = off_plain(x, shared)
        assert len(fc1._sums) == 3 and table_is_of_the_weight(2)
        write()
        after, off = off_plain(x, shared)
        assert np.max(np.abs(after - before)) > 1e-3
        assert off <= reassociation_atol(np.float64) and table_is_of_the_weight(2)
        _, off = off_plain(x8, shared8)   # another k, the same weight
        assert off <= reassociation_atol(np.float64) and table_is_of_the_weight(8)
        # the mutants: a table stamped on the version alone (built at
        # k = 2, asked at k = 8), and a write with the count put back
        net.forward(x, shared=shared)
        fc1._stamp = (fc1.weight.version, 8)
        served_stale(x8, shared8)
        net.forward(x, shared=shared)
        version = fc1.weight.version
        write()
        fc1.weight.version = version
        served_stale(x, shared)

    def test_step_after_a_snapshot_rebuilds_the_table(self, monkeypatch):
        """A step after ``state_dict()`` rebinds fc1's weight to a fresh
        array: the table and sums follow the new version, and the
        frozen two-input forward still equals the plain one."""
        monkeypatch.setattr(sanitize, "_FORCED", False)
        rng = np.random.default_rng(16)
        net = build_dras_network(2 + 62, WIDE, H2, 1, rng=rng, dtype=np.float64)
        fc1 = net.layers[1]
        x, shared = rng.normal(size=(5, 2, 2)), grouped(rng, 62, sizes=(30, 20))
        before = net.forward(x, shared=shared)
        snapshot = net.state_dict()
        lent = snapshot["1.fc1.weight"].copy()
        net.backward(np.ones_like(net.forward(materialise(x, shared, 62))))
        Adam(net.parameters(), lr=0.1).step()
        assert fc1.weight.value is not snapshot["1.fc1.weight"]
        assert np.array_equal(snapshot["1.fc1.weight"], lent)
        after = net.forward(x, shared=shared)
        assert np.max(np.abs(after - before)) > 1e-3
        np.testing.assert_allclose(
            after, net.forward(materialise(x, shared, 62)), rtol=0,
            atol=reassociation_atol(np.float64))
        assert np.array_equal(fc1._blocks, block_table(fc1.weight.value, 2))

    def test_one_span_with_the_head_shape(self, tmp_path):
        """Traced and profiled, a shared forward is still one ``nn.forward``."""
        net = small_network()
        x, shared = np.zeros((5, 2, 2)), singletons(np.zeros((ROWS - 2, 2)))
        path = tmp_path / "trace.jsonl"
        profiler = Profiler()
        tracer = Tracer(path)
        old_profiler = set_global_profiler(profiler)
        old_tracer = set_global_tracer(tracer)
        try:
            net.forward(x, shared=shared)
        finally:
            set_global_tracer(old_tracer)
            set_global_profiler(old_profiler)
            tracer.close()
        spans = [r for r in read_trace(path) if r.get("type") == "begin"
                 and r["name"] == "nn.forward"]
        assert len(spans) == 1
        assert spans[0]["shape"] == [5, 2, 2]
        flat = {e.name: e for e in profiler.flat()}
        assert flat["nn.forward"].calls == 1


class TestBlockTable:
    """``Dense._row_sum`` reads whole blocks from ``_blocks``: against
    exact sums, and bit for bit against the per-run sum on the grid."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([2, 2 * TestSharedForward.WINDOW]),
           n=st.integers(2 * STEP + 1, 5 * STEP), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_table_sum_against_exact_and_per_run(self, k, n, data, seed):
        fc1 = Dense(k + n, WIDE, bias=False, rng=np.random.default_rng(seed),
                    dtype=np.float32)
        fc1.forward_shared(np.zeros((1, k), np.float32), np.ones(1, np.float32),
                           (), np.arange(0))
        weight = fc1.weight.value
        assert np.array_equal(fc1._blocks, block_table(weight, k))
        assert np.array_equal(fc1._sums[None][1],
                              row_sum_per_run(weight, np.arange(k, k + n)))
        nodes = data.draw(node_sets(n))
        got = fc1._row_sum(nodes, k)
        exact = weight[k + nodes].astype(np.float64).sum(axis=0)
        np.testing.assert_allclose(
            got, exact, rtol=0,
            atol=reassociation_atol(np.float32) * max(1.0, np.max(np.abs(exact))))
        runs = runs_of(nodes)
        if all(run[0] % STEP == 0 for run in runs):
            assert np.array_equal(got, row_sum_per_run(weight, k + nodes))
        for run in runs:
            if run[0] % STEP == 0:
                assert np.array_equal(fc1._row_sum(run, k),
                                      row_sum_per_run(weight, k + run))


class TestGradcheckParity:
    @pytest.mark.parametrize("batch", [1, 5])
    def test_mse_gradcheck(self, batch):
        """Analytic grads match finite differences at batch 1 and N."""
        net = small_network(seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(batch, ROWS, 2))
        target = rng.normal(size=(batch, OUT))
        worst = check_gradients(
            net, x, lambda out: mse_loss(out, target), max_entries=8
        )
        assert worst < 1e-4

    @pytest.mark.parametrize("batch", [1, 5])
    def test_policy_gradient_gradcheck(self, batch):
        """The REINFORCE head gradchecks at batch 1 and N too."""
        net = small_network(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(batch, ROWS, 2))
        masks = np.ones((batch, OUT), dtype=bool)
        masks[:, -1] = False  # one masked slot per window
        actions = rng.integers(0, OUT - 1, size=batch)
        advantages = rng.normal(size=batch)
        worst = check_gradients(
            net, x,
            lambda out: policy_gradient_loss(out, masks, actions, advantages),
            max_entries=8,
        )
        assert worst < 1e-4


class TestAdamBatchEquivalence:
    def test_accumulated_equals_batched_step(self):
        """Adam(sum of per-sample grads) == Adam(one batched backward)."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, ROWS, 2))
        target = rng.normal(size=(6, OUT))
        net_a, net_b = small_network(9), small_network(9)
        opt_a = Adam(net_a.parameters(), lr=1e-3)
        opt_b = Adam(net_b.parameters(), lr=1e-3)

        _, grad = mse_loss(net_a.forward(x), target)
        net_a.backward(grad)
        opt_a.step()

        summed = [np.zeros_like(p.value) for p in net_b.parameters()]
        for i in range(6):
            out = net_b.forward(x[i : i + 1])
            # the same batch loss, sliced per sample: the test sums the
            # written grads to the batched total before the single step
            diff = out - target[i : i + 1]
            net_b.backward((2.0 / target.size) * diff)
            for total, p in zip(summed, net_b.parameters()):
                total += p.dense_grad()
        for total, p in zip(summed, net_b.parameters()):
            p.grad = total
        opt_b.step()

        for pa, pb in zip(net_a.parameters(), net_b.parameters()):
            np.testing.assert_allclose(pa.value, pb.value,
                                       rtol=1e-9, atol=1e-12)


#: SHA-256 of trained agent state on the pre-vectorization seed tree
#: (captured under REPRO_SANITIZE=1 before the batched refactor); the
#: vectorized code must reproduce these bit for bit.  They are float64
#: states: ``float64_agent`` builds the agents that reproduce them.
GOLDEN_DIGESTS = {
    "pg-b1": "c8b98a2c98c6e02568e12fcd5b83e70a9c0f8aa6fb34459eba39753258bdb41f",
    "pg-b10": "74a6518b26ab3c2d853f4cf81a41e58229cddf841c981bb7f04a91b57daf3ce3",
    # DRAS-DQL scores its window through forward(x, shared=): each
    # refactoring of the first layer's sum moves Q in the last bit (the
    # very first decision, max Q -0.04795074388378769 grouped against
    # ...8766 per node), and max Q feeds the TD target.  The earlier
    # digests live on below, each reproduced by an oracle agent scoring
    # the way the code then did.  The PG digests never moved: no
    # sampled action flipped.
    "dql-b1": "7fc0bfffebcf0113d87b02f52510c29098371d5e5e8098f434d2b9e306f642fd",
    "dql-b10": "a24eec3e8b83682b90774f8aed8504ac24bdbeab071e95ae7b12c584207f91d6",
    # Decima-PG, pinned while it still kept its own copy of DRAS-PG's
    # constructor and update cadence: the one-level subclass must train
    # to the same parameters
    "decima-b1": "be13dc938a993a9a676abd8dcc65f57cd312f50d2602476e28bea105165123f9",
    "decima-b10": "38aa172dae3ca58661e6cef9ae3562c13725f1c3cb5110a867a33206699fc23e",
}

#: the DQL digests of the same seed tree, from when window scoring ran
#: one plain forward over the materialised ``[B, 2 + N, 2]`` batch
MATERIALISED_DQL_DIGESTS = {
    "dql-b1": "7d53215ba8a0e6a10bfd3e335b1748c071b3eca1d425be32e08c63e7fb15f17e",
    "dql-b10": "00b6d602e101b644f47b52b17cfafdb3e512aa8ddecb35f06023544990198592",
}

#: and from when it ran one GEMV over all ``N`` node rows beside the job
#: blocks (``GOLDEN_DIGESTS`` / ``FLOAT32_DIGESTS`` until the node rows
#: were summed by group)
PER_NODE_DQL_DIGESTS = {
    "dql-b1": "e7cec40d33d0893b6dbd46ecdd1eb5bd5a64ff011682fe1a7e5a00ad892c860d",
    "dql-b10": "46b7e121ca96a550faaeb811583fb514f8a32a1a7aa4ac5b11d77ddc95c564ec",
}
PER_NODE_FLOAT32_DQL_DIGESTS = {
    "dql-b1": "3ac2b2fbf039c9b389ea0249508d8dc914e175211e2a5474bc55df60031187ba",
    "dql-b10": "6e40728b5b65dc12d7548109b29c9c8d549a6cc5552f018d806053b9a86f39da",
}


#: the same recipe trained by the agents as shipped (float32 network,
#: gradients and Adam state), with and without the sanitizer
FLOAT32_DIGESTS = {
    "pg-b1": "574ed9bd6fe86e24ef386254d8c5125c125e0f2be5681e461cbb3387c0e0ff02",
    "pg-b10": "91895d6b12b202bd09d9971d48163abec73253b67b80cff1bd54d7b06203033a",
    "dql-b1": "41187272fbdb85ac27cf225fbf9b054ab72c083d54eec9b229b694d2f95ed94a",
    "dql-b10": "2a0b2d896e2d81047377c3bc5a8018f7731e6de77276af9431429e0f4083907b",
}

#: bound on max |float32 - float64| over every trained parameter of the
#: golden recipe.  Measured 2.2e-7 / 9.9e-8 / 3.7e-7 / 1.4e-7 (pg-b1,
#: pg-b10, dql-b1, dql-b10) on parameters up to 1.38 in magnitude —
#: about three float32 ulps after 36 Adam steps; the bound leaves 10x.
FLOAT32_STATE_ATOL = 4e-6


class MaterialisedDQL(DRASDQL):
    """DRAS-DQL scoring the concatenated input: the pre-factoring oracle."""

    def score_window(self, x, shared):
        full = materialise(x, shared, self.config.num_nodes)
        return self.network.forward(full)[:, 0]


class PerNodeDQL(DRASDQL):
    """DRAS-DQL multiplying every node row once: the pre-grouping oracle."""

    def score_window(self, x, shared):
        net = self.network
        conv, fc1 = net.layers[:2]
        rows = np.asarray(shared.expand(self.config.num_nodes), net.dtype)
        out = conv.forward(np.asarray(x, net.dtype)) @ fc1.weight.value[:2]
        out += conv.forward(rows[None])[0] @ fc1.weight.value[2:]
        for layer in net.layers[2:]:
            out = layer.forward(out)
        return out[:, 0]


def _jobs(n: int, seed: int) -> list[Job]:
    """The fixed jobset recipe the golden digests were captured with."""
    rng = np.random.default_rng(seed)
    return [
        Job(
            size=int(rng.integers(1, 9)),
            walltime=float(rng.integers(20, 200)),
            runtime=float(rng.integers(10, 150)),
            submit_time=float(i * 15),
            job_id=100 + i,
        )
        for i in range(n)
    ]


def _digest(agent) -> str:
    """SHA-256 over the agent's sorted state dict, raw parameter bytes."""
    h = hashlib.sha256()
    state = agent.state_dict()
    for key in sorted(state):
        h.update(key.encode())
        h.update(np.ascontiguousarray(state[key]).tobytes())
    return h.hexdigest()


def _train(agent_cls, update_every: int, wide: bool = True):
    """Two training episodes on the golden recipe; returns the agent.

    The agent is the float64 twin the goldens were captured with, or
    with ``wide=False`` the float32 one the class constructs.
    """
    config = DRASConfig(
        num_nodes=16, window=4, hidden1=16, hidden2=8, seed=0,
        objective="capability", time_scale=1000.0,
        update_every=update_every,
    )
    agent = float64_agent(agent_cls, config) if wide else agent_cls(config)
    Trainer(agent, num_nodes=16).train(
        [("a", _jobs(12, 3)), ("b", _jobs(12, 4))]
    )
    return agent


def _picks(agent) -> list[tuple[float, int, int]]:
    """``(now, level, job id)`` of every selection on the first jobset.

    The agent is frozen and its generator rewound to a fixed state, so
    DQL is greedy and PG samples from the same uniform draws.
    """
    picks = []
    select = agent.select

    def logged(window, view, level):
        job = select(window, view, level)
        picks.append((view.now, level, job.job_id))
        return job

    agent.select = logged
    agent.eval(online_learning=False)
    agent.rng.bit_generator.state = np.random.default_rng(5).bit_generator.state
    run_simulation(16, agent, _jobs(12, 3))
    return picks


class TestBitIdenticalTraining:
    @pytest.mark.parametrize(
        "name, agent_cls, update_every",
        [
            ("pg-b1", DRASPG, 1),
            ("pg-b10", DRASPG, 10),
            ("dql-b1", DRASDQL, 1),
            ("dql-b10", DRASDQL, 10),
            ("decima-b1", DecimaPG, 1),
            ("decima-b10", DecimaPG, 10),
        ],
    )
    def test_training_reproduces_golden_digest(
        self, name, agent_cls, update_every, monkeypatch
    ):
        """Two training episodes end in exactly the golden parameters.

        ``update_every=1`` exercises the batch-1 update path (the
        bit-identity requirement); ``update_every=10`` the batched
        minibatch path.  The sanitizer is on so any non-finite tensor
        would abort loudly rather than hash differently.
        """
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert _digest(_train(agent_cls, update_every)) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name, update_every",
                             [("dql-b1", 1), ("dql-b10", 10)])
    def test_dql_goldens_moved_by_reassociation_only(
        self, name, update_every, monkeypatch
    ):
        """Scored the way it once was, DQL trains to the digest of then.

        Nothing but the first layer's summation order separates the
        pinned digests: each oracle agent reproduces its own bit for
        bit — float64 and, for the per-node one, the shipped float32 —
        and the trained states agree to 1e-12 (float32: to the rounding
        of a weight near 1).
        """
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        grouped = _train(DRASDQL, update_every).state_dict()
        for oracle_cls, digests in ((MaterialisedDQL, MATERIALISED_DQL_DIGESTS),
                                    (PerNodeDQL, PER_NODE_DQL_DIGESTS)):
            oracle = _train(oracle_cls, update_every)
            assert _digest(oracle) == digests[name]
            for key, value in oracle.state_dict().items():
                assert np.max(np.abs(grouped[key] - value)) <= 1e-12, key
        narrow = _train(PerNodeDQL, update_every, wide=False)
        assert _digest(narrow) == PER_NODE_FLOAT32_DQL_DIGESTS[name]
        grouped = _train(DRASDQL, update_every, wide=False).state_dict()
        for key, value in narrow.state_dict().items():
            assert np.max(np.abs(grouped[key] - value)) \
                <= 2 * np.finfo(np.float32).eps, key

    @pytest.mark.parametrize("sanitized", [False, True])
    @pytest.mark.parametrize(
        "name, agent_cls, update_every",
        [
            ("pg-b1", DRASPG, 1),
            ("pg-b10", DRASPG, 10),
            ("dql-b1", DRASDQL, 1),
            ("dql-b10", DRASDQL, 10),
        ],
    )
    def test_float32_training_is_pinned_and_near_float64(
        self, name, agent_cls, update_every, sanitized, monkeypatch
    ):
        """The shipped float32 agents: own digests, bounded from the goldens.

        The sanitizer only asserts, so the digest is the same with it
        on or off; every tensor of the trained agent is float32; the
        trained state sits within ``FLOAT32_STATE_ATOL`` of the float64
        twin's; and, frozen on the recipe's first jobset, the two make
        the same selections.
        """
        monkeypatch.setattr(sanitize, "_FORCED", sanitized)
        narrow = _train(agent_cls, update_every, wide=False)
        assert _digest(narrow) == FLOAT32_DIGESTS[name]
        assert {v.dtype for v in narrow.state_dict().values()} \
            == {np.dtype(np.float32)}
        wide = _train(agent_cls, update_every)
        state = wide.state_dict()
        worst = max(float(np.max(np.abs(value - state[key])))
                    for key, value in narrow.state_dict().items())
        assert worst <= FLOAT32_STATE_ATOL
        assert _picks(narrow) == _picks(wide)
