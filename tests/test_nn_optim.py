"""Unit tests for optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Parameter
from repro.nn.network import build_dras_network
from repro.nn.optim import _BLOCK, Adam


def lend(params: list[Parameter]) -> list[np.ndarray]:
    """A snapshot of ``params`` as ``Network.state_dict`` takes one: the
    live values, made read-only."""
    for p in params:
        p.value.flags.writeable = False
    return [p.value for p in params]


def assert_stepped_past(params, snapshot, kept, versions):
    """After a step: the snapshot holds its bytes, each value is fresh."""
    for p, lent, before, version in zip(params, snapshot, kept, versions):
        assert np.array_equal(lent, before) and not lent.flags.writeable
        assert p.value is not lent and p.value.base is None
        assert p.value.flags.writeable and p.value.flags.c_contiguous
        assert p.version > version


def quadratic_step(param: Parameter) -> float:
    """Set grad of f(x) = ||x||^2 and return the loss."""
    param.grad_buffer()[...] = 2 * param.value
    return float(np.sum(param.value**2))


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter("x", np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            quadratic_step(p)
            opt.step()
        assert np.all(np.abs(p.value) < 1e-3)

    def test_first_step_magnitude_is_lr(self):
        # with bias correction, |first step| ~= lr regardless of grad scale
        for scale in (1e-3, 1.0, 1e3):
            p = Parameter("x", np.array([1.0]))
            opt = Adam([p], lr=0.01)
            p.grad_buffer()[...] = scale
            opt.step()
            assert abs(1.0 - p.value[0]) == pytest.approx(0.01, rel=1e-4)

    def test_grad_clip_bounds_internal_moment(self):
        p = Parameter("x", np.array([0.0, 0.0]))
        opt = Adam([p], lr=0.1, grad_clip=1.0)
        # norm 500 -> rescaled to norm 1
        p.grad_buffer()[...] = [300.0, 400.0]
        opt.step()
        # the first moment reflects the clipped gradient: (1-beta1)*g_clipped
        m_norm = float(np.linalg.norm(opt._m[0]))
        assert m_norm == pytest.approx(0.1 * 1.0, rel=1e-6)
        # and the clipped direction is preserved inside m
        assert opt._m[0][1] / opt._m[0][0] == pytest.approx(400.0 / 300.0, rel=1e-6)

    def test_validation(self):
        p = Parameter("x", np.ones(1))
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)
        with pytest.raises(ValueError, match="no parameters"):
            Adam([], lr=0.1)


def textbook_adam(values, grads, m, v, t, lr=0.001, b1=0.9, b2=0.999,
                  eps=1e-8, clip=None):
    """Adam as Kingma & Ba print it: fresh temporaries, nothing in place.

    Updates the lists ``values``, ``m``, ``v`` and returns the global
    pre-clip gradient norm.  Scalars are combined in the order
    ``Adam._step`` documents, so equality is exact, not approximate.
    """
    sq_norm_sum = 0.0
    for i, g in enumerate(grads):
        norm = float(np.linalg.norm(g))
        sq_norm_sum += norm * norm
        if clip is not None and norm > clip:
            g = g * (clip / norm)
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * (g * g)
        m_hat = m[i] / (1.0 - b1**t)
        v_hat = v[i] / (1.0 - b2**t)
        values[i] = values[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return float(np.sqrt(sq_norm_sum))


#: sizes straddling the edges of the blocked sweep; the last is 2-D
#: with rows that do not divide the block
EDGE_SHAPES = [(1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,),
               (2 * _BLOCK + 7,), (7, 9973)]


class TestAdamAgainstTextbook:
    """The blocked sweep is the textbook update, bit for bit, whether it
    writes in place or, after a snapshot, into a fresh value."""

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(st.sampled_from(EDGE_SHAPES), min_size=1, max_size=3),
        dtype=st.sampled_from([np.float32, np.float64]),
        # gradients have norm ~ sqrt(size): 1e-3 always clips, 1e6 never
        clip=st.sampled_from([None, 1e-3, 1e6]),
        steps=st.integers(3, 5),
        # the step a snapshot is taken before (1: before any moment exists)
        lent_at=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trajectory_is_bit_identical(self, shapes, dtype, clip, steps,
                                         lent_at, seed):
        rng = np.random.default_rng(seed)
        params = [Parameter(f"p{i}", rng.normal(size=shape).astype(dtype))
                  for i, shape in enumerate(shapes)]
        opt = Adam(params, lr=0.01, grad_clip=clip)
        values = [p.value.copy() for p in params]
        m = [np.zeros_like(x) for x in values]
        v = [np.zeros_like(x) for x in values]
        for t in range(1, steps + 1):
            # a third of the entries exactly zero: sqrt(0) + eps is a path
            grads = [(rng.normal(size=x.shape) * (rng.random(x.shape) > 0.3)
                      ).astype(dtype) for x in values]
            for p, g in zip(params, grads):
                p.grad_buffer()[...] = g
            if t == lent_at:
                snapshot = lend(params)
                kept = [a.copy() for a in snapshot]
                versions = [p.version for p in params]
            opt.step()
            norm = textbook_adam(values, grads, m, v, t, lr=0.01, clip=clip)
            assert opt.last_grad_norm == norm
            if t == lent_at:
                assert_stepped_past(params, snapshot, kept, versions)
                for p, x, om, ov, tm, tv in zip(params, values, opt._m,
                                                opt._v, m, v):
                    assert np.array_equal(p.value, x)
                    assert np.array_equal(om, tm) and np.array_equal(ov, tv)
            # the draws do clip at 1e-3 (unless all zero) and never at 1e6
            assert norm == 0.0 or 1e-3 < norm < 1e6
        for p, om, ov, x, tm, tv in zip(params, opt._m, opt._v, values, m, v):
            assert p.value.dtype == om.dtype == ov.dtype == dtype
            assert np.array_equal(p.value, x)
            assert np.array_equal(om, tm)
            assert np.array_equal(ov, tv)

    def test_scratch_is_three_blocks(self):
        opt = Adam([Parameter("w", np.ones((300, 400), np.float32))])
        assert [a.shape for a in opt._scratch] == [(_BLOCK,)] * 3
        assert {a.dtype for a in opt._scratch} == {np.dtype(np.float32)}


#: weights whose gradient is a factor pair: rows that do not divide the
#: block (9,363 = 2 x 4,681 + 1: a lone last row), rows of which two do
#: not fit in a block, and a row wider than the block
PAIR_SHAPES = [(6, 3), (9363, 7), (3, _BLOCK // 2 + 9), (2, _BLOCK + 5)]


class TestFactoredGradient:
    """A pair ``(x, d)`` steps as its product ``x.T @ d`` would."""

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(PAIR_SHAPES),
        batch=st.sampled_from([1, 2, 9]),
        dtype=st.sampled_from([np.float32, np.float64]),
        steps=st.integers(2, 4),
        lent_at=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trajectory_is_the_products_bit_for_bit(self, shape, batch, dtype,
                                                    steps, lent_at, seed):
        rng = np.random.default_rng(seed)
        start = rng.normal(size=shape).astype(dtype)
        pair, dense = Parameter("w", start.copy()), Parameter("w", start.copy())
        opt, ref = Adam([pair], lr=0.01), Adam([dense], lr=0.01)
        for t in range(1, steps + 1):
            x = rng.normal(size=(batch, shape[0])).astype(dtype)
            # some samples contribute nothing, as a masked loss gives
            d = (rng.normal(size=(batch, shape[1]))
                 * (rng.random((batch, 1)) > 0.3)).astype(dtype)
            pair.grad, dense.grad = (x, d), x.T @ d
            assert np.array_equal(pair.dense_grad(), dense.grad)
            kept = x.copy(), d.copy()
            if t == lent_at:
                snapshot = lend([pair])
                lent, versions = [snapshot[0].copy()], [pair.version]
            opt.step()
            ref.step()
            # the factors alias a layer's input and a loss gradient
            assert np.array_equal(x, kept[0]) and np.array_equal(d, kept[1])
            if t == lent_at:
                assert_stepped_past([pair], snapshot, lent, versions)
            assert np.array_equal(pair.value, dense.value)
        assert np.array_equal(opt._m[0], ref._m[0])
        assert np.array_equal(opt._v[0], ref._v[0])
        assert pair.value.dtype == opt._m[0].dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 9])
    def test_clip_norm_is_the_exact_norm(self, dtype, batch):
        """The Gram form's norm is the float64 Frobenius norm of the
        product, within 1e-9; a float32 norm is off by ~1e-7."""
        rng = np.random.default_rng(batch)
        p = Parameter("w", rng.normal(size=(700, 300)).astype(dtype))
        opt = Adam([p], lr=0.01, grad_clip=1.0)
        x, d = (rng.normal(size=(batch, n)).astype(dtype) for n in p.value.shape)
        p.grad = (x, d)
        opt.step()
        exact = np.linalg.norm(x.astype(np.float64).T @ d.astype(np.float64))
        assert exact > 10.0    # the clip fired
        assert abs(opt.last_grad_norm - exact) <= 1e-9 * exact
        # the first moment holds (1 - beta1) times the clipped gradient
        assert np.linalg.norm(opt._m[0].astype(np.float64)) == pytest.approx(
            0.1, rel=1e-5)

    def test_cancelling_factors_have_a_tiny_norm_not_nan(self):
        """Samples whose gradients cancel: the Gram sum rounds to -5e-13
        here, and the norm is clamped to 0, not the square root of it."""
        rng = np.random.default_rng(0)
        row, d = rng.normal(size=(1, 50)), rng.normal(size=(1, 40))
        p = Parameter("w", np.ones((50, 40)))
        opt = Adam([p], lr=0.01, grad_clip=1.0)
        p.grad = (np.vstack([row, row, row]), np.vstack([d, -d / 3, -2 * d / 3]))
        assert np.abs(p.dense_grad()).max() < 1e-15
        opt.step()
        assert opt.last_grad_norm == 0.0
        assert np.isfinite(p.value).all()


class TestFlatViewGuard:
    """A flat *copy* would swallow the update; the sweep refuses to make one."""

    def step_raises(self, p, opt):
        before = p.value.copy()
        with pytest.raises(ValueError, match="contiguous"):
            opt.step()
        assert np.array_equal(p.value, before)

    def test_transposed_value(self):
        p = Parameter("w", np.ones((3, 4)).T)
        assert not p.value.flags.c_contiguous
        p.grad_buffer().fill(1.0)
        self.step_raises(p, Adam([p]))

    def test_strided_value(self):
        p = Parameter("w", np.ones(10)[::2])
        p.grad_buffer().fill(1.0)
        self.step_raises(p, Adam([p]))

    @pytest.mark.parametrize("which", ["grad", "m", "v"])
    def test_strided_gradient_or_moment(self, which):
        p = Parameter("w", np.ones((4, 3)))
        opt = Adam([p])
        p.grad_buffer().fill(1.0)
        opt.step()  # the moments exist from the first step
        p.grad_buffer().fill(1.0)  # a sanitized step drops what it consumed
        strided = np.ones((3, 4)).T
        if which == "grad":
            p.grad = strided
        else:
            getattr(opt, f"_{which}")[0] = strided
        self.step_raises(p, opt)

    def test_load_state_dict_lays_values_out_contiguous(self):
        net = build_dras_network(6, 5, 4, 3)
        opt = Adam(net.parameters())
        state = net.state_dict()
        key = "1.fc1.weight"
        state[key] = np.asfortranarray(state[key] + 1.0)
        assert not state[key].flags.c_contiguous
        net.load_state_dict(state)
        assert all(p.value.flags.c_contiguous for p in net.parameters())
        net.forward(np.ones((2, 6, 2)))
        net.backward(np.ones((2, 3)))
        before = [p.value.copy() for p in net.parameters()]
        opt.step()
        assert all(np.any(p.value != b)
                   for p, b in zip(net.parameters(), before))


class TestAdamStateDict:
    """The seam ``core.persistence`` saves and restores through."""

    def stepped(self, dtype=np.float32, steps=2):
        rng = np.random.default_rng(5)
        params = [Parameter("a", rng.normal(size=(4, 3)).astype(dtype)),
                  Parameter("b", rng.normal(size=7).astype(dtype))]
        opt = Adam(params, lr=0.01)
        for _ in range(steps):
            for p in params:
                p.grad_buffer()[...] = rng.normal(size=p.value.shape)
            opt.step()
        return params, opt

    def test_never_stepped_reports_zeros_and_keeps_none(self):
        params, opt = self.stepped(steps=0)
        state = opt.state_dict()
        assert state["t"] == 0 and opt._m is None and opt._v is None
        for p, m, v in zip(params, state["m"], state["v"]):
            assert m.shape == v.shape == p.value.shape
            assert m.dtype == v.dtype == np.float32
            assert not m.any() and not v.any() and m is not v
        opt.load_state_dict(state)
        assert opt._m is None and opt._v is None

    def test_moments_exist_from_the_first_step(self):
        params, opt = self.stepped(steps=1)
        for p, m, v in zip(params, opt._m, opt._v):
            assert m.shape == v.shape == p.value.shape
            assert m.dtype == v.dtype == p.value.dtype
            assert m.flags.c_contiguous and v.flags.c_contiguous
        state = opt.state_dict()
        assert state["t"] == 1
        assert all(a is b for a, b in zip(state["m"] + state["v"],
                                          opt._m + opt._v))

    def test_round_trip_continues_bit_for_bit_and_shares_nothing(self):
        params, opt = self.stepped()
        twins = [Parameter(p.name, p.value.copy()) for p in params]
        twin = Adam(twins, lr=0.01)
        twin.load_state_dict(opt.state_dict())
        assert not any(np.shares_memory(a, b) for a, b in
                       zip(opt._m + opt._v, twin._m + twin._v))
        for p, q in zip(params, twins):
            p.grad_buffer()[...] = q.grad_buffer()[...] = 0.25
        opt.step()
        twin.step()
        assert twin.state_dict()["t"] == 3
        for a, b in zip([p.value for p in params] + opt._m + opt._v,
                        [q.value for q in twins] + twin._m + twin._v):
            assert np.array_equal(a, b)

    def test_load_casts_lays_out_and_reads_lazily(self):
        wide_params, wide = self.stepped(np.float64)
        params, opt = self.stepped(steps=0)
        state = wide.state_dict()
        opt.load_state_dict({
            "t": np.int64(state["t"]),
            "m": (np.asfortranarray(m) for m in state["m"]),
            "v": iter(state["v"]),
        })
        for new, old in zip(opt._m + opt._v, state["m"] + state["v"]):
            assert new.dtype == np.float32 and new.flags.c_contiguous
            assert np.array_equal(new, old.astype(np.float32))

    def test_a_short_moment_list_is_refused(self):
        _, opt = self.stepped()
        state = opt.state_dict()
        with pytest.raises(ValueError):
            opt.load_state_dict({**state, "v": state["v"][:1]})
