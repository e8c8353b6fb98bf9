"""Unit tests for optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Parameter
from repro.nn.network import build_dras_network
from repro.nn.optim import _BLOCK, SGD, Adam


def quadratic_step(param: Parameter) -> float:
    """Set grad of f(x) = ||x||^2 and return the loss."""
    param.grad[...] = 2 * param.value
    return float(np.sum(param.value**2))


class TestSGD:
    def test_basic_descent(self):
        p = Parameter("x", np.array([10.0]))
        opt = SGD([p], lr=0.1)
        losses = []
        for _ in range(50):
            losses.append(quadratic_step(p))
            opt.step()
        assert losses[-1] < losses[0] * 1e-3

    def test_known_update(self):
        p = Parameter("x", np.array([1.0]))
        opt = SGD([p], lr=0.5)
        p.grad += 2.0
        opt.step()
        assert p.value[0] == pytest.approx(0.0)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter("x", np.array([10.0]))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(20):
                quadratic_step(p)
                opt.step()
            return abs(p.value[0])

        assert run(0.9) < run(0.0)

    def test_validation(self):
        p = Parameter("x", np.ones(1))
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


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
            p.grad += scale
            opt.step()
            assert abs(1.0 - p.value[0]) == pytest.approx(0.01, rel=1e-4)

    def test_grad_clip_bounds_internal_moment(self):
        p = Parameter("x", np.array([0.0, 0.0]))
        opt = Adam([p], lr=0.1, grad_clip=1.0)
        p.grad += np.array([300.0, 400.0])  # norm 500 -> rescaled to norm 1
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
            Adam([p], lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, beta2=-0.1)


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
    """The blocked in-place sweep is the textbook update, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(st.sampled_from(EDGE_SHAPES), min_size=1, max_size=3),
        dtype=st.sampled_from([np.float32, np.float64]),
        # gradients have norm ~ sqrt(size): 1e-3 always clips, 1e6 never
        clip=st.sampled_from([None, 1e-3, 1e6]),
        steps=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trajectory_is_bit_identical(self, shapes, dtype, clip, steps,
                                         seed):
        rng = np.random.default_rng(seed)
        params = [Parameter(f"p{i}", rng.normal(size=shape).astype(dtype))
                  for i, shape in enumerate(shapes)]
        opt = Adam(params, lr=0.01, grad_clip=clip)
        opt.track_grad_norm = True
        values = [p.value.copy() for p in params]
        m = [np.zeros_like(x) for x in values]
        v = [np.zeros_like(x) for x in values]
        for t in range(1, steps + 1):
            # a third of the entries exactly zero: sqrt(0) + eps is a path
            grads = [(rng.normal(size=x.shape) * (rng.random(x.shape) > 0.3)
                      ).astype(dtype) for x in values]
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
            norm = textbook_adam(values, grads, m, v, t, lr=0.01, clip=clip)
            assert opt.last_grad_norm == norm
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
        self.step_raises(p, Adam([p]))

    def test_strided_value(self):
        p = Parameter("w", np.ones(10)[::2])
        self.step_raises(p, Adam([p]))

    @pytest.mark.parametrize("which", ["grad", "m", "v"])
    def test_strided_gradient_or_moment(self, which):
        p = Parameter("w", np.ones((4, 3)))
        opt = Adam([p])
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
