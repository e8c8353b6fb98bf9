"""Unit tests for neural-network layers, including gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import _ROW_BLOCK, Conv1x2, Dense, LeakyReLU, Parameter
from repro.nn.network import Network
from tests.gradcheck import check_gradients


class TestParameter:
    def test_grad_is_none_until_something_writes_it(self):
        p = Parameter("w", np.ones((2, 3), dtype=np.float32).T)
        assert p.grad is None
        buf = p.grad_buffer()
        assert buf is p.grad is p.grad_buffer()
        assert buf.shape == (3, 2) and buf.dtype == np.float32
        assert buf.flags.c_contiguous  # whatever the value's layout

    def test_size(self):
        assert Parameter("w", np.ones((4, 5))).size == 20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_dtype_it_is_given(self, dtype):
        """Precision is the owning Network's decision, not Parameter's."""
        p = Parameter("w", np.ones(3, dtype=dtype))
        assert p.value.dtype == p.grad_buffer().dtype == dtype


class TestConv1x2:
    def test_forward_known_values(self, rng):
        layer = Conv1x2(rng=rng)
        layer.weight.value[:] = [2.0, 3.0]
        layer.bias.value[:] = [1.0]
        x = np.array([[[1.0, 1.0], [0.5, 2.0]]])  # [1, 2, 2]
        y = layer.forward(x)
        assert y.shape == (1, 2)
        assert y[0, 0] == pytest.approx(2 * 1 + 3 * 1 + 1)
        assert y[0, 1] == pytest.approx(2 * 0.5 + 3 * 2 + 1)

    def test_rejects_bad_shape(self, rng):
        layer = Conv1x2(rng=rng)
        with pytest.raises(ValueError, match="rows, 2"):
            layer.forward(np.ones((3, 2)))
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 3, 3)))

    def test_parameter_count(self, rng):
        layer = Conv1x2(rng=rng)
        assert sum(p.size for p in layer.parameters()) == 3

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Conv1x2(rng=rng).backward(np.ones((1, 2)))

    def test_gradcheck(self, rng):
        net = Network([Conv1x2(rng=rng)], dtype=np.float64)
        x = rng.normal(size=(3, 5, 2))

        def loss(out):
            return float(np.sum(out**2)), 2 * out

        check_gradients(net, x, loss)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng=rng)
        y = layer.forward(rng.normal(size=(7, 4)))
        assert y.shape == (7, 3)

    def test_no_bias_variant(self, rng):
        layer = Dense(4, 3, bias=False, rng=rng)
        assert len(layer.parameters()) == 1
        assert sum(p.size for p in layer.parameters()) == 12

    def test_bias_variant(self, rng):
        layer = Dense(4, 3, bias=True, rng=rng)
        assert sum(p.size for p in layer.parameters()) == 15

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng=rng)
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 5)))

    def test_known_values(self, rng):
        layer = Dense(2, 1, rng=rng)
        layer.weight.value[:] = [[2.0], [3.0]]
        layer.bias.value[:] = [10.0]
        y = layer.forward(np.array([[1.0, 1.0]]))
        assert y[0, 0] == pytest.approx(15.0)

    def test_gradcheck_with_bias(self, rng):
        net = Network([Dense(4, 3, rng=rng)], dtype=np.float64)
        x = rng.normal(size=(5, 4))

        def loss(out):
            return float(np.sum(out**2)), 2 * out

        check_gradients(net, x, loss)

    def test_gradcheck_without_bias(self, rng):
        net = Network([Dense(4, 3, bias=False, rng=rng)], dtype=np.float64)
        x = rng.normal(size=(5, 4))

        def loss(out):
            return float(np.sum(out**2)), 2 * out

        check_gradients(net, x, loss)


def single_draw(in_features, out_features, dtype, seed):
    """The weight as one ``rng.normal`` call rounded whole, and its generator."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(2.0 / in_features)
    wide = rng.normal(0.0, scale, size=(in_features, out_features))
    return wide.astype(dtype), rng


def assert_blocked_draw_is_the_single_draw(in_features, out_features, dtype,
                                           seed):
    rng = np.random.default_rng(seed)
    layer = Dense(in_features, out_features, rng=rng, dtype=dtype)
    expected, after = single_draw(in_features, out_features, dtype, seed)
    weight = layer.weight.value
    assert weight.dtype == expected.dtype and weight.flags.c_contiguous
    assert layer.bias.value.dtype == weight.dtype
    assert np.array_equal(weight, expected)
    assert rng.bit_generator.state == after.bit_generator.state
    assert rng.random() == after.random()


def draw_edge_shapes():
    """``(in_features, out_features)`` straddling the draw's row blocks.

    ``rows = _ROW_BLOCK // out_features`` per call: one row, one row
    either side of a block, two blocks and a remainder, and rows as long
    as a block or longer (one row per call).
    """
    for out in (1, 7, 256, 4000):
        rows = _ROW_BLOCK // out
        for in_features in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            if in_features * out <= 4 * _ROW_BLOCK:
                yield in_features, out
    yield from [(1, _ROW_BLOCK + 1), (3, _ROW_BLOCK + 5), (2, _ROW_BLOCK)]


class TestDenseDraw:
    """Row blocks rounded as they are stored == one draw rounded whole."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(sorted(set(draw_edge_shapes()))),
           dtype=st.sampled_from([np.float32, None]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_draw_equals_single_draw(self, shape, dtype, seed):
        assert_blocked_draw_is_the_single_draw(*shape, dtype, seed)

    def test_theta_fc1(self):
        assert_blocked_draw_is_the_single_draw(4460, 4000, np.float32, 0)

    def test_default_dtype_is_numpys(self, rng):
        assert Dense(3, 2, rng=rng).weight.value.dtype == np.ones(1).dtype


class TestLeakyReLU:
    def test_forward(self):
        layer = LeakyReLU(alpha=0.1)
        x = np.array([[-2.0, 0.0, 3.0]])
        y = layer.forward(x)
        assert y == pytest.approx(np.array([[-0.2, 0.0, 3.0]]))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LeakyReLU(alpha=-0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_rejects_alpha_outside_zero_one(self, alpha):
        """``max(x, 0*x)`` is NaN at ``+inf``; above 1 it is not leaky."""
        with pytest.raises(ValueError, match="alpha"):
            LeakyReLU(alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.01, 0.2, 1.0])
    @pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32),
                                            (np.float64, np.uint64)])
    def test_max_form_is_the_slope_form_bit_for_bit(self, alpha, dtype,
                                                    bits):
        """``max(x, alpha*x)`` against ``x * where(x > 0, 1, alpha)``."""
        fi = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                   fi.smallest_subnormal, -fi.smallest_subnormal,
                   fi.tiny, -fi.tiny, fi.max, -fi.max]
        rng = np.random.default_rng(3)
        x = np.concatenate([np.array(special, dtype),
                            rng.normal(size=36).astype(dtype)]).reshape(3, 16)
        slope = np.where(x > 0, dtype(1.0), dtype(alpha))
        layer = LeakyReLU(alpha)
        assert np.array_equal(layer.forward(x).view(bits),
                              (x * slope).view(bits))
        g = rng.normal(size=x.shape).astype(dtype)
        assert np.array_equal(layer.backward(g).view(bits),
                              (g * slope).view(bits))

    def test_backward(self):
        layer = LeakyReLU(alpha=0.1)
        x = np.array([[-1.0, 2.0]])
        layer.forward(x)
        grad = layer.backward(np.array([[1.0, 1.0]]))
        assert grad == pytest.approx(np.array([[0.1, 1.0]]))

    def test_no_parameters(self):
        assert LeakyReLU(0.01).parameters() == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slope_factor_follows_the_input_dtype(self, dtype):
        """``np.where(x > 0, 1.0, alpha)`` would be float64 for any x."""
        layer = LeakyReLU(alpha=0.1)
        x = np.array([[-1.0, 2.0]], dtype=dtype)
        assert layer.forward(x).dtype == dtype
        assert layer.backward(np.ones_like(x)).dtype == dtype


class TestStackedGradcheck:
    def test_full_dras_stack(self, rng):
        """Gradient-check the exact DRAS layer composition (small dims)."""
        from repro.nn.network import build_dras_network

        net = build_dras_network(rows=6, hidden1=5, hidden2=4, outputs=3,
                                 rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 6, 2))

        def loss(out):
            return float(np.sum(out**2)), 2 * out

        check_gradients(net, x, loss)
