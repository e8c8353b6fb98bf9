"""Unit tests for neural-network layers, including gradient checks."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradients
from repro.nn.layers import Conv1x2, Dense, LeakyReLU, Parameter
from repro.nn.network import Network


class TestParameter:
    def test_grad_initialized_to_zero(self):
        p = Parameter("w", np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)

    def test_size(self):
        assert Parameter("w", np.ones((4, 5))).size == 20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_dtype_it_is_given(self, dtype):
        """Precision is the owning Network's decision, not Parameter's."""
        p = Parameter("w", np.ones(3, dtype=dtype))
        assert p.value.dtype == p.grad.dtype == dtype


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


class TestLeakyReLU:
    def test_forward(self):
        layer = LeakyReLU(alpha=0.1)
        x = np.array([[-2.0, 0.0, 3.0]])
        y = layer.forward(x)
        assert y == pytest.approx(np.array([[-0.2, 0.0, 3.0]]))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LeakyReLU(alpha=-0.1)

    def test_backward(self):
        layer = LeakyReLU(alpha=0.1)
        x = np.array([[-1.0, 2.0]])
        layer.forward(x)
        grad = layer.backward(np.array([[1.0, 1.0]]))
        assert grad == pytest.approx(np.array([[0.1, 1.0]]))

    def test_no_parameters(self):
        assert LeakyReLU().parameters() == []

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
