"""Per-layer gradient checks for every layer type in ``repro.nn.layers``.

``check_gradients`` is exercised elsewhere on full DRAS stacks; these
tests isolate each layer (Conv1x2, Dense with and without bias,
LeakyReLU) so a broken backward pass is attributed to the exact layer,
and additionally verify *input* gradients via ``numeric_gradient``,
which the parameter-only checker does not cover.  Finite differences
need float64, so every network here is built with ``dtype=np.float64``
and both helpers must refuse anything narrower.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Conv1x2, Dense, LeakyReLU
from repro.nn.network import Network, build_dras_network
from tests.gradcheck import check_gradients, numeric_gradient


def quadratic_loss(y: np.ndarray) -> tuple[float, np.ndarray]:
    """``0.5 * sum(y^2)`` and its gradient — a generic smooth probe."""
    return 0.5 * float(np.sum(y * y)), y


def away_from_kink(x: np.ndarray, margin: float = 0.05) -> np.ndarray:
    """Push values away from 0 so LeakyReLU's kink can't bias the check."""
    return np.where(np.abs(x) < margin, x + 2 * margin, x)


class TestParameterGradients:
    def test_conv1x2_alone(self):
        rng = np.random.default_rng(7)
        net = Network([Conv1x2(rng=rng)], dtype=np.float64)
        x = rng.normal(size=(4, 6, 2))
        worst = check_gradients(net, x, quadratic_loss, rng=rng)
        assert worst < 1e-3

    def test_dense_no_bias(self):
        rng = np.random.default_rng(8)
        net = Network([Dense(5, 3, bias=False, rng=rng, name="fc")],
                      dtype=np.float64)
        x = rng.normal(size=(4, 5))
        worst = check_gradients(net, x, quadratic_loss, rng=rng)
        assert worst < 1e-3

    def test_dense_with_bias(self):
        """The output layer shape: bias=True (Table III's `+ out` term)."""
        rng = np.random.default_rng(9)
        net = Network([Dense(4, 2, bias=True, rng=rng, name="out")],
                      dtype=np.float64)
        x = rng.normal(size=(3, 4))
        worst = check_gradients(net, x, quadratic_loss, rng=rng)
        assert worst < 1e-3

    def test_leaky_relu_has_no_parameters(self):
        net = Network([LeakyReLU(0.01)])
        assert net.parameters() == []

    def test_full_dras_stack(self):
        rng = np.random.default_rng(10)
        net = build_dras_network(rows=6, hidden1=5, hidden2=4, outputs=2,
                                 rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 6, 2))
        worst = check_gradients(net, x, quadratic_loss, rng=rng)
        assert worst < 1e-3


class TestAfterASnapshot:
    def test_snapshot_keeps_its_bytes(self):
        """The check perturbs private copies, never a lent (read-only) value."""
        rng = np.random.default_rng(12)
        net = build_dras_network(rows=6, hidden1=5, hidden2=4, outputs=2,
                                 rng=rng, dtype=np.float64)
        snapshot = net.state_dict()
        kept = {k: v.copy() for k, v in snapshot.items()}
        versions = [p.version for p in net.parameters()]
        x = rng.normal(size=(2, 6, 2))
        assert check_gradients(net, x, quadratic_loss, rng=rng) < 1e-3
        for key, lent in snapshot.items():
            assert not lent.flags.writeable
            assert np.array_equal(lent, kept[key])
        after = net.state_dict()
        for (key, value), p, version in zip(after.items(), net.parameters(),
                                            versions):
            assert value is not snapshot[key]
            assert np.array_equal(value, kept[key])
            assert p.version == version + 1


class TestInputGradients:
    @pytest.mark.parametrize("alpha", [0.01, 0.2])
    def test_leaky_relu_input_gradient(self, alpha):
        rng = np.random.default_rng(11)
        net = Network([LeakyReLU(alpha)], dtype=np.float64)
        x = away_from_kink(rng.normal(size=(3, 5)))

        def loss() -> float:
            return quadratic_loss(net.forward(x))[0]

        y = net.forward(x)
        analytic = net.backward(quadratic_loss(y)[1])
        numeric = numeric_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_conv1x2_input_gradient(self):
        rng = np.random.default_rng(12)
        net = Network([Conv1x2(rng=rng)], dtype=np.float64)
        x = rng.normal(size=(2, 4, 2))

        def loss() -> float:
            return quadratic_loss(net.forward(x))[0]

        y = net.forward(x)
        analytic = net.backward(quadratic_loss(y)[1])
        numeric = numeric_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_dense_input_gradient(self):
        rng = np.random.default_rng(13)
        net = Network([Dense(5, 3, bias=True, rng=rng, name="fc")],
                      dtype=np.float64)
        x = rng.normal(size=(2, 5))

        def loss() -> float:
            return quadratic_loss(net.forward(x))[0]

        y = net.forward(x)
        analytic = net.backward(quadratic_loss(y)[1])
        numeric = numeric_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


class TestRefusesSinglePrecision:
    """A 1e-6 perturbation is below float32 resolution: fail loudly."""

    def test_check_gradients_needs_a_float64_network(self):
        net = build_dras_network(rows=6, hidden1=5, hidden2=4, outputs=2)
        assert net.dtype == np.float32
        with pytest.raises(ValueError, match="float64 network"):
            check_gradients(net, np.zeros((2, 6, 2)), quadratic_loss)

    def test_numeric_gradient_needs_a_float64_value(self):
        x = np.ones(3, dtype=np.float32)
        with pytest.raises(ValueError, match="float64 value"):
            numeric_gradient(lambda: float(x.sum()), x)
