"""Numerical gradient checking.

Hand-written backward passes are the classic source of silent RL bugs;
these helpers verify every analytic gradient against central finite
differences.  Used heavily by the test suite.

The 1e-6 perturbations are below single-precision resolution (float32
epsilon is 1.2e-7 *relative*), so both helpers need float64 values:
build the network under test with ``dtype=np.float64``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.network import Network


def _require_float64(what: str, dtype: np.dtype) -> None:
    if dtype != np.float64:
        raise ValueError(
            f"finite differences need a float64 {what}, got {dtype}: "
            "the perturbation is below its resolution"
        )


def numeric_gradient(
    f: Callable[[], float], value: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``value``.

    ``value`` is perturbed in place entry by entry; ``f`` must read it
    afresh on each call.  Raises ``ValueError`` unless ``value`` is
    float64.
    """
    _require_float64("value", value.dtype)
    grad = np.zeros_like(value)
    flat = value.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = f()
        flat[i] = orig - eps
        minus = f()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(
    network: Network,
    x: np.ndarray,
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    rtol: float = 1e-4,
    atol: float = 1e-6,
    max_entries: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic and numeric parameter gradients.

    ``loss_fn`` maps the network output to ``(loss, dloss/doutput)``.
    Each parameter is perturbed in a private copy of its value, which
    the parameter keeps (same bits, one ``version`` on), so a snapshot
    taken before the check is left as it was.  A random subsample of
    ``max_entries`` entries per parameter keeps the check fast on large
    layers.  Returns the worst absolute error
    and raises ``AssertionError`` when tolerances are exceeded, or
    ``ValueError`` when ``network`` is not float64.
    """
    _require_float64("network", network.dtype)
    rng = rng or np.random.default_rng(0)

    def full_loss() -> float:
        return loss_fn(network.forward(x))[0]

    out = network.forward(x)
    _, grad_out = loss_fn(out)
    network.backward(grad_out)

    worst = 0.0
    for param in network.parameters():
        # perturb a private copy: the value may be lent read-only to a
        # snapshot (Network.state_dict), which must keep its bytes
        param.value = param.value.copy()
        param.version += 1
        flat = param.value.ravel()
        analytic = param.dense_grad().ravel()
        n = flat.size
        idx = np.arange(n) if n <= max_entries else rng.choice(
            n, size=max_entries, replace=False
        )
        for i in idx:
            orig = flat[i]
            eps = 1e-6 * max(1.0, abs(orig))
            flat[i] = orig + eps
            plus = full_loss()
            flat[i] = orig - eps
            minus = full_loss()
            flat[i] = orig
            numeric = (plus - minus) / (2 * eps)
            err = abs(numeric - analytic[i])
            tol = atol + rtol * max(abs(numeric), abs(analytic[i]))
            assert err <= tol, (
                f"gradient mismatch in {param.name}[{i}]: "
                f"analytic={analytic[i]:.8g} numeric={numeric:.8g}"
            )
            worst = max(worst, err)
    return worst
