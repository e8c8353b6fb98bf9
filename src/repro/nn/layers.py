"""Layers with explicit forward/backward passes.

Each layer caches what its backward pass needs during ``forward`` and
exposes its trainable tensors as :class:`Parameter` objects, which an
optimizer updates in place.  Shapes follow the DRAS conventions:
network input is ``[B, rows, 2]``; after the 1x2 convolution the
representation is ``[B, rows]``; dense layers map ``[B, in] -> [B, out]``.
"""

from __future__ import annotations

import numpy as np

#: Elements per ``rng.normal`` call of :class:`Dense`'s weight draw: each
#: block is rounded into the weight as it is stored (512 KiB of draws live).
_DRAW_BLOCK = 65536


class Parameter:
    """A trainable tensor and the gradient of the most recent backward.

    Holds ``value`` in the dtype it is given; the owning
    :class:`~repro.nn.network.Network` rounds one that disagrees with
    its own.  ``grad`` is ``None`` until a ``backward`` writes it (a
    network that only infers never owns one), and is *written*, never
    added to: there is nothing to reset between updates, and summing
    over several backwards is the caller's job.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = np.asarray(value)
        self.grad: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of scalar elements in the tensor."""
        return self.value.size

    def grad_buffer(self) -> np.ndarray:
        """``grad`` for a backward to write whole; uninitialised when new."""
        if self.grad is None:
            self.grad = np.empty(self.value.shape, self.value.dtype)
        return self.grad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base layer: ``forward`` caches, ``backward`` returns input grads."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output, caching what backward needs."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write parameter grads; return grads w.r.t. the input."""
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable tensors of this layer (empty for activations)."""
        return []


class Conv1x2(Layer):
    """The paper's convolution layer: one 1x2 filter applied per row.

    For input ``x`` of shape ``[B, rows, 2]`` the output is
    ``y[b, r] = w0 * x[b, r, 0] + w1 * x[b, r, 1] + bias`` — one neuron
    per row, extracting the job/node status information of that row
    (§III-B).  Contributes 3 trainable parameters.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        # seeded fallback: unseeded default_rng() would make two
        # identically-configured networks initialize differently
        rng = rng or np.random.default_rng(0)
        # He-style init for a fan-in of 2
        w = rng.normal(0.0, np.sqrt(2.0 / 2.0), size=2)
        self.weight = Parameter("conv.weight", w)
        self.bias = Parameter("conv.bias", np.zeros(1))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the 1x2 filter: ``[B, rows, 2] -> [B, rows]``."""
        if x.ndim != 3 or x.shape[-1] != 2:
            raise ValueError(f"Conv1x2 expects [B, rows, 2], got {x.shape}")
        self._x = x
        y = x @ self.weight.value
        y += self.bias.value[0]
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write filter/bias grads; returns ``[B, rows, 2]`` input grads."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        # grad_out: [B, rows]
        self.weight.grad_buffer()[...] = np.einsum("br,brk->k", grad_out, x)
        self.bias.grad_buffer()[...] = grad_out.sum()
        return grad_out[..., None] * self.weight.value

    def parameters(self) -> list[Parameter]:
        """The 1x2 filter weight and its bias (3 scalars total)."""
        return [self.weight, self.bias]


class Dense(Layer):
    """Fully-connected layer ``[B, in] -> [B, out]``.

    ``bias=False`` for the two hidden layers reproduces the paper's
    Table III parameter counts (DESIGN.md §4).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "dense",
        dtype: np.dtype | type | None = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)  # He init for leaky-ReLU nets
        # a draw fills C-ordered output element by element, so row blocks in
        # order are the single (in_features, out_features) draw, bit for bit
        weight = np.empty((in_features, out_features), dtype)
        rows = max(1, _DRAW_BLOCK // out_features)
        for lo in range(0, in_features, rows):
            block = weight[lo:lo + rows]
            block[...] = rng.normal(0.0, scale, size=block.shape)
        self.weight = Parameter(f"{name}.weight", weight)
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features, dtype)) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One matmul for the whole batch: ``[B, in] -> [B, out]``."""
        if x.ndim != 2 or x.shape[1] != self.weight.value.shape[0]:
            raise ValueError(
                f"Dense expects [B, {self.weight.value.shape[0]}], got {x.shape}"
            )
        self._x = x
        y = x @ self.weight.value
        if self.bias is not None:
            y += self.bias.value
        return y

    def forward_shared(self, head: np.ndarray, shared: np.ndarray) -> np.ndarray:
        """:meth:`forward` for inputs whose trailing columns are common.

        Every sample's input is ``concat(head[b], shared)`` — ``head``
        is ``[B, k]``, ``shared`` is ``[in - k]`` — so the product
        splits into ``head @ W[:k] + shared @ W[k:]``: the shared block
        is multiplied once (one GEMV) instead of once per sample, and
        its ``[out]`` result broadcasts over ``B``.  Row slices of the
        C-ordered weight are contiguous views, so nothing is copied.
        Same function as :meth:`forward` on the concatenated input up
        to float reassociation.  Inference only: the backward cache is
        cleared, so a following :meth:`backward` raises rather than
        differentiating a stale minibatch.
        """
        weight = self.weight.value
        k = head.shape[-1]
        if head.ndim != 2 or shared.ndim != 1 \
                or k + shared.shape[0] != weight.shape[0]:
            raise ValueError(
                f"Dense expects [B, k] + [{weight.shape[0]} - k], "
                f"got {head.shape} + {shared.shape}"
            )
        self._x = None
        y = head @ weight[:k]
        y += shared @ weight[k:]
        if self.bias is not None:
            y += self.bias.value
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write batch-summed grads; returns ``[B, in]`` input grads.

        The weight-gradient matmul lands in ``weight.grad`` itself, so
        a backward makes one pass over it and needs no temporary of
        its size; the first backward is what allocates it.
        """
        if self._x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._x.T, grad_out, out=self.weight.grad_buffer())
        if self.bias is not None:
            np.sum(grad_out, axis=0, out=self.bias.grad_buffer())
        return grad_out @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        """The weight matrix, plus the bias vector when present."""
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class LeakyReLU(Layer):
    """Leaky rectifier activation (§III-B).

    Forward and backward are expressed as one elementwise multiply by a
    cached slope factor (1 where ``x > 0``, ``alpha`` elsewhere) — the
    same values as the branchy ``where(x > 0, x, alpha*x)`` form
    (multiplying by 1.0 is exact in IEEE 754), in fewer passes over the
    batch.
    """

    def __init__(self, alpha: float = 0.01) -> None:
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self._factor: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``max(x, alpha*x)`` over any batched shape."""
        # typed scalars: ``np.where(x > 0, 1.0, alpha)`` is double
        # precision whatever ``x`` is, and would promote every layer
        # after this one
        scalar = x.dtype.type
        self._factor = np.where(x > 0, scalar(1.0), scalar(self.alpha))
        return x * self._factor

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Scale gradients by the cached slope factor."""
        if self._factor is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._factor
