"""Sequential network container and the DRAS network builder."""

from __future__ import annotations

import numpy as np

from repro.check import sanitize as _san
from repro.nn.layers import Conv1x2, Dense, Layer, LeakyReLU, Parameter
from repro.obs import trace as _trace


class Network:
    """A simple sequential network.

    ``dtype`` is the precision of the whole network, decided here and
    nowhere else: every parameter of ``layers`` that disagrees is
    rounded to it once (a layer draws in NumPy's default precision and
    rounds as it stores, so a network starts at most one rounding away
    from its wider twin built from the same generator), ``forward`` /
    ``backward`` cast their argument to it, and everything sized from a
    parameter — the gradient a backward allocates, the moments an
    optimizer's first step allocates, state dicts — takes the value's
    dtype.  The default is single precision, the paper's (TensorFlow's);
    a wider network is for oracles such as the tests' finite-difference
    gradient check (``tests/gradcheck.py``).

    With the sanitizer active (``REPRO_SANITIZE=1``) every tensor
    flowing through ``forward``/``backward`` is checked for NaN/Inf and
    for having the network's dtype, so numerical corruption and silent
    promotion are caught at the layer that produced them.  With
    a global tracer active (``REPRO_TRACE=path``) each forward/backward
    pass is recorded as a ``nn.forward`` / ``nn.backward`` span; neither
    hook changes any computed value.
    """

    def __init__(self, layers: list[Layer],
                 dtype: np.dtype | type = np.float32) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = layers
        self.dtype = np.dtype(dtype)
        for p in self.parameters():
            if p.value.dtype != self.dtype:
                p.value = p.value.astype(self.dtype)
                p.version += 1

    def forward(self, x: np.ndarray, shared=None) -> np.ndarray:
        """Run ``x`` through every layer; returns the final activation.

        With ``shared`` — the ``N`` input rows common to the whole
        batch, by group, as a :class:`repro.core.state.NodeGroups` holds
        them: ``rows`` (of a node in no group, of each group, of each
        lone node), ``nodes``, ``lone``, and ``expand(N)`` giving the
        ``[N, 2]`` block — ``x`` is ``[B, k, 2]`` and holds only the
        rows that differ per sample; the result equals a forward over
        ``[B, k + N, 2]`` with the block appended to every sample (up
        to float reassociation), but the first dense layer multiplies
        one cached weight-row sum per group instead of ``N`` rows ``B``
        times (:meth:`Dense.forward_shared`, which owns the cache).
        The network must start ``Conv1x2 -> Dense``; ``N`` is that
        layer's ``in_features - k``.  This form is inference only: a
        ``backward`` after it raises.
        """
        # the tuple serialises to the same JSON array as a list would
        with _trace.span("nn.forward", layers=len(self.layers),
                         shape=x.shape):
            return self._forward(np.asarray(x, dtype=self.dtype), shared)

    def _forward(self, x: np.ndarray, shared=None) -> np.ndarray:
        sanitize = _san.sanitizer_enabled()
        if sanitize:
            _san.check_finite("network input", x)
        rest = self.layers
        if shared is not None:
            heads, x = x, self._shared_stem(x, shared, sanitize)
            rest = rest[2:]
        if sanitize:
            for i, layer in enumerate(rest, len(self.layers) - len(rest)):
                x = layer.forward(x)
                self._check_tensor(
                    f"forward output of layer {i} ({type(layer).__name__})", x
                )
            if shared is not None:
                self._check_against_plain(heads, shared, x)
            return x
        for layer in rest:
            x = layer.forward(x)
        return x

    def _shared_stem(self, x: np.ndarray, shared,
                     sanitize: bool) -> np.ndarray:
        """``Conv1x2 -> Dense`` over per-sample rows ``x`` plus ``shared``."""
        if len(self.layers) < 2 or not isinstance(self.layers[0], Conv1x2) \
                or not isinstance(self.layers[1], Dense):
            raise ValueError(
                "forward(x, shared=) needs a network starting Conv1x2 -> Dense"
            )
        conv, dense = self.layers[0], self.layers[1]
        rows = np.asarray(shared.rows, dtype=self.dtype)
        if rows.ndim != 2:
            raise ValueError(f"shared rows expect [1 + G + S, 2], got {rows.shape}")
        if sanitize:
            _san.check_finite("shared network input", rows)
        head = conv.forward(x)
        common = conv.forward(rows[None])[0]
        conv._x = None  # inference only, as in Dense.forward_shared
        y = dense.forward_shared(head, common, shared.nodes, shared.lone)
        if sanitize:
            self._check_tensor("forward output of layer 0 (Conv1x2)", head)
            self._check_tensor(
                "forward output of layer 0 (Conv1x2) on the shared rows",
                common,
            )
            self._check_tensor("forward output of layer 1 (Dense)", y)
        return y

    def _check_tensor(self, name: str, array: np.ndarray) -> None:
        """Sanitizer: a tensor a layer produced is finite and not promoted."""
        _san.check_finite(name, array)
        _san.check_dtype(name, array, self.dtype)

    def _check_against_plain(self, x: np.ndarray, shared,
                             out: np.ndarray) -> None:
        """Sanitizer oracle: ``out`` against the materialised plain forward."""
        block = np.asarray(shared.expand(
            self.layers[1].weight.value.shape[0] - x.shape[1]), self.dtype)
        full = np.concatenate(
            [x, np.broadcast_to(block, (len(x),) + block.shape)], axis=1
        )
        plain = self._forward(full)
        # the oracle pass refilled the caches the shared stem cleared
        self.layers[0]._x = self.layers[1]._x = None
        _san.check_shared_forward(out, plain)

    __call__ = forward

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_out``; returns the input gradient."""
        with _trace.span("nn.backward", layers=len(self.layers)):
            return self._backward(np.asarray(grad_out, dtype=self.dtype))

    def _backward(self, grad_out: np.ndarray) -> np.ndarray:
        if _san.sanitizer_enabled():
            _san.check_finite("network output gradient", grad_out)
            for i, layer in zip(range(len(self.layers) - 1, -1, -1),
                                reversed(self.layers)):
                grad_out = layer.backward(grad_out)
                self._check_tensor(
                    f"backward gradient of layer {i} ({type(layer).__name__})",
                    grad_out,
                )
            return grad_out
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> list[Parameter]:
        """All trainable tensors in layer order."""
        return [p for layer in self.layers for p in layer.parameters()]

    def named_parameters(self) -> dict[str, Parameter]:
        """Every parameter keyed by its position-qualified name.

        The one place keys are formed (``"1.fc1.weight"``): state dicts,
        :meth:`load_state_dict` and the disk writers all read it.
        """
        return {
            f"{i}.{p.name}": p
            for i, layer in enumerate(self.layers)
            for p in layer.parameters()
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameter values keyed by :meth:`named_parameters`' names.

        The live arrays, lent read-only rather than copied: a snapshot
        is a version of the weights, not a copy of them.  Nobody can
        write into one (NumPy raises), and an optimizer step that meets
        a read-only value writes a fresh array and rebinds the
        parameter, so the snapshot keeps the bytes it was taken with
        and the copy is paid only when the weights next change.  A
        reader that is done before the weights next change (a disk
        writer) reads ``p.value`` through :meth:`named_parameters`
        instead and lends nothing.
        """
        state = {}
        for key, p in self.named_parameters().items():
            p.value.flags.writeable = False
            state[key] = p.value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy values from :meth:`state_dict` output; keys must match.

        Values are cast to each parameter's dtype, so a state saved by
        a wider network loads by rounding, and laid out C-contiguous,
        as the optimizer's flat views need them.
        """
        own = self.named_parameters()
        if set(own) != set(state):
            missing = set(own) - set(state)
            extra = set(state) - set(own)
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, extra={sorted(extra)}"
            )
        for key, param in own.items():
            value = np.array(state[key], dtype=param.value.dtype, order="C")
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {value.shape} vs {param.value.shape}"
                )
            param.value = value
            param.version += 1


def build_dras_network(
    rows: int,
    hidden1: int,
    hidden2: int,
    outputs: int,
    rng: np.random.Generator | None = None,
    leaky_alpha: float = 0.01,
    dtype: np.dtype | type = np.float32,
) -> Network:
    """The paper's five-layer DRAS network (§III-B, Table III).

    ``input [rows, 2] -> Conv1x2 -> FC(hidden1, no bias) -> leaky ReLU
    -> FC(hidden2, no bias) -> leaky ReLU -> FC(outputs, bias)``

    For Theta DRAS-PG: ``rows=4460, hidden1=4000, hidden2=1000,
    outputs=50`` giving 21,890,053 trainable parameters, matching
    Table III exactly.  ``dtype`` is the :class:`Network`'s.
    """
    rng = rng or np.random.default_rng(0)
    return Network(
        [
            Conv1x2(rng=rng),
            Dense(rows, hidden1, bias=False, rng=rng, name="fc1", dtype=dtype),
            LeakyReLU(leaky_alpha),
            Dense(hidden1, hidden2, bias=False, rng=rng, name="fc2", dtype=dtype),
            LeakyReLU(leaky_alpha),
            Dense(hidden2, outputs, bias=True, rng=rng, name="out", dtype=dtype),
        ],
        dtype=dtype,
    )


def count_parameters(network: Network) -> int:
    """Total number of trainable scalars (Table III bottom row)."""
    return sum(p.size for p in network.parameters())
