"""The Adam optimizer updating :class:`~repro.nn.layers.Parameter` values.

A step writes each value in place unless it is read-only — lent to a
snapshot by :meth:`~repro.nn.network.Network.state_dict` — in which
case the step writes a fresh array and rebinds the parameter to it, so
the snapshot keeps the bytes it was taken with.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.check import sanitize as _san
from repro.nn.layers import Parameter
from repro.obs import trace as _trace

#: Elements per block of :meth:`Adam._step`'s sweep.  Three scratch
#: blocks plus the four operand blocks are 7 x 128 KiB in float32 —
#: inside L2.  Measured at Theta-PG's 21.9 M float32 weights on the
#: 2-vCPU host, no clipping: 138 ms a step unblocked; 95 / 82 / 75 /
#: 75 / 81 ms at 8k / 16k / 32k / 64k / 128k elements — a plateau, so
#: this is a constant, not a knob.
_BLOCK = 32768


def _destination(p: Parameter) -> np.ndarray:
    """Where a step writes ``p``'s new value: the value itself, or a
    fresh array of its layout when the value is a snapshot's."""
    return p.value if p.value.flags.writeable else np.empty_like(p.value)


def _flat(array: np.ndarray, name: str) -> np.ndarray:
    """A 1-D *view* of ``array``; never the copy ``reshape`` may return."""
    if not array.flags.c_contiguous:
        raise ValueError(
            f"{name}: Adam updates through flat views and needs C-contiguous "
            f"value, grad and moments (strides {array.strides})")
    return array.reshape(-1)


def _factors(grad) -> tuple[np.ndarray, ...]:
    """The arrays a gradient is held in: itself, or a pair's two factors."""
    return grad if isinstance(grad, tuple) else (grad,)


def _norm(grad) -> float:
    """Frobenius norm of a gradient.  A pair's, of ``xᵀ @ d``, comes from
    the float64 Gram form ``Σ (x·xᵀ) ∘ (d·dᵀ)``: ``B²·(in + out)`` work
    and no product; clamped at 0, where rounding can dip below."""
    if not isinstance(grad, tuple):
        return float(np.linalg.norm(grad))
    x, d = (f.astype(np.float64) for f in grad)
    return float(np.sqrt(max(0.0, np.sum((x @ x.T) * (d @ d.T)))))


def _gradient_blocks(p: Parameter, into: np.ndarray
                     ) -> Iterator[tuple[int, np.ndarray]]:
    """``(offset, block)`` over ``p``'s flat gradient, ``_BLOCK`` elements
    at most: slices of a dense gradient, or a pair's ``xᵀ @ d`` formed
    block by block into ``into``.  A pair's blocks are ``_BLOCK // out``
    whole rows, or column pieces of one row when two do not fit.  NumPy
    multiplies a single row as a GEMV, whose bits differ from the GEMM's
    on wide rows, so a lone row is formed with a neighbour and kept:
    every block is the whole product's rows, bit for bit, unless the
    weight has one row only (its whole product is a GEMV too)."""
    if not isinstance(p.grad, tuple):
        flat = _flat(p.grad, p.name)
        for lo in range(0, flat.size, _BLOCK):
            yield lo, flat[lo:lo + _BLOCK]
        return
    x, d = p.grad
    n_in, n_out = p.value.shape
    rows, cols = max(1, _BLOCK // n_out), min(n_out, _BLOCK // 2)
    for r in range(0, n_in, rows):
        end = min(r + rows, n_in)
        a = max(0, min(r, n_in - 2))
        b = max(end, min(a + 2, n_in))
        for c in range(0, n_out, cols):
            w = min(cols, n_out - c)
            block = into[:(b - a) * w]
            np.matmul(x[:, a:b].T, d[:, c:c + w], out=block.reshape(b - a, w))
            yield r * n_out + c, block[(r - a) * w:(end - a) * w]


class Adam:
    """Adam (Kingma & Ba) — the optimizer the paper uses, lr = 0.001,
    with the textbook constants ``β1 = 0.9``, ``β2 = 0.999`` and
    ``ε = 1e-8``."""

    #: plain Python floats, like ``lr``: a NumPy scalar of a wider type
    #: would widen every product it enters
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        grad_clip: float | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not params:
            raise ValueError("no parameters to optimize")
        self.params = params
        # a plain float: a NumPy scalar of a wider type would widen
        # every product it enters
        self.lr = float(lr)
        self.grad_clip = grad_clip
        #: global pre-clip L2 norm of the gradient at the most recent
        #: step (NaN until the first step)
        self.last_grad_norm = float("nan")
        # moments: made by the first step, so a frozen agent holds none
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0
        # Block-sized scratch for the sweep in :meth:`_step`: every
        # temporary of the update lives in these three arrays, whatever
        # the size of the parameter being updated.
        dtype = params[0].value.dtype
        self._scratch = tuple(np.empty(_BLOCK, dtype) for _ in range(3))

    def _zeros(self) -> list[np.ndarray]:
        return [np.zeros(p.value.shape, p.value.dtype) for p in self.params]

    def state_dict(self) -> dict:
        """Step count ``t`` and the moment lists ``m``, ``v``, one per parameter.

        The live arrays, not copies; a never-stepped optimizer reports
        zeros without keeping them.
        """
        return {"t": self._t, "m": self._m or self._zeros(),
                "v": self._v or self._zeros()}

    def load_state_dict(self, state: dict) -> None:
        """Install :meth:`state_dict` output; ``t = 0`` allocates nothing.

        ``m`` / ``v`` may be any iterables, read one array at a time; each
        is copied into its parameter's dtype (mixed moments would make every
        later step compute wide and round back), laid out C-contiguous.
        """
        self._t = int(state["t"])
        self._m = self._v = None
        if self._t:
            self._m, self._v = (
                [np.array(a, dtype=p.value.dtype, order="C")
                 for p, a in zip(self.params, state[k], strict=True)]
                for k in "mv")

    def step(self) -> None:
        """Apply one Adam update to every parameter."""
        with _trace.span("nn.adam_step", t=self._t + 1,
                         params=len(self.params)):
            return self._step()

    def _check_dtypes(self) -> None:
        """Sanitizer: nothing the update combines would widen a parameter.

        Every pass of :meth:`_step` writes in place, so a wider operand
        never shows in a result's dtype — it only makes the pass
        compute wide and round back.  Hence the operands are checked.
        """
        scalars = {"lr": self.lr, "grad_clip": self.grad_clip or 0.0}
        scratch = {f"scratch {i}": buf for i, buf in enumerate(self._scratch)}
        for p, m, v in zip(self.params, self._m, self._v):
            operands = [*(("gradient", g) for g in _factors(p.grad)),
                        ("first moment", m), ("second moment", v),
                        *scratch.items(), *scalars.items()]
            for what, operand in operands:
                _san.check_dtype(f"{what} of {p.name} (Adam step {self._t})",
                                 operand, p.value.dtype)

    def _step(self) -> None:
        """The Adam update, one cache-sized block at a time.

        Mathematically (and bit-for-bit) identical to the textbook
        sequence ``m = β1·m + (1-β1)·g``, ``v = β2·v + (1-β2)·g²``,
        ``p -= lr·(m/bias1) / (sqrt(v/bias2) + ε)``: the same
        elementwise ufuncs in the same scalar multiply/divide order,
        each correctly rounded per element, so neither the scratch
        buffers nor the blocking can change a bit and training
        trajectories are reproducible across this and the unfused
        form.  Running all fourteen passes over one ``_BLOCK`` of
        ``g``, ``m``, ``v``, ``p`` before moving to the next streams
        each of the four through DRAM once per step; a factor pair is
        formed a block at a time (:func:`_gradient_blocks`).  The clip
        norm must be known before the first block is scaled: one
        ``np.linalg.norm`` pass over a dense gradient, a pair's float64
        Gram form (:func:`_norm`), nearer the exact norm — so where the
        clip fires, a pair may step in the last bits apart from its
        formed product, and nowhere else.  The last pass
        writes into the value itself, or into a fresh array the
        parameter is rebound to when the value is a snapshot's
        (read-only): the same subtract on the same operands, so the
        bits do not depend on which.
        """
        for p in self.params:
            if p.grad is None:
                raise ValueError(f"gradient of {p.name} is None at Adam step "
                                 f"{self._t + 1}: no backward has written it")
        if self._m is None:
            self._m, self._v = self._zeros(), self._zeros()
        self._t += 1
        sanitize = _san.sanitizer_enabled()
        if sanitize:
            self._check_dtypes()
        sq_norm_sum = 0.0
        grad_clip = self.grad_clip
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        s1, s2, s3 = self._scratch
        for p, m, v in zip(self.params, self._m, self._v):
            if sanitize:
                for g in _factors(p.grad):
                    _san.check_finite(f"gradient of {p.name} (Adam step {self._t})", g)
            scale = None
            norm = _norm(p.grad)
            sq_norm_sum += norm * norm
            if grad_clip is not None and norm > grad_clip:
                scale = grad_clip / norm
            shape_before = p.value.shape
            new = _destination(p)
            flat_m, flat_v, flat_p, flat_new = (
                _flat(a, p.name) for a in (m, v, p.value, new))
            for lo, gb in _gradient_blocks(p, s3):
                n = gb.size
                mb = flat_m[lo:lo + n]
                vb = flat_v[lo:lo + n]
                t1, t2 = s1[:n], s2[:n]
                if scale is not None:
                    gb = np.multiply(gb, scale, out=s3[:n])
                # m = b1*m + (1-b1)*g        (two in-place passes)
                mb *= b1
                np.multiply(gb, 1 - b1, out=t1)
                mb += t1
                # v = b2*v + (1-b2)*g^2
                vb *= b2
                np.square(gb, out=t1)
                t1 *= 1 - b2
                vb += t1
                # p -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
                np.divide(mb, bias1, out=t1)
                t1 *= self.lr
                np.divide(vb, bias2, out=t2)
                np.sqrt(t2, out=t2)
                t2 += self.eps
                t1 /= t2
                np.subtract(flat_p[lo:lo + n], t1, out=flat_new[lo:lo + n])
            p.value = new
            p.version += 1
            if sanitize:
                _san.check_same_shape(p.name, shape_before, p.value.shape)
                _san.check_finite(f"value of {p.name} (Adam step {self._t})", p.value)
                # a step consumes its gradient: one that no backward
                # rewrites is missing at the next step, which refuses it
                p.grad = None
        self.last_grad_norm = float(np.sqrt(sq_norm_sum))
