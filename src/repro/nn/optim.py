"""Optimizers updating :class:`~repro.nn.layers.Parameter` in place."""

from __future__ import annotations

import numpy as np

from repro.check import sanitize as _san
from repro.nn.layers import Parameter
from repro.obs import trace as _trace


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not params:
            raise ValueError("no parameters to optimize")
        self.params = params
        # a plain float: a NumPy scalar of a wider type would widen
        # every product it enters
        self.lr = float(lr)

    def step(self) -> None:
        """Apply one update to every parameter from its current grad."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset every managed parameter's gradient accumulator."""
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    """Plain stochastic gradient descent, optionally with momentum."""

    def __init__(
        self, params: list[Parameter], lr: float = 0.01, momentum: float = 0.0
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        """One (momentum-)SGD update: ``p -= lr * v`` in place."""
        for p, v in zip(self.params, self._velocity):
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.value -= self.lr * v
            else:
                p.value -= self.lr * p.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the optimizer the paper uses, lr = 0.001."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        grad_clip: float | None = None,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.grad_clip = grad_clip
        #: when True, :attr:`last_grad_norm` is refreshed on every step
        #: (the global pre-clip gradient L2 norm); off by default so the
        #: training hot path pays nothing for telemetry it does not use
        self.track_grad_norm = False
        #: global L2 norm of the gradient at the most recent tracked
        #: step (NaN until :attr:`track_grad_norm` sees a step)
        self.last_grad_norm = float("nan")
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self._t = 0
        # Scratch buffers sized to the largest parameter, allocated
        # lazily on the first step (so idle optimizers — e.g. ones that
        # only exist to be checkpointed — stay lean).  Reusing them
        # keeps the update free of large temporaries: allocating
        # multi-megabyte arrays every step forces the allocator back to
        # mmap and dominated the pre-batched train-step profile.
        self._scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def step(self) -> None:
        """Apply one Adam update to every parameter (in place)."""
        with _trace.span("nn.adam_step", t=self._t + 1,
                         params=len(self.params)):
            return self._step()

    def _scratch_for(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Reusable scratch views matching ``shape`` (no per-step allocs)."""
        if self._scratch is None:
            largest = max((p.value for p in self.params), key=np.size)
            self._scratch = tuple(
                np.empty(largest.size, largest.dtype) for _ in range(3))
        n = 1
        for dim in shape:
            n *= dim
        return tuple(buf[:n].reshape(shape) for buf in self._scratch)

    def _check_dtypes(self) -> None:
        """Sanitizer: nothing the update combines would widen a parameter.

        Every pass of :meth:`_step` writes in place, so a wider operand
        never shows in a result's dtype — it only makes the pass
        compute wide and round back.  Hence the operands are checked.
        """
        scalars = {"lr": self.lr, "eps": self.eps, "beta1": self.beta1,
                   "beta2": self.beta2, "grad_clip": self.grad_clip or 0.0}
        for p, m, v in zip(self.params, self._m, self._v):
            arrays = {"gradient": p.grad, "first moment": m,
                      "second moment": v}
            for i, scratch in enumerate(self._scratch_for(p.grad.shape)):
                arrays[f"scratch {i}"] = scratch
            for what, operand in {**arrays, **scalars}.items():
                _san.check_dtype(f"{what} of {p.name} (Adam step {self._t})",
                                 operand, p.value.dtype)

    def _step(self) -> None:
        """The fused in-place Adam update.

        Mathematically (and bit-for-bit) identical to the textbook
        sequence ``m = β1·m + (1-β1)·g``, ``v = β2·v + (1-β2)·g²``,
        ``p -= lr·(m/bias1) / (sqrt(v/bias2) + ε)``, but every
        elementwise pass writes into a preallocated scratch buffer.
        The scalar multiply/divide order matches the naive expression
        exactly, so training trajectories are reproducible across the
        fused and unfused implementations.
        """
        self._t += 1
        sanitize = _san.sanitizer_enabled()
        if sanitize:
            self._check_dtypes()
        track = self.track_grad_norm
        sq_norm_sum = 0.0
        grad_clip = self.grad_clip
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if sanitize:
                _san.check_finite(f"gradient of {p.name} (Adam step {self._t})", g)
            t1, t2, t3 = self._scratch_for(g.shape)
            if track or grad_clip is not None:
                norm = float(np.linalg.norm(g))
                if track:
                    sq_norm_sum += norm * norm
                if grad_clip is not None and norm > grad_clip:
                    np.multiply(g, grad_clip / norm, out=t3)
                    g = t3
            # m = b1*m + (1-b1)*g        (two in-place passes)
            m *= b1
            np.multiply(g, 1 - b1, out=t1)
            m += t1
            # v = b2*v + (1-b2)*g^2
            v *= b2
            np.square(g, out=t1)
            t1 *= 1 - b2
            v += t1
            # p -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
            np.divide(m, bias1, out=t1)
            t1 *= self.lr
            np.divide(v, bias2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += self.eps
            t1 /= t2
            shape_before = p.value.shape
            p.value -= t1
            if sanitize:
                _san.check_same_shape(p.name, shape_before, p.value.shape)
                _san.check_finite(f"value of {p.name} (Adam step {self._t})", p.value)
        if track:
            self.last_grad_norm = float(np.sqrt(sq_norm_sum))
