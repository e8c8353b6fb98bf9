"""Layers with explicit forward/backward passes.

Each layer caches what its backward pass needs during ``forward`` and
exposes its trainable tensors as :class:`Parameter` objects, which an
optimizer updates in place, or into a fresh array when a snapshot holds
the old one.  Shapes follow the DRAS conventions:
network input is ``[B, rows, 2]``; after the 1x2 convolution the
representation is ``[B, rows]``; dense layers map ``[B, in] -> [B, out]``.
"""

from __future__ import annotations

import numpy as np

#: Elements per row block of a :class:`Dense` weight.  The draw makes one
#: ``rng.normal`` call per block, each rounded into the weight as it is
#: stored (512 KiB of draws live); a group sum adds a block's rows in the
#: weight's precision, kept per weight version, and the blocks in double.
_ROW_BLOCK = 65536

#: Fewest rows a group of :meth:`Dense.forward_shared` may have.  Groups
#: are disjoint, so their float64 sums stay within 1/8 of the bytes of
#: the float32 rows they sum.  Frozen DRAS-PG episodes, ms at 2 / 8 / 16 /
#: 32 / 128 / no grouping: 64 nodes 126 / 124 / 115 / 111 / 114 / 115;
#: 256 nodes 160 / 145 / 146 / 141 / 136 / 135; 1,024 nodes (jobs from 30
#: nodes up) 199 / 189 / 201 / 303 / 296 / 296.  Theta's smallest is 128.
MIN_GROUP_ROWS = 16


class Parameter:
    """A trainable tensor and the gradient of the most recent backward.

    Holds ``value`` in the dtype it is given; the owning
    :class:`~repro.nn.network.Network` rounds one that disagrees with
    its own.  ``grad`` is ``None`` until a ``backward`` writes it (a
    network that only infers never owns one), and is *written*, never
    added to: there is nothing to reset between updates, and summing
    over several backwards is the caller's job.  A :class:`Dense`
    weight's ``grad`` is the factor pair ``(x, d)`` standing for ``xᵀ @
    d``; :meth:`dense_grad` multiplies it out.  ``version`` counts the
    writes of ``value``: a writer (an optimizer step, a state load) adds
    one, and what is derived from the value checks it.  A read-only
    ``value`` is lent to a snapshot: writers rebind ``value`` to a new
    array instead of writing into it.
    """

    __slots__ = ("name", "value", "grad", "version")

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = np.asarray(value)
        self.grad: np.ndarray | tuple[np.ndarray, np.ndarray] | None = None
        self.version = 0

    @property
    def size(self) -> int:
        """Number of scalar elements in the tensor."""
        return self.value.size

    def grad_buffer(self) -> np.ndarray:
        """``grad`` for a backward to write whole; uninitialised when new."""
        if not isinstance(self.grad, np.ndarray):
            self.grad = np.empty(self.value.shape, self.value.dtype)
        return self.grad

    def dense_grad(self) -> np.ndarray:
        """``grad`` as one array of the value's shape: a pair multiplied out."""
        if isinstance(self.grad, tuple):
            x, d = self.grad
            return x.T @ d
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
        rows = max(1, _ROW_BLOCK // out_features)
        for lo in range(0, in_features, rows):
            block = weight[lo:lo + rows]
            block[...] = rng.normal(0.0, scale, size=block.shape)
        self.weight = Parameter(f"{name}.weight", weight)
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features, dtype)) if bias else None
        self._x: np.ndarray | None = None
        # forward_shared's state at _stamp = (weight.version, k): the block
        # sums of W[k:], and id(group) -> (group, sum); None: all rows
        self._blocks: np.ndarray | None = None
        self._sums: dict[int | None, tuple[np.ndarray | None, np.ndarray]] = {}
        self._stamp: tuple[int, int] | None = None

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

    def forward_shared(self, head: np.ndarray, y: np.ndarray,
                       groups: tuple[np.ndarray, ...],
                       lone: np.ndarray) -> np.ndarray:
        """:meth:`forward` for inputs whose trailing columns are common.

        Every sample's input is ``concat(head[b], common)`` — ``head``
        is ``[B, k]``, ``common`` is ``[in - k]`` and given by group:
        ``y[1 + g]`` at ``groups[g]``, ``y[1 + G + s]`` at ``lone[s]``,
        ``y[0]`` everywhere else.  The product splits into
        ``head @ W[:k] + common @ W[k:]``, and the second term into

            ``y[0]·S_all + Σ_g (y[1 + g] − y[0])·S_g + residual``

        with ``S_g`` the sum of the weight rows of group ``g`` and
        ``S_all`` of all ``in - k``: one ``[out]`` row per group in
        place of one per node.  The sums are cached here, keyed by the
        group's index array (the object: the cache holds it, so nothing
        else can take its identity, and a hit is checked to be it),
        dropped when a call no longer names the group, and all dropped,
        with the block table they are read from (:meth:`_row_sum`),
        when ``weight.version`` or ``k`` is not the one they were built
        at.  A group is ``MIN_GROUP_ROWS`` or more increasing nodes
        (which bounds the cache); whatever is smaller comes in
        ``lone``, whose nodes form the residual
        ``Σ_s (y[1 + G + s] − y[0])·W[k + lone[s]]``: skipped when
        empty, else a product over the gathered rows or, when that
        moves more bytes (a gathered row is read, written and read
        again), one GEMV over ``W[k:]``.  Same function as
        :meth:`forward` on the concatenated input up to float
        reassociation.  Inference only: the backward cache is cleared,
        so a following :meth:`backward` raises rather than
        differentiating a stale minibatch.
        """
        weight = self.weight.value
        k = head.shape[-1]
        n = weight.shape[0] - k
        if head.ndim != 2 or y.shape != (1 + len(groups) + lone.size,) or n <= 0:
            raise ValueError(
                f"Dense expects [B, k] + the rows of {len(groups)} groups and "
                f"{lone.size} of {weight.shape[0]} - k nodes, got {head.shape} + {y.shape}")
        self._x = None
        stamp = (self.weight.version, k)
        if self._stamp != stamp:
            step = max(1, _ROW_BLOCK // weight.shape[1])
            self._blocks = np.empty((n // step, weight.shape[1]), weight.dtype)
            for j, block in enumerate(self._blocks):
                weight[k + j * step:k + (j + 1) * step].sum(axis=0, out=block)
            self._stamp = stamp
            self._sums = {None: (None, self._row_sum(np.arange(n), k))}
        old = self._sums
        kept, sums = {None: old[None]}, []
        for g, nodes in enumerate(groups):
            entry = old.get(id(nodes))
            # a copied or unpickled cache is keyed by another object's id
            if entry is None or entry[0] is not nodes:
                if nodes.size < MIN_GROUP_ROWS or not (
                        0 <= nodes[0] and nodes[-1] < n and np.all(nodes[1:] > nodes[:-1])):
                    raise ValueError(f"group {g} is not {MIN_GROUP_ROWS} or more "
                                     f"increasing nodes of 0..{n - 1}")
                entry = (nodes, self._row_sum(nodes, k))
            kept[id(nodes)] = entry
            sums.append(entry[1])
        self._sums = kept
        # in double the differences of two float32 are exact
        free = float(y[0])
        delta = y[1:].astype(np.float64) - free
        common = free * kept[None][1]
        if sums:
            common += delta[:len(sums)] @ np.array(sums)
        out = head @ weight[:k]
        out += common.astype(out.dtype)
        if 0 < 3 * lone.size < n:
            out += delta[len(sums):].astype(out.dtype) @ weight[k + lone]
        elif lone.size:
            apart = np.zeros(n, dtype=out.dtype)
            apart[lone] = delta[len(sums):]
            out += apart @ weight[k:]
        if self.bias is not None:
            out += self.bias.value
        return out

    def _row_sum(self, nodes: np.ndarray, k: int) -> np.ndarray:
        """Sum of the weight rows ``k + nodes``, in double precision.

        ``_blocks`` row ``j`` is the sum of the rows ``[j·step, (j +
        1)·step)`` of ``W[k:]`` (``step = _ROW_BLOCK // out``) in the
        weight's precision, one per whole block.  Each run of
        consecutive nodes adds in double, in order, its rows before its
        first whole block, the table rows of its whole blocks and its
        rows after the last: at most ``2·step − 2`` weight rows read,
        not the run's.  A run that starts on a block edge therefore
        adds exactly the blocks it adds when summed from its own first
        row: the sum of all rows is every table row in order, then the
        short last block.  A 4,360-row float32 sum is off by 1e-5,
        enough to flip a near-tied argmax; blocks of 16 rows hold it to
        5e-7, twice the rounding of a float32 result, at the float32
        sum's speed (a float64 ``sum(axis=0)`` casts through a buffer:
        2.5x slower).
        """
        rows, blocks = self.weight.value[k:], self._blocks
        step = max(1, _ROW_BLOCK // rows.shape[1])
        out = np.zeros(rows.shape[1], dtype=np.float64)
        cuts = np.flatnonzero(np.diff(nodes) != 1) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), nodes.size]):
            first, last = int(nodes[lo]), int(nodes[hi - 1]) + 1
            a, b = -(-first // step), last // step     # the run's whole blocks
            head = min(a * step, last)
            tail = max(b * step, head)
            if first < head:
                out += rows[first:head].sum(axis=0)
            for block in blocks[a:b]:
                out += block
            if tail < last:
                out += rows[tail:last].sum(axis=0)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write batch-summed grads; returns ``[B, in]`` input grads.

        The weight gradient ``xᵀ @ grad_out`` is kept as its factors
        ``(x, grad_out)``: rank at most ``B``, so ``B·(in + out)``
        elements where the product has ``in·out``, and the optimizer
        forms it a block at a time where it is consumed.
        """
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad = (self._x, grad_out)
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

    Forward is ``max(x, alpha*x)``: one multiply and one branch-free
    maximum, the same bits as the branchy ``where(x > 0, x, alpha*x)``
    for ``0 < alpha <= 1`` on every input, signed zeros, infinities,
    NaN and subnormals included (``alpha = 0`` would make ``+inf``
    NaN).  The input is cached, and ``backward`` builds the slope (1
    where ``x > 0``, ``alpha`` elsewhere) from it, so only training
    pays for the slope.
    """

    def __init__(self, alpha: float) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``max(x, alpha*x)`` over any batched shape."""
        self._x = x
        # alpha in x's precision, the value the slope factor holds
        y = x * x.dtype.type(self.alpha)
        return np.maximum(x, y, out=y)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Scale gradients by the slope at the cached input."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        # typed scalars: ``np.where(x > 0, 1.0, alpha)`` is double
        # precision whatever ``x`` is, and would promote every layer
        # before this one
        scalar = self._x.dtype.type
        return grad_out * np.where(self._x > 0, scalar(1.0),
                                   scalar(self.alpha))
