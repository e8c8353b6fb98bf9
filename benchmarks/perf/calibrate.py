"""Host-speed calibration kernels.

On a small shared VM the same pure-Python loop takes 34-65 ms depending
on the second it runs in (SMT/neighbour contention; steal time reads 0),
so raw host seconds carry a 13-20% run-to-run spread that no estimator
inside one run removes — the machine's speed drifts on a scale of
seconds.  What does remove it is measuring the machine next to the
work: a fixed kernel runs immediately before and after every timed
repetition, and the repetition's timings are scaled by
``REFERENCE_S / kernel time``.  The reported numbers are therefore
*calibrated* host seconds — the time the repetition would have taken had
the host run the kernel at its reference speed — and the raw seconds
are kept beside them in the result file.

Two kernels, because interpreter-bound and BLAS-bound code slow down by
different factors under contention (measured: scaling a GEMV by a
Python loop widens its spread, and the reverse).  Each mirrors the
instruction mix of the workloads it calibrates and touches none of the
repo's code, so it costs the same on every commit.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class _Slot:
    """A small attribute-bearing object, scanned like a queued job."""

    __slots__ = ("size", "walltime", "ident")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.size = 1 + ident % 97
        self.walltime = float(60 + ident % 1013)


class InterpreterKernel:
    """Attribute-heavy Python loops plus NumPy mask/sort over 12k nodes.

    The mix of ``theta_easy`` / ``cori_easy``: a first-fit scan over a
    list of objects, dict and list churn, and the boolean-mask, sort and
    ``flatnonzero`` passes a 12,076-node cluster array takes.
    """

    #: kernel seconds on the quiet reference host
    REFERENCE_S = 0.028

    def __init__(self) -> None:
        self._slots = [_Slot(i) for i in range(4000)]
        rng = np.random.default_rng(0)
        self._avail = rng.random(12076)
        self._owner = rng.integers(-1, 50, size=12076)

    def __call__(self) -> float:
        start = perf_counter()
        table: dict[int, _Slot] = {}
        for _ in range(110):
            free, cutoff, extra = 40, 500.0, 3
            for slot in self._slots:
                if slot.ident != 7:
                    size = slot.size
                    if size <= free and (slot.walltime <= cutoff
                                         or size <= extra):
                        table[slot.ident] = slot
        for _ in range(220):
            busy = self._owner != -1
            times = np.maximum(self._avail[busy], 0.5)
            times.sort()
            np.flatnonzero(self._owner == -1)
        return perf_counter() - start


class BlasKernel:
    """Memory-bound GEMV, a skinny GEMM and an elementwise streaming pass.

    The mix of the agent workloads: a batch-of-one forward streams the
    weight matrix once (GEMV), a batched forward and the backward are
    GEMMs, and Adam is a handful of elementwise passes over arrays far
    larger than the caches.  One 72 MB matrix serves all three.
    """

    REFERENCE_S = 0.023

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._weights = rng.random((3000, 3000))
        self._row = rng.random((1, 3000))
        self._batch = rng.random((16, 3000))

    def __call__(self) -> float:
        start = perf_counter()
        weights = self._weights
        for _ in range(4):
            self._row @ weights
        for _ in range(2):
            self._batch @ weights
        # a sign flip streams the whole matrix and is stable forever
        np.negative(weights, out=weights)
        return perf_counter() - start
