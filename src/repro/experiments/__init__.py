"""Experiment harness — one module per table/figure of the paper.

Every paper module, and :mod:`~repro.experiments.ablations` (the
extension ablations), exposes ``run(scale=..., seed=...)`` returning a
plain result object and ``report(result)`` returning a printable string
with the same rows/series the paper reports; the fault study
(:mod:`~repro.experiments.faultsweep`) exposes its sweep cells instead.
:data:`repro.experiments.runner.TABLE` maps every experiment id to its
cells, cell function and renderer.  DESIGN.md §3 maps each module to
the corresponding paper artifact; EXPERIMENTS.md records
paper-vs-measured values.

Scales (see :class:`repro.experiments.common.Scale`):

* ``"tiny"`` — seconds; used by the integration tests;
* ``"default"`` — minutes for the whole suite; used by benchmarks;
* ``"paper"`` — full-size systems and horizons.
"""

from repro.experiments.common import Scale, get_scale

__all__ = ["Scale", "get_scale"]
