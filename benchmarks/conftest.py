"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper at the
``default`` scale (DESIGN.md §5) and asserts its shape.  The rendered
reports come from ``repro reproduce`` alone: the committed reference
is ``benchmarks/reference/`` (EXPERIMENTS.md names its command).
Expensive intermediates (trained agents, the seven-method evaluation)
are cached per process by :mod:`repro.experiments.common`, mirroring
how the paper derives Fig 6, Fig 7, Fig 8 and Table IV from the same
evaluation runs.
"""

#: scale used by all benchmarks
SCALE = "default"
