"""Correctness tooling for the reproduction: static analysis + sanitizer.

Two layers, both in service of bit-reproducible simulation and
numerically sane training:

* **Static analysis** — one rule framework (:mod:`repro.check.rules`:
  the ``Rule`` base, the ``RULES`` registry, the raw ``Finding``) and
  one driver (:mod:`repro.check.lint`) over pure-:mod:`ast` module and
  project models (:mod:`repro.check.project`).  Per-file rules
  (RPR1xx) flag the regressions that historically break RL-scheduling
  reproducibility: global-RNG usage, wall-clock reads, mutable default
  arguments, exact float comparisons on simulation timestamps,
  swallowed exceptions, float accumulation in set order.
  Whole-program rules see import graph, cross-module symbol resolution
  and class hierarchy: the API-contract rules
  (:mod:`repro.check.contracts`, RPR4xx).
  Run everything with ``python -m repro check --strict [paths...]``.
  A static rule earns its place only by guarding an invariant no
  runtime test already does: unit constants, Table III parameter
  counts and the batched network shapes are asserted by the test
  suite on the built objects.  Performance questions are not lint's to
  answer either: they are measured, at paper scale, by
  ``benchmarks/perf/``.  Nor is determinism: that a run's outputs
  depend only on its seed and config is checked by running it, in
  ``tests/test_ambient_perturbation.py``.
* :mod:`repro.check.sanitize` — runtime assertion hooks enabled via the
  ``REPRO_SANITIZE=1`` environment variable or ``Engine(sanitize=True)``,
  verifying node conservation, event-time monotonicity, metric
  non-negativity and NaN/Inf-free network math while a run executes.

Every name is re-exported lazily (PEP 562).  The simulator imports
this package on every start to reach :mod:`repro.check.sanitize` and
must not pay for loading the analyzers; the static layer is
pure-stdlib and must stay importable in environments without NumPy,
which the sanitizer needs.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: public name -> submodule it is read from (``RULES`` through the
#: driver, whose import registers every rule family)
_EXPORTS = {
    "LintConfig": "lint",
    "RULES": "lint",
    "Violation": "lint",
    "analyze_project": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "Rule": "rules",
    "register": "rules",
    "SanitizerError": "sanitize",
    "sanitizer_enabled": "sanitize",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Resolve a public name from its submodule on first use (PEP 562)."""
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
