"""Correctness tooling for the reproduction: static analysis + sanitizer.

Two layers, both in service of bit-reproducible simulation and
numerically sane training:

* **Static analysis** — one list of rules and one driver
  (:mod:`repro.check.lint`).  The rules (RPR104–RPR106) flag mutable
  default arguments, exact float comparisons on simulation timestamps
  and swallowed exceptions.  Run them with
  ``python -m repro check [paths...]``.
  A static rule earns its place only by guarding an invariant no
  runtime test already does: unit constants, Table III parameter
  counts and the batched network shapes are asserted by the test
  suite on the built objects.  Performance questions are not lint's to
  answer either: they are measured, at paper scale, by
  ``benchmarks/perf/``.  Nor is determinism: that a run's outputs
  depend only on its seed and config (no global or unseeded RNG, no
  wall clock, no hash-order float sums) is checked by running it, in
  ``tests/test_ambient_perturbation.py`` and the golden digests.  Nor
  are the API contracts the engine calls by name: a drifted
  ``schedule`` or lifecycle signature raises ``TypeError`` on the
  engine's first call, the engine refuses a subscriber with a misspelt
  observer hook, and a test holds the emitted trace record names equal
  to :data:`repro.obs.trace.SPAN_NAMES`.
* :mod:`repro.check.sanitize` — runtime assertion hooks, verifying
  node conservation, event-time monotonicity, metric non-negativity
  and NaN/Inf-free network math while a run executes.  They follow one
  process-global decision: ``REPRO_SANITIZE=1``, read once per
  process, or an explicit ``with sanitizing(True):`` block, which
  ``Engine(sanitize=True)`` puts around its whole run.

Every name is re-exported lazily (PEP 562).  The simulator imports
this package on every start to reach :mod:`repro.check.sanitize` and
must not pay for loading the linter; the static layer is
pure-stdlib and must stay importable in environments without NumPy,
which the sanitizer needs.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: public name -> submodule it is read from
_EXPORTS = {
    "RULES": "lint",
    "Violation": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "SanitizerError": "sanitize",
    "sanitizer_enabled": "sanitize",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Resolve a public name from its submodule on first use (PEP 562)."""
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
