"""The rule framework, and the per-file determinism rules (RPR1xx).

Every rule subclasses :class:`Rule` and lands in the one registry,
:data:`RULES`, via the :func:`register` decorator, so downstream code
(and tests) can add project-specific rules without touching the
engine:

.. code-block:: python

    @register
    class NoPrintRule(Rule):
        id = "RPR900"
        slug = "no-print"
        rationale = "use logging"

        def check_module(self, info):
            ...

A rule implements :meth:`Rule.check_module`: it reads one
:class:`ModuleInfo` (a file's path, source and syntax tree) and yields
raw :class:`Finding` records — selection, scopes, suppressions and
ordering belong to the driver in :mod:`repro.check.lint`.

A rule may restrict itself to parts of the tree (``default_scopes``) —
path fragments matched against the file's posix path.  ``None`` means
the rule applies everywhere.  The caller can override scopes and
whitelists through :class:`repro.check.lint.LintConfig`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

#: numpy.random attributes that are part of the *seeded Generator* API
#: and therefore allowed everywhere.
ALLOWED_NP_RANDOM = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: stdlib ``random`` module functions that mutate/read the hidden
#: global RNG state.  ``random.Random`` (an explicit instance) is fine.
GLOBAL_STDLIB_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "seed", "getrandbits",
    "getstate", "setstate", "binomialvariate",
})

#: wall-clock reads.  ``time.perf_counter``/``monotonic`` are fine:
#: they cannot leak the date into simulation state.
WALL_CLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})
WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

_TIME_NAME = re.compile(
    r"(^|_)(time|now|clock|timestamp|makespan|deadline|walltime)s?(_|$)",
    re.IGNORECASE,
)

MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict"})


@dataclass(frozen=True)
class Finding:
    """One raw rule hit, pinned to a file location."""

    path: str
    line: int
    col: int
    message: str


class Imports:
    """Module-alias tables built from a module's import statements."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy: set[str] = set()          # `import numpy as np`
        self.numpy_random: set[str] = set()   # `from numpy import random`
        self.stdlib_random: set[str] = set()  # `import random`
        self.time: set[str] = set()           # `import time`
        self.datetime_mod: set[str] = set()   # `import datetime`
        self.datetime_cls: set[str] = set()   # `from datetime import datetime/date`
        self.banned_rng_names: set[str] = set()    # `from random import choice`
        self.banned_clock_names: set[str] = set()  # `from time import time`
        self.unseeded_ctor_names: set[str] = set() # `from numpy.random import default_rng`
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random.add(alias.asname)
                        else:
                            self.numpy.add("numpy")
                    elif alias.name == "random":
                        self.stdlib_random.add(bound)
                    elif alias.name == "time":
                        self.time.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_mod.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "numpy" and alias.name == "random":
                        self.numpy_random.add(bound)
                    elif node.module == "numpy.random":
                        if alias.name == "default_rng":
                            self.unseeded_ctor_names.add(bound)
                        elif alias.name not in ALLOWED_NP_RANDOM:
                            self.banned_rng_names.add(bound)
                    elif node.module == "random":
                        if alias.name in GLOBAL_STDLIB_RANDOM:
                            self.banned_rng_names.add(bound)
                    elif node.module == "time":
                        if alias.name in WALL_CLOCK_TIME_ATTRS:
                            self.banned_clock_names.add(bound)
                    elif node.module == "datetime":
                        if alias.name in ("datetime", "date"):
                            self.datetime_cls.add(bound)

    def is_numpy_random(self, node: ast.expr) -> bool:
        """Does ``node`` evaluate to the ``numpy.random`` module?"""
        if isinstance(node, ast.Name):
            return node.id in self.numpy_random
        if isinstance(node, ast.Attribute) and node.attr == "random":
            return isinstance(node.value, ast.Name) and node.value.id in self.numpy
        return False


@dataclass
class ModuleInfo:
    """One parsed module: what a rule reads."""

    path: str                 #: posix path the module was read from
    source: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleInfo":
        """Parse ``source`` into a module record (raises ``SyntaxError``)."""
        return cls(path, source, ast.parse(source, filename=path))

    @cached_property
    def imports(self) -> Imports:
        """This module's alias tables, built on first use."""
        return Imports(self.tree)


class Rule:
    """Base class: set the metadata, implement :meth:`check_module`."""

    id: str = ""
    slug: str = ""
    rationale: str = ""
    #: path fragments this rule is restricted to by default (None = all)
    default_scopes: tuple[str, ...] | None = None

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        return iter(())


RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule instance to the global registry."""
    rule = cls()
    if not rule.id or not rule.slug:
        raise ValueError(f"rule {cls.__name__} must define id and slug")
    if rule.slug in RULES or any(r.id == rule.id for r in RULES.values()):
        raise ValueError(f"duplicate rule {rule.id}/{rule.slug}")
    RULES[rule.slug] = rule
    return cls


@register
class GlobalRngRule(Rule):
    """Global RNG state breaks seed isolation between components."""

    id = "RPR101"
    slug = "global-rng"
    rationale = (
        "calls through numpy's or the stdlib's hidden global RNG make run "
        "order affect results; thread a seeded Generator/Random instead"
    )
    default_scopes = ("sim/", "core/", "schedulers/", "workload/", "rl/", "nn/")

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag numpy global-RNG calls on the legacy interface."""
        imp = info.imports
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Attribute):
                if imp.is_numpy_random(node.value) and node.attr not in ALLOWED_NP_RANDOM:
                    yield Finding(
                        info.path, node.lineno, node.col_offset,
                        f"global numpy RNG call np.random.{node.attr}; "
                        "thread a seeded np.random.Generator instead",
                    )
                elif (
                    isinstance(node.value, ast.Name)
                    and node.value.id in imp.stdlib_random
                    and node.attr in GLOBAL_STDLIB_RANDOM
                ):
                    yield Finding(
                        info.path, node.lineno, node.col_offset,
                        f"global stdlib RNG call random.{node.attr}; "
                        "use an explicit random.Random(seed) instance",
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imp.banned_rng_names:
                    yield Finding(
                        info.path, node.lineno, node.col_offset,
                        f"global RNG function {node.id!r} imported at module "
                        "level; thread a seeded generator instead",
                    )


@register
class UnseededRngRule(Rule):
    """``default_rng()`` with no seed pulls OS entropy — irreproducible."""

    id = "RPR102"
    slug = "unseeded-rng"
    rationale = (
        "np.random.default_rng() without a seed draws OS entropy, so two "
        "identical runs diverge; require an explicit seed or Generator"
    )
    default_scopes = None

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag default_rng()/seed-less RNG construction."""
        imp = info.imports
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            fn = node.func
            unseeded = (
                isinstance(fn, ast.Attribute)
                and fn.attr == "default_rng"
                and imp.is_numpy_random(fn.value)
            ) or (isinstance(fn, ast.Name) and fn.id in imp.unseeded_ctor_names)
            if unseeded:
                yield Finding(
                    info.path, node.lineno, node.col_offset,
                    "default_rng() without a seed is non-deterministic; pass "
                    "an explicit seed or accept a Generator from the caller",
                )


@register
class WallClockRule(Rule):
    """Wall-clock reads leak host time into simulation state."""

    id = "RPR103"
    slug = "wall-clock"
    rationale = (
        "time.time()/datetime.now() make behaviour depend on when the run "
        "happens; use the engine clock or time.perf_counter() for durations"
    )
    default_scopes = None

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag wall-clock reads inside simulation/NN code."""
        imp = info.imports
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Attribute):
                base = node.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in imp.time
                    and node.attr in WALL_CLOCK_TIME_ATTRS
                ):
                    yield Finding(
                        info.path, node.lineno, node.col_offset,
                        f"wall-clock read time.{node.attr}; use the engine "
                        "clock for simulation time or time.perf_counter() "
                        "for durations",
                    )
                elif node.attr in WALL_CLOCK_DATETIME_ATTRS and (
                    (isinstance(base, ast.Name)
                     and (base.id in imp.datetime_mod or base.id in imp.datetime_cls))
                    or (isinstance(base, ast.Attribute)
                        and base.attr in ("datetime", "date")
                        and isinstance(base.value, ast.Name)
                        and base.value.id in imp.datetime_mod)
                ):
                    yield Finding(
                        info.path, node.lineno, node.col_offset,
                        f"wall-clock read datetime …{node.attr}(); "
                        "simulation code must not observe the host date",
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imp.banned_clock_names:
                    yield Finding(
                        info.path, node.lineno, node.col_offset,
                        f"wall-clock function {node.id!r} imported from time; "
                        "use time.perf_counter() for durations",
                    )


@register
class MutableDefaultRule(Rule):
    """Mutable default arguments persist state across calls."""

    id = "RPR104"
    slug = "mutable-default"
    rationale = (
        "a list/dict/set default is created once and shared by every call, "
        "silently carrying state between episodes; default to None instead"
    )
    default_scopes = None

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag mutable default argument values."""
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                        ast.ListComp, ast.DictComp, ast.SetComp)):
                    bad = True
                elif isinstance(default, ast.Call):
                    fn = default.func
                    bad = isinstance(fn, ast.Name) and fn.id in MUTABLE_CTORS
                else:
                    bad = False
                if bad:
                    yield Finding(
                        info.path, default.lineno, default.col_offset,
                        "mutable default argument is shared across calls; "
                        "use None and construct inside the function",
                    )


@register
class FloatTimeEqRule(Rule):
    """Exact float equality on timestamps is representation-fragile."""

    id = "RPR105"
    slug = "float-time-eq"
    rationale = (
        "== / != on float simulation timestamps depends on bit-exact "
        "arithmetic history; compare with a tolerance or ordering instead "
        "(suppress where both sides are copies of the same stored value)"
    )
    default_scopes = None

    #: calls whose result is integral, not a float timestamp
    _INT_FUNCS = frozenset({"len", "int", "round", "id", "hash", "ord"})

    @classmethod
    def _time_like(cls, node: ast.expr) -> bool:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in cls._INT_FUNCS
        ):
            return False
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None and _TIME_NAME.search(name):
                return True
        return False

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag exact float equality on time-like operands."""
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x is None`-style constant comparisons are not float math
                if any(isinstance(o, ast.Constant) and o.value is None
                       for o in (left, right)):
                    continue
                if self._time_like(left) or self._time_like(right):
                    yield Finding(
                        info.path, node.lineno, node.col_offset,
                        "exact ==/!= on a simulation timestamp; use ordering "
                        "or math.isclose, or suppress if both sides are "
                        "copies of one stored value",
                    )
                    break


@register
class BareExceptRule(Rule):
    """Bare/swallowed exceptions hide engine-loop corruption."""

    id = "RPR106"
    slug = "bare-except"
    rationale = (
        "`except:` and `except Exception: pass` silently absorb invariant "
        "violations mid-simulation, turning crashes into corrupt results"
    )
    default_scopes = None

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag bare/overbroad except handlers that swallow errors."""
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Finding(
                    info.path, node.lineno, node.col_offset,
                    "bare `except:` catches SystemExit/KeyboardInterrupt too; "
                    "name the exception types",
                )
                continue
            broad = isinstance(node.type, ast.Name) and node.type.id in (
                "Exception", "BaseException",
            )
            swallowed = all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is Ellipsis)
                for stmt in node.body
            )
            if broad and swallowed:
                yield Finding(
                    info.path, node.lineno, node.col_offset,
                    "broad exception swallowed with `pass`; at minimum log "
                    "or re-raise so simulation corruption cannot go unseen",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
                "intersection", "union", "difference",
                "symmetric_difference"):
            return True
    return False


@register
class FloatAccumOrderRule(Rule):
    """Order-sensitive float accumulation over unordered sets."""

    id = "RPR107"
    slug = "float-accum-order"
    rationale = (
        "Summing floats while iterating a set depends on hash order, so "
        "results are not bit-identical across runs or after vectorization; "
        "accumulate over a sorted or insertion-ordered container."
    )
    default_scopes = None

    _ACCUM_OPS = (ast.Add, ast.Sub, ast.Mult)

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag ``+=``-style accumulation and ``sum()`` over set iteration."""
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and _is_set_expr(node.iter):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.AugAssign) \
                            and isinstance(sub.op, self._ACCUM_OPS):
                        yield Finding(
                            info.path, sub.lineno, sub.col_offset,
                            "float accumulation over unordered set "
                            "iteration",
                        )
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "sum" and node.args
                  and isinstance(node.args[0],
                                 (ast.GeneratorExp, ast.ListComp))
                  and node.args[0].generators
                  and _is_set_expr(node.args[0].generators[0].iter)):
                yield Finding(
                    info.path, node.lineno, node.col_offset,
                    "sum() over unordered set iteration",
                )
