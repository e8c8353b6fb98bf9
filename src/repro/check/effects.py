"""Interprocedural effect inference over the project call graph.

The RPR6xx determinism-taint rules (:mod:`repro.check.taint`) need to
know, for every function in the project, *what it touches besides its
arguments*: which random-number generators it consumes, whether it
reads a clock or the process environment, whether it performs I/O, and
whether it mutates module-global state.  This module infers those
**effect signatures** statically:

1. **Primitive effects** are extracted per function with a pure
   :mod:`ast` walk, resolved through the per-module import tables of
   the :class:`~repro.check.project.ProjectModel` (so ``np.random.
   default_rng`` and ``from numpy.random import default_rng`` classify
   identically).  RNG consumption is attributed to a concrete
   generator: a seeded instance attribute (``attr:<Class>.<name>``),
   an injected parameter (``param:<name>``), a locally seeded
   generator, or the ambient global state (``global-numpy`` /
   ``global-stdlib`` / an ``unseeded-construct``).
2. **Summaries** propagate bottom-up over the static call graph of
   :mod:`repro.check.callgraph` with fixpoint iteration, so recursion and
   mutually recursive cycles converge (the effect domain is a finite
   powerset; union is monotone).  ``functools.partial(f, ...)`` adds an
   edge to ``f`` — the one higher-order pattern the sweep runner uses.

Every effect keeps its *origin* (the function containing the primitive
effect, with file/line), so a rule can report "ambient RNG in X is
reachable from entry Y" at the line that needs fixing.

Like the rest of the static-analysis stack this is pure stdlib: the
analyzed code is never imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
    index_functions,
)
from repro.check.project import ModuleInfo, ProjectModel
from repro.check.rules import ALLOWED_NP_RANDOM, GLOBAL_STDLIB_RANDOM

#: schema tag of the ``repro check --effects-report`` document
EFFECTS_REPORT_SCHEMA = "repro.effects/v1"

# -- effect kinds --------------------------------------------------------------

KIND_RNG = "rng"
KIND_CLOCK = "clock"
KIND_ENV = "env"
KIND_IO = "io"
KIND_MUTATES = "mutates-global"

#: rng details that mean *ambient* randomness (not derived from a seed)
AMBIENT_RNG_DETAILS = frozenset({
    "global-numpy", "global-stdlib", "unseeded-construct",
})

#: clock details that read the wall clock (leak the date into results);
#: monotonic counters (``perf_counter``/``monotonic``) are excluded —
#: they can only measure durations
WALL_CLOCK_DETAILS = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: every clock call the extractor recognises
_CLOCK_CALLS = WALL_CLOCK_DETAILS | frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
})

#: numpy constructors creating a *new* generator; unseeded calls are an
#: ambient-randomness effect, seeded calls are pure
_RNG_CTORS = frozenset({
    "numpy.random.default_rng", "numpy.random.RandomState",
    "random.Random",
})

#: os-level calls with filesystem side effects
_OS_IO_CALLS = frozenset({
    "os.replace", "os.fsync", "os.remove", "os.rename", "os.unlink",
    "os.mkdir", "os.makedirs", "os.rmdir",
})

#: method names on Path-like receivers that perform I/O
_PATH_IO_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: ``os.environ`` methods that mutate the environment
_ENV_WRITE_ATTRS = frozenset({"setdefault", "pop", "update", "clear"})

#: synchronization-primitive constructors that cannot cross a
#: ``multiprocessing`` fork/pickle boundary
LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore", "threading.Event",
    "threading.Barrier", "multiprocessing.Lock", "multiprocessing.RLock",
    "multiprocessing.Condition", "multiprocessing.Semaphore",
    "multiprocessing.Event",
})


@dataclass(frozen=True)
class Effect:
    """One atomic effect, pinned to the function it originates in."""

    kind: str     #: ``rng`` | ``clock`` | ``env`` | ``io`` | ``mutates-global``
    detail: str   #: which generator / clock / variable, e.g. ``time.time``
    origin: str   #: qualname of the function with the primitive effect
    path: str
    line: int
    col: int

    def sort_key(self) -> tuple:
        """Deterministic ordering for reports and findings."""
        return (self.kind, self.detail, self.origin, self.line, self.col)


# -- rng attribute discovery ---------------------------------------------------

def _dotted_of(project: ProjectModel, info: ModuleInfo,
               node: ast.expr) -> str | None:
    """Import-resolved dotted name of a ``Name``/``Attribute`` chain."""
    return project.qualify(info, node)


def _ctor_is_seeded(call: ast.Call) -> bool:
    """Whether a generator constructor call passes an explicit seed."""
    args = [a for a in call.args if not isinstance(a, ast.Starred)]
    if args and not (isinstance(args[0], ast.Constant) and args[0].value is None):
        return True
    for kw in call.keywords:
        if kw.arg == "seed" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None):
            return True
    return False


def _is_generator_annotation(annotation: ast.expr | None) -> bool:
    """Whether a parameter annotation names ``numpy.random.Generator``."""
    if annotation is None:
        return False
    text = ast.unparse(annotation) if hasattr(ast, "unparse") else ""
    return "Generator" in text


def _rng_param_names(fn: ast.AST) -> set[str]:
    """Parameters holding an injected generator (by name or annotation)."""
    names: set[str] = set()
    args = fn.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg == "rng" or arg.arg.endswith("_rng") \
                or _is_generator_annotation(arg.annotation):
            names.add(arg.arg)
    return names


def collect_rng_attrs(project: ProjectModel) -> dict[str, frozenset[str]]:
    """Instance attributes holding a generator, per fully-qualified class.

    An attribute counts when any method assigns it from a generator
    constructor (``self._rng = np.random.default_rng(...)``) or from an
    injected generator parameter (``self.rng = rng``).  Attributes are
    inherited down the class hierarchy, so a subclass method consuming
    a base-class generator still resolves it.
    """
    own: dict[str, set[str]] = {}
    for info, cls in project.iter_classes():
        qual = f"{info.name}.{cls.name}"
        attrs: set[str] = set()
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _rng_param_names(item)
            for node in ast.walk(item):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    value = node.value
                    if isinstance(value, ast.Call):
                        dotted = _dotted_of(project, info, value.func)
                        if dotted in _RNG_CTORS \
                                or dotted == "numpy.random.Generator":
                            attrs.add(target.attr)
                    elif isinstance(value, ast.Name) and value.id in params:
                        attrs.add(target.attr)
        if attrs:
            own[qual] = attrs
    # push attributes down to subclasses (deepest inheritance wins by union)
    merged: dict[str, set[str]] = {q: set(a) for q, a in own.items()}
    for qual, attrs in own.items():
        for sub in project.subclasses_of(qual):
            merged.setdefault(sub, set()).update(attrs)
    return {q: frozenset(a) for q, a in merged.items()}


# -- primitive effect extraction -----------------------------------------------

def _local_rng_names(project: ProjectModel, info: ModuleInfo,
                     fn: ast.AST) -> tuple[set[str], set[str]]:
    """Local names bound to (seeded, unseeded) generator constructions."""
    seeded: set[str] = set()
    unseeded: set[str] = set()
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        dotted = _dotted_of(project, info, node.value.func)
        if dotted not in _RNG_CTORS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                (seeded if _ctor_is_seeded(node.value) else unseeded).add(
                    target.id)
    return seeded, unseeded


def _function_effects(project: ProjectModel, fi: FunctionInfo,
                      rng_attrs: dict[str, frozenset[str]]) -> set[Effect]:
    """The primitive (non-transitive) effects of one function."""
    info = fi.module
    effects: set[Effect] = set()
    own_class = f"{info.name}.{fi.cls}" if fi.cls is not None else None
    own_rng_attrs = rng_attrs.get(own_class, frozenset()) if own_class else frozenset()
    rng_params = _rng_param_names(fi.node)
    local_seeded, _local_unseeded = _local_rng_names(project, info, fi.node)
    global_names: set[str] = set()

    def emit(kind: str, detail: str, node: ast.AST) -> None:
        effects.add(Effect(kind, detail, fi.qualname, info.path,
                           getattr(node, "lineno", 0),
                           getattr(node, "col_offset", 0)))

    for node in ast.walk(fi.node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
            continue

        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                and node.id in global_names:
            emit(KIND_MUTATES, node.id, node)
            continue

        if isinstance(node, ast.Attribute):
            # consuming a generator held on self (any load advances or
            # exposes the stream; plain stores are re-seeding, not use)
            if (isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr in own_rng_attrs
                    and isinstance(node.ctx, ast.Load)):
                emit(KIND_RNG, f"attr:{own_class}.{node.attr}", node)
            elif isinstance(node.ctx, (ast.Store, ast.Del)):
                dotted = _dotted_of(project, info, node)
                if dotted is not None and "." in dotted \
                        and not dotted.startswith("self."):
                    head = dotted.split(".", 1)[0]
                    if head in info.imports:
                        emit(KIND_MUTATES, dotted, node)
            continue

        if isinstance(node, ast.Subscript):
            dotted = _dotted_of(project, info, node.value) \
                if isinstance(node.value, (ast.Name, ast.Attribute)) else None
            if dotted == "os.environ":
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    emit(KIND_ENV, "os.environ-write", node)
                else:
                    emit(KIND_ENV, "os.environ", node)
            continue

        if not isinstance(node, ast.Call):
            continue

        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open" \
                    and project.resolve_local(info, func.id) is None:
                emit(KIND_IO, "open", node)
            elif func.id == "print" \
                    and project.resolve_local(info, func.id) is None:
                emit(KIND_IO, "print", node)
            elif func.id in rng_params:
                emit(KIND_RNG, f"param:{func.id}", node)
            dotted = _dotted_of(project, info, func)
        else:
            dotted = _dotted_of(project, info, func)

        if dotted is not None:
            root, _, leaf = dotted.rpartition(".")
            if dotted in _RNG_CTORS:
                if not _ctor_is_seeded(node):
                    emit(KIND_RNG, "unseeded-construct", node)
            elif dotted.startswith("numpy.random.") \
                    and leaf not in ALLOWED_NP_RANDOM:
                emit(KIND_RNG, "global-numpy", node)
            elif root == "random" and leaf in GLOBAL_STDLIB_RANDOM:
                emit(KIND_RNG, "global-stdlib", node)
            elif dotted in _CLOCK_CALLS:
                emit(KIND_CLOCK, dotted, node)
            elif dotted == "os.getenv":
                emit(KIND_ENV, "os.getenv", node)
            elif dotted.startswith("os.environ."):
                if leaf in _ENV_WRITE_ATTRS:
                    emit(KIND_ENV, "os.environ-write", node)
                else:
                    emit(KIND_ENV, "os.environ", node)
            elif dotted.startswith("subprocess.") or dotted in _OS_IO_CALLS:
                emit(KIND_IO, dotted, node)
            elif dotted.startswith(("sys.stdout.", "sys.stderr.", "sys.stdin.")):
                emit(KIND_IO, dotted, node)

        # generator methods: x.normal(), self._rng.choice(), rng.integers()
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if receiver.id in rng_params:
                    emit(KIND_RNG, f"param:{receiver.id}", node)
                elif receiver.id in local_seeded:
                    emit(KIND_RNG, "local-seeded", node)
            if func.attr in _PATH_IO_ATTRS:
                emit(KIND_IO, f"Path.{func.attr}", node)
    return effects


# -- call-graph augmentation & propagation -------------------------------------

def _partial_edges(project: ProjectModel,
                   index: dict[str, FunctionInfo]) -> dict[str, set[str]]:
    """Extra edges for ``functools.partial(f, ...)`` references."""
    extra: dict[str, set[str]] = {}
    for qual, fi in index.items():
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            dotted = _dotted_of(project, fi.module, node.func)
            if dotted not in ("functools.partial", "functools.partialmethod"):
                continue
            target = node.args[0]
            resolved_qual: str | None = None
            if isinstance(target, ast.Name):
                resolved = project.resolve_local(fi.module, target.id)
                if resolved is not None and isinstance(
                        resolved[1], (ast.FunctionDef, ast.AsyncFunctionDef)):
                    resolved_qual = f"{resolved[0].name}.{resolved[1].name}"
            elif (isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self" and fi.cls is not None):
                candidate = f"{fi.module.name}.{fi.cls}.{target.attr}"
                if candidate in index:
                    resolved_qual = candidate
            if resolved_qual is not None and resolved_qual in index:
                extra.setdefault(qual, set()).add(resolved_qual)
    return extra


def _propagate(primitive: dict[str, set[Effect]],
               edges: dict[str, tuple[str, ...]]) -> dict[str, frozenset[Effect]]:
    """Bottom-up fixpoint: a function has its callees' effects too."""
    summary: dict[str, set[Effect]] = {
        qual: set(effs) for qual, effs in primitive.items()
    }
    order = sorted(edges)
    changed = True
    while changed:
        changed = False
        for qual in order:
            current = summary.setdefault(qual, set())
            before = len(current)
            for callee in edges.get(qual, ()):
                callee_effects = summary.get(callee)
                if callee_effects:
                    current |= callee_effects
            if len(current) != before:
                changed = True
    return {qual: frozenset(effs) for qual, effs in summary.items()}


@dataclass(frozen=True)
class EffectModel:
    """The computed effect signatures of one project."""

    index: dict[str, FunctionInfo]
    graph: CallGraph
    edges: dict[str, tuple[str, ...]]          #: call edges incl. partial()
    rng_attrs: dict[str, frozenset[str]]
    primitive: dict[str, tuple[Effect, ...]]
    summary: dict[str, tuple[Effect, ...]]

    def effects_of(self, qualname: str) -> tuple[Effect, ...]:
        """Transitive effect signature of ``qualname`` (empty if pure)."""
        return self.summary.get(qualname, ())

    def reachable(self, qualname: str) -> set[str]:
        """Functions reachable from ``qualname`` over the call graph."""
        seen: set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen


def compute_effects(project: ProjectModel) -> EffectModel:
    """Infer every function's effect signature for one project."""
    index = index_functions(project)
    graph = build_call_graph(project, index)
    extra = _partial_edges(project, index)
    edges = {
        qual: tuple(sorted(set(graph.edges.get(qual, ()))
                           | extra.get(qual, set())))
        for qual in index
    }
    rng_attrs = collect_rng_attrs(project)
    primitive = {
        qual: _function_effects(project, index[qual], rng_attrs)
        for qual in sorted(index)
    }
    summary = _propagate(primitive, edges)
    return EffectModel(
        index=index,
        graph=graph,
        edges=edges,
        rng_attrs=rng_attrs,
        primitive={q: tuple(sorted(e, key=Effect.sort_key))
                   for q, e in primitive.items()},
        summary={q: tuple(sorted(e, key=Effect.sort_key))
                 for q, e in summary.items()},
    )


_CACHE_ATTR = "_effects_cache"


def effects_for_project(project: ProjectModel) -> EffectModel:
    """Compute (and cache on the project) the effect model.

    Effect inference is purely structural — it needs no input besides
    the tree — so it works on any project.
    """
    cached = getattr(project, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    model = compute_effects(project)
    setattr(project, _CACHE_ATTR, model)
    return model


# -- machine-readable report ---------------------------------------------------

def effects_report(model: EffectModel) -> dict:
    """The ``repro check --effects-report`` JSON document.

    Lists every function with a non-empty transitive effect signature;
    pure functions are summarised by count only, keeping the artifact
    small enough to diff between CI runs.
    """
    functions = {}
    for qual in sorted(model.summary):
        effects = model.summary[qual]
        if not effects:
            continue
        functions[qual] = [
            {"kind": e.kind, "detail": e.detail, "origin": e.origin,
             "path": e.path, "line": e.line}
            for e in effects
        ]
    return {
        "schema": EFFECTS_REPORT_SCHEMA,
        "functions_total": len(model.index),
        "functions_pure": len(model.index) - len(functions),
        "rng_attributes": {
            cls: sorted(attrs) for cls, attrs in sorted(model.rng_attrs.items())
        },
        "functions": functions,
    }
