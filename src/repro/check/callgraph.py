"""Static call graph over the project model.

The interprocedural analyses (:mod:`repro.check.effects` and the
RPR6xx rules of :mod:`repro.check.taint`) ask what a function can
reach.  This module answers with a **static call graph** built from the
:class:`~repro.check.project.ProjectModel`: direct calls resolve
through the import-alias tables, ``self.m()`` resolves within the class
hierarchy, and remaining attribute calls fall back to bounded name
matching (capped fan-out, with a blocklist of ubiquitous
container/stdlib method names).

Like the rest of the static-analysis stack this is pure stdlib: the
analyzed code is never imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.project import ModuleInfo, ProjectModel

#: an ambiguous method name matching more candidates than this
#: resolves to nothing
MAX_FANOUT = 8

#: the class whose ``schedule`` overrides are the decision code
SCHEDULER_BASE = "repro.schedulers.base.BaseScheduler"

#: ubiquitous method names never resolved by bare name matching —
#: they overwhelmingly belong to builtin containers / numpy / stdlib
COMMON_METHOD_NAMES = frozenset({
    "add", "all", "any", "append", "appendleft", "astype", "clear",
    "close", "copy", "count", "decode", "discard", "encode", "endswith",
    "exists", "extend", "fill", "flush", "format", "get", "group",
    "index", "insert", "is_dir", "is_file", "items", "join", "keys",
    "lower", "lstrip", "match", "max", "mean", "min", "mkdir", "open",
    "pop", "popleft", "read", "readline", "readlines", "replace",
    "reshape", "rsplit", "rstrip", "seek", "setdefault", "sort",
    "split", "splitlines", "startswith", "strip", "sum", "tell",
    "tolist", "update", "upper", "values", "write", "writelines",
})


# -- function index & call graph ---------------------------------------------

@dataclass(frozen=True)
class FunctionInfo:
    """One indexed function or method."""

    qualname: str               #: e.g. ``repro.sim.engine.Engine.run``
    module: ModuleInfo
    cls: str | None             #: owning class name, None for functions
    node: ast.AST               #: the (async) function definition


def index_functions(project: ProjectModel) -> dict[str, FunctionInfo]:
    """Every module-level function and direct method in the project."""
    index: dict[str, FunctionInfo] = {}
    for info in project.modules.values():
        for name, node in info.functions.items():
            index[f"{info.name}.{name}"] = FunctionInfo(
                f"{info.name}.{name}", info, None, node)
        for cls_name, cls_node in info.classes.items():
            for item in cls_node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{info.name}.{cls_name}.{item.name}"
                    index[qual] = FunctionInfo(qual, info, cls_name, item)
    return index


@dataclass(frozen=True)
class CallGraph:
    """Static call edges plus class-instantiation sites per function."""

    edges: dict[str, tuple[str, ...]]
    instantiated: dict[str, tuple[str, ...]]


def _class_qualname(info: ModuleInfo, node: ast.ClassDef) -> str:
    return f"{info.name}.{node.name}"


def build_call_graph(project: ProjectModel,
                     index: dict[str, FunctionInfo]) -> CallGraph:
    """Resolve the calls made by every indexed function."""
    methods_by_name: dict[str, list[str]] = {}
    for qual, fi in index.items():
        if fi.cls is not None:
            methods_by_name.setdefault(fi.node.name, []).append(qual)
    for candidates in methods_by_name.values():
        candidates.sort()

    edges: dict[str, tuple[str, ...]] = {}
    instantiated: dict[str, tuple[str, ...]] = {}
    for qual in sorted(index):
        fi = index[qual]
        targets: set[str] = set()
        classes: set[str] = set()
        for node in ast.walk(fi.node):
            if isinstance(node, ast.Call):
                _resolve_call(project, index, methods_by_name, fi,
                              node.func, targets, classes)
        edges[qual] = tuple(sorted(targets))
        instantiated[qual] = tuple(sorted(classes))
    return CallGraph(edges=edges, instantiated=instantiated)


def _add_resolved(index: dict[str, FunctionInfo], info: ModuleInfo,
                  node: ast.AST, targets: set[str], classes: set[str]) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qual = f"{info.name}.{node.name}"
        if qual in index:
            targets.add(qual)
            return True
    elif isinstance(node, ast.ClassDef):
        cls_qual = _class_qualname(info, node)
        classes.add(cls_qual)
        init_qual = f"{cls_qual}.__init__"
        if init_qual in index:
            targets.add(init_qual)
        return True
    return False


def _resolve_call(project: ProjectModel, index: dict[str, FunctionInfo],
                  methods_by_name: dict[str, list[str]], fi: FunctionInfo,
                  func: ast.expr, targets: set[str], classes: set[str]) -> None:
    if isinstance(func, ast.Name):
        resolved = project.resolve_local(fi.module, func.id)
        if resolved is not None:
            _add_resolved(index, resolved[0], resolved[1], targets, classes)
        return
    if not isinstance(func, ast.Attribute):
        return
    # self.m(): same class first, then overrides in subclasses
    if (isinstance(func.value, ast.Name) and func.value.id == "self"
            and fi.cls is not None):
        own_class = f"{fi.module.name}.{fi.cls}"
        found = False
        for cls_qual in [own_class] + project.subclasses_of(own_class):
            candidate = f"{cls_qual}.{func.attr}"
            if candidate in index:
                targets.add(candidate)
                found = True
        if found:
            return
    # fully-qualified attribute chain (module.func, imported class, ...)
    dotted = project.qualify(fi.module, func)
    if dotted is not None:
        resolved = project.resolve(dotted)
        if resolved is not None and _add_resolved(index, resolved[0],
                                                  resolved[1], targets, classes):
            return
    # bounded name matching for everything else (x.method())
    if func.attr in COMMON_METHOD_NAMES or func.attr.startswith("__"):
        return
    candidates = methods_by_name.get(func.attr, ())
    if 0 < len(candidates) <= MAX_FANOUT:
        targets.update(candidates)


# -- scheduler roots ---------------------------------------------------------

def schedule_roots(project: ProjectModel,
                   index: dict[str, FunctionInfo]) -> list[str]:
    """The ``schedule`` method of every scheduler class, sorted.

    ``BaseScheduler`` itself plus each transitive subclass that defines
    its own ``schedule`` — the decision code the RPR6xx rules root at.
    """
    anchored = []
    for cls_qual in [SCHEDULER_BASE] + project.subclasses_of(SCHEDULER_BASE):
        candidate = f"{cls_qual}.schedule"
        if candidate in index:
            anchored.append(candidate)
    return sorted(anchored)
