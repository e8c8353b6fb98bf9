"""Whole-program project model for the static analyzer.

:class:`ProjectModel` parses every module under a package root exactly
once (pure :mod:`ast`; the analyzed code is never imported) and layers
cross-module structure on top:

* a **module table** keyed by dotted name (``repro.workload.stats``),
* per-module **import alias tables** resolving ``from x import y as z``
  (absolute and relative) back to their defining module,
* a project-wide **symbol resolver** that follows re-export chains,
* the **class hierarchy** with fully-qualified base resolution, so a
  rule can ask for every transitive subclass of
  ``repro.schedulers.base.BaseScheduler``.

Rules (:class:`repro.check.rules.Rule`) receive one :class:`ModuleInfo`
per file or the whole :class:`ProjectModel`; the driver in
:mod:`repro.check.lint` filters their findings through each module's
``# repro: noqa`` :class:`Suppressions` table.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?\s*(?:\[(?P<rules>[^\]]*)\])?",
)


class Suppressions:
    """Per-file suppression table parsed from ``# repro: noqa`` comments."""

    def __init__(self, source: str) -> None:
        self.file_all = False
        self.file_rules: set[str] = set()
        self.line_all: set[int] = set()
        self.line_rules: dict[int, set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = _NOQA.search(text)
            if m is None:
                continue
            rules = {
                r.strip() for r in (m.group("rules") or "").split(",") if r.strip()
            }
            if m.group("file"):
                if rules:
                    self.file_rules |= rules
                else:
                    self.file_all = True
            elif rules:
                self.line_rules.setdefault(lineno, set()).update(rules)
            else:
                self.line_all.add(lineno)

    def suppressed(self, line: int, *names: str) -> bool:
        """Is a finding on ``line`` suppressed under any of ``names``?

        ``names`` are the slugs/ids a suppression may be keyed by —
        normally one rule's ``(slug, id)`` pair.
        """
        keys = set(names)
        if self.file_all or (self.file_rules & keys):
            return True
        if line in self.line_all:
            return True
        return bool(self.line_rules.get(line, set()) & keys)


@dataclass
class ModuleInfo:
    """One parsed module plus its locally-resolvable namespace."""

    name: str                 #: dotted module name, e.g. ``repro.sim.engine``
    path: str                 #: posix path the module was read from
    source: str
    tree: ast.Module
    #: local alias -> dotted origin: ``"repro.sim.job"`` for a module
    #: import, ``"repro.sim.job.Job"`` for a from-import
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level simple assignments (name -> value expression)
    constants: dict[str, ast.expr] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)

    @classmethod
    def parse(cls, name: str, path: str, source: str) -> "ModuleInfo":
        """Parse ``source`` into a module record (raises ``SyntaxError``)."""
        info = cls(name=name, path=path, source=source,
                   tree=ast.parse(source, filename=path))
        _collect_namespace(info)
        return info

    @property
    def package(self) -> str:
        """Dotted package containing this module."""
        if self.path.endswith("__init__.py"):
            return self.name
        return self.name.rpartition(".")[0]

    @cached_property
    def suppressions(self) -> Suppressions:
        """This module's ``# repro: noqa`` table (scanned on first use)."""
        return Suppressions(self.source)


def _collect_namespace(info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    info.imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = info.package.split(".") if info.package else []
                if node.level > 1:
                    parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                info.imports[bound] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    info.constants[target.id] = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                info.constants[node.target.id] = node.value
        elif isinstance(node, ast.FunctionDef):
            info.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = node


class ProjectModel:
    """Cross-module view of one parsed package tree."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {m.name: m for m in modules}
        self._class_index: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
        self._subclass_edges: dict[str, set[str]] = {}
        for info in self.modules.values():
            for cls_name, node in info.classes.items():
                self._class_index[f"{info.name}.{cls_name}"] = (info, node)
        for qualname, (info, node) in self._class_index.items():
            for base in node.bases:
                resolved = self._resolve_base(info, base)
                if resolved is not None:
                    self._subclass_edges.setdefault(resolved, set()).add(qualname)

    # -- construction ------------------------------------------------------
    @classmethod
    def load(cls, root: str | Path, package: str | None = None) -> "ProjectModel":
        """Parse every ``.py`` file under the package directory ``root``.

        ``package`` overrides the dotted name of the root package
        (default: the directory's own name).  Files that fail to parse
        are skipped here — the per-file linter already reports them.
        """
        root = Path(root)
        package = package or root.name
        modules = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            parts = [package] + list(rel.parts[:-1])
            if rel.name != "__init__.py":
                parts.append(rel.stem)
            try:
                modules.append(ModuleInfo.parse(
                    ".".join(parts), path.as_posix(),
                    path.read_text(encoding="utf-8")))
            except (SyntaxError, UnicodeDecodeError):
                continue
        return cls(modules)

    # -- symbol resolution -------------------------------------------------
    def module(self, dotted: str) -> ModuleInfo | None:
        """The module with dotted name ``dotted`` (None if not in project)."""
        return self.modules.get(dotted)

    def resolve(
        self, dotted: str, _depth: int = 0
    ) -> tuple[ModuleInfo, ast.AST] | None:
        """Resolve a fully-dotted symbol to its defining module and node.

        Follows re-export chains (``from x import y`` in an
        ``__init__``) up to a small depth; returns ``None`` for symbols
        defined outside the project (numpy, stdlib, …).
        """
        if _depth > 8:
            return None
        module_name, _, symbol = dotted.rpartition(".")
        while module_name:
            info = self.modules.get(module_name)
            if info is not None:
                if symbol in info.classes:
                    return info, info.classes[symbol]
                if symbol in info.functions:
                    return info, info.functions[symbol]
                if symbol in info.constants:
                    return info, info.constants[symbol]
                if symbol in info.imports:
                    return self.resolve(info.imports[symbol], _depth + 1)
                return None
            # peel one more trailing component (nested attribute access)
            module_name, _, symbol = module_name.rpartition(".")
        return None

    def resolve_local(
        self, info: ModuleInfo, name: str
    ) -> tuple[ModuleInfo, ast.AST] | None:
        """Resolve a bare name as seen from inside ``info``."""
        if name in info.classes:
            return info, info.classes[name]
        if name in info.functions:
            return info, info.functions[name]
        if name in info.constants:
            return info, info.constants[name]
        if name in info.imports:
            return self.resolve(info.imports[name])
        return None

    def qualify(self, info: ModuleInfo, node: ast.expr) -> str | None:
        """Dotted project name for a ``Name``/``Attribute`` expression."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = parts[0]
        if head in info.imports:
            return ".".join([info.imports[head]] + parts[1:])
        if len(parts) == 1 and (
            head in info.classes or head in info.functions or head in info.constants
        ):
            return f"{info.name}.{head}"
        return None

    def _resolve_base(self, info: ModuleInfo, base: ast.expr) -> str | None:
        dotted = self.qualify(info, base)
        if dotted is None:
            return None
        resolved = self.resolve(dotted)
        if resolved is None:
            return dotted
        target_info, node = resolved
        if isinstance(node, ast.ClassDef):
            return f"{target_info.name}.{node.name}"
        return dotted

    # -- class hierarchy ---------------------------------------------------
    def class_def(self, qualname: str) -> tuple[ModuleInfo, ast.ClassDef] | None:
        """Look up a fully-qualified class definition."""
        return self._class_index.get(qualname)

    def subclasses_of(self, qualname: str) -> list[str]:
        """All transitive subclasses of ``qualname``, sorted."""
        seen: set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop()
            for child in self._subclass_edges.get(current, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return sorted(seen)

    def iter_classes(self) -> Iterator[tuple[ModuleInfo, ast.ClassDef]]:
        """Every class definition in the project."""
        for info in self.modules.values():
            for node in info.classes.values():
                yield info, node
