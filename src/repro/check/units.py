"""RPR2xx — units-of-measure checking for time/node quantities.

Python cannot type-check that ``Job.walltime`` (seconds) is never added
to ``core_hours`` (node-hours); the DRAS reproduction carries every
simulation quantity in SWF's native **seconds** and converts at the
report edge, so a silent seconds↔hours mix-up corrupts results without
crashing.  This module infers an abstract *dimension* for expressions
and flags mixed-dimension arithmetic:

* dimensions — ``seconds``, ``hours``, ``days``, ``nodes``,
  ``node_seconds``, ``node_hours``, plus ``scalar`` (dimensionless
  literals, which combine freely) and *unknown* (never reported);
* sources of dimension facts — naming conventions (``*_seconds``,
  ``*_hours``, ``walltime``, ``core_hours``, ``num_nodes``, …), explicit
  ``# repro: unit[seconds]`` line annotations, and the canonical
  conversion constants of :mod:`repro.workload.units` (including their
  literal values 3600/86400), which convert dimensions instead of
  mixing them: ``seconds / SECONDS_PER_HOUR`` *is* ``hours``;
* flow sensitivity — an assignment overrides name inference for the
  rest of the scope, so ``runtimes = raw / _HOUR`` does not poison
  later uses of ``runtimes``;
* whole-program resolution — imported constants are resolved through
  the :class:`~repro.check.project.ProjectModel`, so an aliased
  ``from repro.workload.units import SECONDS_PER_HOUR as _HOUR`` still
  counts as a conversion.

Rules
-----
* **RPR201** ``unit-mix`` — ``+``/``-``/comparison between two
  expressions of different known dimensions (``walltime + core_hours``).
* **RPR202** ``unit-assign`` — assigning (or passing as a keyword
  argument) an expression of one known dimension to a target whose name
  declares another (``wait_hours = total_wait_seconds``).
* **RPR203** ``unit-constant`` — redefining a canonical unit constant
  (``SECONDS_PER_HOUR = 3600``) outside ``repro/workload/units.py``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.check.project import ModuleInfo, ProjectModel
from repro.check.rules import Finding, Rule, register

#: the only module allowed to define the canonical conversion constants
UNITS_MODULE_SUFFIX = "workload/units.py"

#: canonical conversion-constant names (RPR203 protects these)
UNIT_CONSTANT_NAMES = frozenset({
    "SECONDS_PER_MINUTE", "MINUTES_PER_HOUR", "SECONDS_PER_HOUR",
    "HOURS_PER_DAY", "SECONDS_PER_DAY",
})

#: names that denote a seconds-per-X conversion factor, by kind
_CONV_NAMES = {
    "SECONDS_PER_HOUR": "s_per_h", "_HOUR": "s_per_h", "HOUR": "s_per_h",
    "SECONDS_PER_DAY": "s_per_d", "_DAY": "s_per_d", "DAY": "s_per_d",
    "SECONDS_PER_MINUTE": "s_per_min",
}
_CONV_LITERALS = {3600: "s_per_h", 3600.0: "s_per_h",
                  86400: "s_per_d", 86400.0: "s_per_d"}

#: dividing dimension X by a conversion factor of this kind yields …
_DIV_CONV = {
    ("seconds", "s_per_h"): "hours",
    ("node_seconds", "s_per_h"): "node_hours",
    ("seconds", "s_per_d"): "days",
    ("seconds", "s_per_min"): None,  # minutes: not in the lattice
}
#: multiplying dimension X by a conversion factor of this kind yields …
_MUL_CONV = {
    ("hours", "s_per_h"): "seconds",
    ("node_hours", "s_per_h"): "node_seconds",
    ("scalar", "s_per_h"): "seconds",
    ("days", "s_per_d"): "seconds",
    ("scalar", "s_per_d"): "seconds",
    ("scalar", "s_per_min"): "seconds",
}

_ANNOTATION = re.compile(r"#\s*repro:\s*unit\[(?P<dim>[a-z_]+)\]")

#: dimensions that participate in mix checks ("real" dimensions)
REAL_DIMS = frozenset({
    "seconds", "hours", "days", "nodes", "node_seconds", "node_hours",
})

_SPECIAL_NAMES = {
    "core_hours": "node_hours",
    "node_hours": "node_hours",
    "node_seconds": "node_seconds",
    "num_nodes": "nodes",
    "extra_nodes": "nodes",
    "walltime": "seconds", "walltimes": "seconds",
    "runtime": "seconds", "runtimes": "seconds",
    "makespan": "seconds",
    "now": "seconds",
}

_NAME_PATTERNS: tuple[tuple[re.Pattern[str], str], ...] = (
    (re.compile(r"_node_seconds$"), "node_seconds"),
    (re.compile(r"_(core|node)_hours?$"), "node_hours"),
    (re.compile(r"_seconds$|_secs?$|(?<!_per)_s$"), "seconds"),
    (re.compile(r"_(walltime|runtime|time)s?$"), "seconds"),
    (re.compile(r"_hours?$"), "hours"),
    (re.compile(r"_days?$"), "days"),
    (re.compile(r"_nodes$"), "nodes"),
)

#: builtins whose result carries the dimension of their first argument
_DIM_PRESERVING = frozenset({"float", "int", "abs", "round", "min", "max", "sum"})
#: builtins whose result is a dimensionless count/index
_SCALAR_FUNCS = frozenset({"len", "id", "hash", "ord", "bool"})


def name_dim(name: str) -> str | None:
    """Dimension implied by an identifier name (None when undeclared)."""
    n = name.lower()
    if "_per_" in n or name in _CONV_NAMES or name in UNIT_CONSTANT_NAMES:
        return None
    if n in _SPECIAL_NAMES:
        return _SPECIAL_NAMES[n]
    for pattern, dim in _NAME_PATTERNS:
        if pattern.search(n):
            return dim
    return None


def _line_annotations(source: str) -> dict[int, str]:
    """``# repro: unit[dim]`` annotations keyed by line number."""
    out: dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _ANNOTATION.search(text)
        if m is not None:
            out[lineno] = m.group("dim")
    return out


class _UnitChecker:
    """Infers dimensions over one module, recording mix findings."""

    def __init__(self, project: ProjectModel, info: ModuleInfo) -> None:
        self.project = project
        self.info = info
        self.annotations = _line_annotations(info.source)
        self.findings: list[Finding] = []

    # -- conversion factors ------------------------------------------------
    def conv_kind(self, node: ast.expr) -> str | None:
        """Conversion-factor kind of ``node`` (None when not a factor)."""
        if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
            return _CONV_LITERALS.get(node.value)  # type: ignore[arg-type]
        symbol: str | None = None
        if isinstance(node, ast.Name):
            symbol = node.id
        elif isinstance(node, ast.Attribute):
            symbol = node.attr
        if symbol is None:
            return None
        if symbol in _CONV_NAMES:
            return _CONV_NAMES[symbol]
        if isinstance(node, ast.Name):
            # an alias like `from ...units import SECONDS_PER_HOUR as K`
            origin = self.info.imports.get(symbol)
            if origin is not None:
                terminal = origin.rpartition(".")[2]
                if terminal in _CONV_NAMES:
                    return _CONV_NAMES[terminal]
                resolved = self.project.resolve(origin)
                if resolved is not None:
                    _, target = resolved
                    if isinstance(target, ast.Constant):
                        return _CONV_LITERALS.get(target.value)
        return None

    # -- reporting ---------------------------------------------------------
    def _report(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            self.info.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), message,
        ))

    def _mix(self, node: ast.AST, what: str, left: str, right: str) -> None:
        self._report(node, f"{what} mixes dimensions {left} and {right}; "
                           "convert explicitly (see repro.workload.units)")

    # -- expression dimension ----------------------------------------------
    def dim(self, node: ast.expr | None, env: dict[str, str | None]) -> str | None:
        """Abstract dimension of ``node``; records findings as it walks."""
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                return None
            return "scalar"
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if self.conv_kind(node) is not None:
                return "seconds"  # a standalone factor is a seconds quantity
            inferred = name_dim(node.id)
            if inferred is not None:
                return inferred
            return self._module_constant_dim(node.id)
        if isinstance(node, ast.Attribute):
            self.dim(node.value, env)
            if self.conv_kind(node) is not None:
                return "seconds"
            return name_dim(node.attr)
        if isinstance(node, ast.BinOp):
            return self._binop_dim(node, env)
        if isinstance(node, ast.UnaryOp):
            return self.dim(node.operand, env)
        if isinstance(node, ast.Compare):
            dims = [self.dim(node.left, env)]
            dims += [self.dim(c, env) for c in node.comparators]
            for left, right in zip(dims, dims[1:]):
                if left in REAL_DIMS and right in REAL_DIMS and left != right:
                    self._mix(node, "comparison", left, right)
                    break
            return "scalar"
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.dim(value, env)
            return None
        if isinstance(node, ast.Call):
            return self._call_dim(node, env)
        if isinstance(node, ast.Subscript):
            result = self.dim(node.value, env)
            self.dim(node.slice, env)
            return result
        if isinstance(node, ast.IfExp):
            self.dim(node.test, env)
            body = self.dim(node.body, env)
            orelse = self.dim(node.orelse, env)
            return body if body == orelse else None
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            dims = {self.dim(elt, env) for elt in node.elts}
            if len(dims) == 1:
                return dims.pop()
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.dim(key, env)
            for value in node.values:
                self.dim(value, env)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            inner = dict(env)
            for comp in node.generators:
                self.dim(comp.iter, env)
                for name in self._target_names(comp.target):
                    inner[name] = None
                for cond in comp.ifs:
                    self.dim(cond, inner)
            return self.dim(node.elt, inner)
        if isinstance(node, ast.DictComp):
            inner = dict(env)
            for comp in node.generators:
                self.dim(comp.iter, env)
                for name in self._target_names(comp.target):
                    inner[name] = None
                for cond in comp.ifs:
                    self.dim(cond, inner)
            self.dim(node.key, inner)
            self.dim(node.value, inner)
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.dim(value.value, env)
            return None
        if isinstance(node, ast.FormattedValue):
            self.dim(node.value, env)
            return None
        if isinstance(node, ast.Starred):
            return self.dim(node.value, env)
        if isinstance(node, ast.Lambda):
            inner = dict(env)
            for arg in node.args.args + node.args.kwonlyargs:
                inner[arg.arg] = name_dim(arg.arg)
            self.dim(node.body, inner)
            return None
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.dim(node.value, env)
        if isinstance(node, ast.Yield):
            return self.dim(node.value, env) if node.value else None
        if isinstance(node, ast.NamedExpr):
            result = self.dim(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = result
            return result
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.dim(part, env)
            return None
        return None

    def _module_constant_dim(self, name: str) -> str | None:
        resolved = self.project.resolve_local(self.info, name)
        if resolved is None:
            return None
        _, target = resolved
        if isinstance(target, ast.expr):
            return name_dim(name)
        return None

    def _binop_dim(self, node: ast.BinOp, env: dict[str, str | None]) -> str | None:
        left_conv = self.conv_kind(node.left)
        right_conv = self.conv_kind(node.right)
        # conversion-factor arithmetic never mixes dimensions
        if right_conv is not None:
            ldim = self.dim(node.left, env)
            if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                return _DIV_CONV.get((ldim, right_conv))
            if isinstance(node.op, ast.Mult):
                return _MUL_CONV.get((ldim, right_conv))
            if isinstance(node.op, ast.Mod):
                return ldim  # e.g. seconds % SECONDS_PER_DAY is still seconds
            self.dim(node.right, env)
            return None
        if left_conv is not None and isinstance(node.op, ast.Mult):
            rdim = self.dim(node.right, env)
            return _MUL_CONV.get((rdim, left_conv))
        ldim = self.dim(node.left, env)
        rdim = self.dim(node.right, env)
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if ldim in REAL_DIMS and rdim in REAL_DIMS:
                if ldim != rdim:
                    self._mix(node, "arithmetic", ldim, rdim)
                    return None
                return ldim
            if ldim in REAL_DIMS and rdim == "scalar":
                return ldim
            if rdim in REAL_DIMS and ldim == "scalar":
                return rdim
            if ldim == rdim == "scalar":
                return "scalar"
            return None
        if isinstance(op, ast.Mult):
            pairs = {ldim, rdim}
            if pairs == {"nodes", "seconds"}:
                return "node_seconds"
            if pairs == {"nodes", "hours"}:
                return "node_hours"
            if ldim == "scalar":
                return rdim
            if rdim == "scalar":
                return ldim
            return None
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            table = {
                ("node_seconds", "nodes"): "seconds",
                ("node_seconds", "seconds"): "nodes",
                ("node_hours", "nodes"): "hours",
                ("node_hours", "hours"): "nodes",
            }
            if ldim in REAL_DIMS and ldim == rdim:
                return "scalar"
            if (ldim, rdim) in table:
                return table[(ldim, rdim)]
            if rdim == "scalar":
                return ldim
            return None
        if isinstance(op, ast.Mod):
            if ldim in REAL_DIMS and (rdim == ldim or rdim == "scalar"):
                return ldim
            if ldim == rdim == "scalar":
                return "scalar"
            return None
        return None

    def _call_dim(self, node: ast.Call, env: dict[str, str | None]) -> str | None:
        arg_dims = [self.dim(arg, env) for arg in node.args]
        for kw in node.keywords:
            vdim = self.dim(kw.value, env)
            if kw.arg is None:
                continue
            kdim = name_dim(kw.arg)
            if kdim in REAL_DIMS and vdim in REAL_DIMS and kdim != vdim:
                self._report(kw.value, (
                    f"keyword argument {kw.arg!r} declares {kdim} but the "
                    f"value has dimension {vdim}; convert explicitly"
                ))
        self.dim(node.func, env)
        if isinstance(node.func, ast.Name):
            fn = node.func.id
            if fn in _SCALAR_FUNCS:
                return "scalar"
            if fn in _DIM_PRESERVING and arg_dims:
                known = [d for d in arg_dims if d in REAL_DIMS]
                if fn in ("min", "max") and len(known) > 1 and len(set(known)) > 1:
                    self._mix(node, f"{fn}() call", known[0], known[1])
                    return None
                return arg_dims[0]
        return None

    # -- statements --------------------------------------------------------
    @staticmethod
    def _target_names(target: ast.expr) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            out = []
            for elt in target.elts:
                out.extend(_UnitChecker._target_names(elt))
            return out
        return []

    def _target_dim(self, target: ast.expr, lineno: int) -> str | None:
        if lineno in self.annotations:
            return self.annotations[lineno]
        if isinstance(target, ast.Name):
            return name_dim(target.id)
        if isinstance(target, ast.Attribute):
            return name_dim(target.attr)
        return None

    def _check_assign(
        self,
        target: ast.expr,
        value_dim: str | None,
        env: dict[str, str | None],
        node: ast.AST,
    ) -> None:
        tdim = self._target_dim(target, getattr(node, "lineno", 1))
        if tdim in REAL_DIMS and value_dim in REAL_DIMS and tdim != value_dim:
            label = target.id if isinstance(target, ast.Name) else ast.dump(target)[:40]
            if isinstance(target, ast.Attribute):
                label = target.attr
            self._report(node, (
                f"assigning a {value_dim} expression to {label!r}, which is "
                f"named as {tdim}; convert explicitly"
            ))
        if isinstance(target, ast.Name):
            if value_dim is not None:
                env[target.id] = value_dim
            elif tdim is not None:
                env[target.id] = tdim
            else:
                env[target.id] = None

    def process_scope(self, stmts: list[ast.stmt], env: dict[str, str | None]) -> None:
        """Check a statement list under a (mutated in place) local env."""
        for stmt in stmts:
            self.process_stmt(stmt, env)

    def process_stmt(self, stmt: ast.stmt, env: dict[str, str | None]) -> None:
        """Dispatch one statement: evaluate expressions, track targets."""
        if isinstance(stmt, ast.Assign):
            vdim = self.dim(stmt.value, env)
            for target in stmt.targets:
                self._check_assign(target, vdim, env, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                vdim = self.dim(stmt.value, env)
                self._check_assign(stmt.target, vdim, env, stmt)
        elif isinstance(stmt, ast.AugAssign):
            vdim = self.dim(stmt.value, env)
            tdim = self._target_dim(stmt.target, stmt.lineno)
            if isinstance(stmt.target, ast.Name) and stmt.target.id in env:
                tdim = env[stmt.target.id] or tdim
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and tdim in REAL_DIMS \
                    and vdim in REAL_DIMS and tdim != vdim:
                self._mix(stmt, "augmented assignment", tdim, vdim)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner: dict[str, str | None] = {}
            args = stmt.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                inner[arg.arg] = name_dim(arg.arg)
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                self.dim(default, env)
            self.process_scope(stmt.body, inner)
        elif isinstance(stmt, ast.ClassDef):
            self.process_scope(stmt.body, {})
        elif isinstance(stmt, ast.For):
            self.dim(stmt.iter, env)
            for name in self._target_names(stmt.target):
                env[name] = None
            self.process_scope(stmt.body, env)
            self.process_scope(stmt.orelse, env)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.dim(stmt.test, env)
            self.process_scope(stmt.body, env)
            self.process_scope(stmt.orelse, env)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.dim(item.context_expr, env)
                if item.optional_vars is not None:
                    for name in self._target_names(item.optional_vars):
                        env[name] = None
            self.process_scope(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self.process_scope(stmt.body, env)
            for handler in stmt.handlers:
                self.process_scope(handler.body, env)
            self.process_scope(stmt.orelse, env)
            self.process_scope(stmt.finalbody, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.dim(stmt.value, env)
        elif isinstance(stmt, ast.Expr):
            self.dim(stmt.value, env)
        elif isinstance(stmt, ast.Assert):
            self.dim(stmt.test, env)
            if stmt.msg is not None:
                self.dim(stmt.msg, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.dim(stmt.exc, env)
        elif isinstance(stmt, ast.Delete):
            for name in [n for t in stmt.targets for n in self._target_names(t)]:
                env.pop(name, None)

    def run(self) -> list[Finding]:
        """Check the whole module and return its findings."""
        self.process_scope(self.info.tree.body, {})
        return self.findings


@register
class UnitMixRule(Rule):
    """Additive/comparison mixes between different inferred dimensions."""

    id = "RPR201"
    slug = "unit-mix"
    rationale = (
        "adding or comparing seconds with hours/nodes silently corrupts "
        "scheduling metrics; convert via repro.workload.units constants"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Run the dimension checker over every module, keeping mixes."""
        for info in project.modules.values():
            for finding in _UnitChecker(project, info).run():
                if "mixes dimensions" in finding.message:
                    yield finding


@register
class UnitAssignRule(Rule):
    """Cross-dimension assignments / keyword passing without conversion."""

    id = "RPR202"
    slug = "unit-assign"
    rationale = (
        "binding a seconds expression to an *_hours name (or passing it to "
        "an *_hours keyword) hides a missing conversion at every later use"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Run the dimension checker over every module, keeping assigns."""
        for info in project.modules.values():
            for finding in _UnitChecker(project, info).run():
                if "mixes dimensions" not in finding.message:
                    yield finding


@register
class UnitConstantRule(Rule):
    """Unit conversion constants must come from ``repro.workload.units``."""

    id = "RPR203"
    slug = "unit-constant"
    rationale = (
        "three independent SECONDS_PER_HOUR definitions drifted through the "
        "workload package historically; one blessed module keeps them aligned"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Flag top-level (re)definitions of the canonical constants."""
        for info in project.modules.values():
            if info.path.endswith(UNITS_MODULE_SUFFIX):
                continue
            for stmt in info.tree.body:
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and (
                        target.id in UNIT_CONSTANT_NAMES
                        or target.id in _CONV_NAMES
                    ):
                        yield Finding(
                            info.path, stmt.lineno, stmt.col_offset,
                            f"redefinition of unit constant {target.id!r}; "
                            "import it from repro.workload.units instead",
                        )
