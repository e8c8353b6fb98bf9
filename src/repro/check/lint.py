"""The static check: a list of rules and the driver that runs them.

Each rule reads one parsed module and yields ``(node, message)``
pairs; the driver parses every file, runs every rule of :data:`RULES`
over it, drops findings under a suppression comment and returns the
rest as sorted :class:`Violation` records.  Seed determinism is not
checked here: ``tests/test_ambient_perturbation.py`` checks it by
running the code.

Suppression syntax (read from real comments, per physical line):

* ``# repro: noqa`` — suppress every rule on that line;
* ``# repro: noqa[slug]`` / ``# repro: noqa[slug, slug2]`` — suppress
  only the named rules (slug or rule id, e.g. ``float-time-eq`` or
  ``RPR105``).

Every suppression should carry a justification comment next to it —
the linter cannot check that, but reviewers can.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

_NOQA = re.compile(r"#\s*repro:\s*noqa(?![-\w])\s*(?:\[(?P<rules>[^\]]*)\])?")

_TIME_NAME = re.compile(
    r"(^|_)(time|now|clock|timestamp|makespan|deadline|walltime)s?(_|$)",
    re.IGNORECASE,
)

#: calls whose result is integral, not a float timestamp
_INT_FUNCS = frozenset({"len", "int", "round", "id", "hash", "ord"})

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict"})

Findings = Iterator[tuple[ast.AST, str]]


class Rule(NamedTuple):
    """One rule: its id, slug, why it exists, and the check itself."""

    id: str
    slug: str
    rationale: str
    check: Callable[[ast.Module], Findings]


def _mutable_defaults(tree: ast.Module) -> Findings:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CTORS
            ):
                yield default, ("mutable default argument is shared across "
                                "calls; use None and construct inside the "
                                "function")


def _time_like(node: ast.expr) -> bool:
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _INT_FUNCS):
        return False
    return any(
        _TIME_NAME.search(sub.id if isinstance(sub, ast.Name) else sub.attr)
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _float_time_equality(tree: ast.Module) -> Findings:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            # `x == None`-style constant comparisons are not float math
            if (isinstance(op, (ast.Eq, ast.NotEq))
                    and not any(isinstance(o, ast.Constant) and o.value is None
                                for o in (left, right))
                    and (_time_like(left) or _time_like(right))):
                yield node, ("exact ==/!= on a simulation timestamp; use "
                             "ordering or math.isclose, or suppress if both "
                             "sides are copies of one stored value")
                break


def _swallowed_exceptions(tree: ast.Module) -> Findings:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node, ("bare `except:` catches SystemExit/KeyboardInterrupt "
                         "too; name the exception types")
        elif (isinstance(node.type, ast.Name)
              and node.type.id in ("Exception", "BaseException")
              and all(isinstance(stmt, ast.Pass)
                      or (isinstance(stmt, ast.Expr)
                          and isinstance(stmt.value, ast.Constant)
                          and stmt.value.value is Ellipsis)
                      for stmt in node.body)):
            yield node, ("broad exception swallowed with `pass`; at minimum "
                         "log or re-raise so simulation corruption cannot go "
                         "unseen")


#: every rule, in id order
RULES: tuple[Rule, ...] = (
    Rule("RPR104", "mutable-default",
         "a list/dict/set default is created once and shared by every call, "
         "silently carrying state between episodes; default to None instead",
         _mutable_defaults),
    Rule("RPR105", "float-time-eq",
         "== / != on float simulation timestamps depends on bit-exact "
         "arithmetic history; compare with a tolerance or ordering instead "
         "(suppress where both sides are copies of the same stored value)",
         _float_time_equality),
    Rule("RPR106", "bare-except",
         "`except:` and `except Exception: pass` silently absorb invariant "
         "violations mid-simulation, turning crashes into corrupt results",
         _swallowed_exceptions),
)


@dataclass(frozen=True, order=True)
class Violation:
    """One reported lint violation, ordered by location then rule."""

    path: str
    line: int
    col: int
    rule_id: str
    slug: str
    message: str

    def format(self) -> str:
        """The conventional ``path:line:col: ID [slug] message`` line."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} [{self.slug}] {self.message}"


def noqa_comments(source: str) -> dict[int, frozenset[str]]:
    """Line -> rule names each ``# repro: noqa`` comment suppresses.

    Only real comments count, not text inside a string.  An empty set
    means every rule on that line.
    """
    table: dict[int, frozenset[str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = (_NOQA.search(token.string)
                 if token.type == tokenize.COMMENT else None)
        if match is not None:
            table[token.start[0]] = frozenset(
                name.strip() for name in (match["rules"] or "").split(",")
                if name.strip())
    return table


def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Lint one module's source text."""
    path = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 1, (exc.offset or 1) - 1,
                          "RPR000", "syntax-error",
                          f"file does not parse: {exc.msg}")]
    found = [(node.lineno, node.col_offset, rule, message)
             for rule in RULES for node, message in rule.check(tree)]
    if not found:
        return []
    noqa = noqa_comments(source)
    return sorted(
        Violation(path, line, col, rule.id, rule.slug, message)
        for line, col, rule, message in found
        if (names := noqa.get(line)) is None
        or (names and rule.slug not in names and rule.id not in names)
    )


def lint_paths(paths: Sequence[str | Path]) -> list[Violation]:
    """Check every ``.py`` file under ``paths``; missing paths error."""
    files: set[Path] = set()
    for raw in map(Path, paths):
        if not raw.exists():
            raise FileNotFoundError(f"lint target does not exist: {raw}")
        if raw.is_dir():
            files.update(raw.rglob("*.py"))
        elif raw.suffix == ".py":
            files.add(raw)
    return sorted(
        violation for file in files
        for violation in lint_source(file.read_text(encoding="utf-8"),
                                     file.as_posix())
    )
