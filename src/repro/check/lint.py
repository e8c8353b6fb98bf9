"""The check driver: selection, file walking, suppressions, reporting.

One driver runs every registered rule (:data:`repro.check.rules.RULES`)
over each file: it decides which rules run, hands each the parsed
modules its scopes admit, drops findings inside an excluded file or
under a suppression comment, and returns the rest as sorted
:class:`Violation` records.

Suppression syntax (checked per physical line, flake8-style):

* ``# repro: noqa`` — suppress every rule on that line;
* ``# repro: noqa[slug]`` / ``# repro: noqa[slug, slug2]`` — suppress
  only the named rules (slug or rule id, e.g. ``float-time-eq`` or
  ``RPR105``);
* ``# repro: noqa-file`` / ``# repro: noqa-file[slug]`` — same, for the
  whole file, on a line of its own anywhere in the file.

Every suppression should carry a justification comment next to it —
the linter cannot check that, but reviewers can.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.check.rules import RULES, ModuleInfo, Rule

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


@dataclass(frozen=True)
class Violation:
    """One reported lint violation."""

    path: str
    line: int
    col: int
    rule_id: str
    slug: str
    message: str

    def format(self) -> str:
        """The conventional ``path:line:col: ID [slug] message`` line."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} [{self.slug}] {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """Which rules run where.

    ``scopes`` overrides a rule's ``default_scopes`` (path fragments the
    rule is limited to; ``None`` entry = everywhere).  ``whitelists``
    exempts path fragments from a rule entirely — the shipped default
    exempts the profiling modules from the wall-clock rule, and the
    linter's own rule definitions (whose docstrings/regexes mention the
    banned constructs) from everything.
    """

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    scopes: dict[str, tuple[str, ...] | None] = field(default_factory=dict)
    whitelists: dict[str, tuple[str, ...]] = field(default_factory=lambda: {
        "wall-clock": ("sim/profile.py", "experiments/overhead.py",
                       "experiments/runner.py"),
    })
    #: path fragments never linted at all
    exclude: tuple[str, ...] = ("check/rules.py", "check/lint.py")

    def rules(self) -> list[Rule]:
        """The rules this configuration runs, sorted by slug.

        ``select`` names rules outright; with nothing selected every
        registered rule runs.  ``ignore`` is subtracted either way.
        """
        chosen: Iterable[Rule] = RULES.values()
        if self.select is not None:
            chosen = (r for r in chosen
                      if r.slug in self.select or r.id in self.select)
        return sorted(
            (r for r in chosen
             if r.slug not in self.ignore and r.id not in self.ignore),
            key=lambda r: r.slug,
        )

    def with_overrides(
        self,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
    ) -> "LintConfig":
        """A copy with ``select``/``ignore`` replaced when provided."""
        return replace(
            self,
            select=frozenset(select) if select else self.select,
            ignore=frozenset(ignore) if ignore else self.ignore,
        )


def _path_matches(path: str, fragments: Iterable[str]) -> bool:
    """True when the posix ``path`` contains any of ``fragments``."""
    return any(path.endswith(fragment) or f"/{fragment}" in f"/{path}"
               for fragment in fragments)


def _excluded(path: str, config: LintConfig) -> bool:
    return any(path.endswith(fragment) for fragment in config.exclude)


def _rule_applies(rule: Rule, config: LintConfig, path: str) -> bool:
    whitelist = config.whitelists.get(rule.slug) or config.whitelists.get(rule.id)
    if whitelist and _path_matches(path, whitelist):
        return False
    scopes = config.scopes.get(rule.slug, rule.default_scopes)
    if scopes is not None and not _path_matches(path, scopes):
        return False
    return True


def _order(violation: Violation) -> tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.col, violation.rule_id)


def _run(
    rules: Sequence[Rule], config: LintConfig, modules: Sequence[ModuleInfo],
) -> list[Violation]:
    """Run each of ``rules`` over every module whose path it applies to.

    Excluded files are skipped and a finding under a suppression
    comment is dropped; the survivors come back in ``(path, line, col,
    rule id)`` order.
    """
    violations: list[Violation] = []
    for info in modules:
        if _excluded(info.path, config):
            continue
        noqa: Suppressions | None = None
        for rule in rules:
            if not _rule_applies(rule, config, info.path):
                continue
            for finding in rule.check_module(info):
                if noqa is None:
                    noqa = Suppressions(info.source)
                if noqa.suppressed(finding.line, rule.slug, rule.id):
                    continue
                violations.append(Violation(
                    finding.path, finding.line, finding.col,
                    rule.id, rule.slug, finding.message,
                ))
    violations.sort(key=_order)
    return violations


def _syntax_error(path: str, exc: SyntaxError) -> Violation:
    return Violation(
        path, exc.lineno or 1, (exc.offset or 1) - 1, "RPR000",
        "syntax-error", f"file does not parse: {exc.msg}",
    )


def lint_source(
    source: str, path: str = "<string>", config: LintConfig | None = None
) -> list[Violation]:
    """Lint one module's source text."""
    config = config or LintConfig()
    path = path.replace("\\", "/")
    try:
        info = ModuleInfo.parse(path, source)
    except SyntaxError as exc:
        return [_syntax_error(path, exc)]
    return _run(config.rules(), config, [info])


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(
    paths: Sequence[str | Path], config: LintConfig | None = None,
) -> list[Violation]:
    """Check every ``.py`` file under ``paths``; missing paths error."""
    config = config or LintConfig()
    for raw in paths:
        if not Path(raw).exists():
            raise FileNotFoundError(f"lint target does not exist: {raw}")
    unparsable: list[Violation] = []
    linted: list[ModuleInfo] = []
    for file in iter_python_files(paths):
        posix = file.as_posix()
        if _excluded(posix, config):
            continue
        try:
            linted.append(
                ModuleInfo.parse(posix, file.read_text(encoding="utf-8")))
        except SyntaxError as exc:
            unparsable.append(_syntax_error(posix, exc))
    return sorted(unparsable + _run(config.rules(), config, linted),
                  key=_order)
