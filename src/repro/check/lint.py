"""The check driver: selection, file walking, suppressions, reporting.

One driver runs every registered rule (:data:`repro.check.rules.RULES`),
per-file and whole-program alike: it decides which rules run, hands
each its modules or project, drops findings that fall outside the
rule's scopes, inside an excluded file or under a suppression comment,
and returns the rest as sorted :class:`Violation` records.

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

from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

# the rule families register themselves on import: RPR1xx lives next to
# the framework in ``rules``, RPR4xx in ``contracts``
from repro.check import contracts  # noqa: F401
from repro.check.project import ModuleInfo, ProjectModel
from repro.check.rules import RULES, Rule


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

    def rules(self, default: Iterable[Rule]) -> list[Rule]:
        """The rules this configuration runs, sorted by slug.

        ``select`` names rules outright, per-file or whole-program
        alike; with nothing selected the caller's ``default`` set runs.
        ``ignore`` is subtracted either way.
        """
        if self.select is not None:
            default = (r for r in RULES.values()
                       if r.slug in self.select or r.id in self.select)
        return sorted(
            (r for r in default
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
    rules: Sequence[Rule],
    config: LintConfig,
    linted: Sequence[ModuleInfo],
    projects: Iterable[ProjectModel] = (),
) -> list[Violation]:
    """Run ``rules``: per-file ones over ``linted``, the rest per project.

    Every finding passes the same gate — its file is not excluded, the
    rule applies to its path, no suppression covers its line — and the
    survivors come back in ``(path, line, col, rule id)`` order.
    """
    projects = list(projects)
    modules = {info.path: info for project in projects
               for info in project.modules.values()}
    modules.update((info.path, info) for info in linted)
    violations: list[Violation] = []
    for rule in rules:
        if rule.whole_program:
            findings = chain.from_iterable(map(rule.check, projects))
        else:
            findings = chain.from_iterable(map(rule.check_module, linted))
        for finding in findings:
            if _excluded(finding.path, config) \
                    or not _rule_applies(rule, config, finding.path):
                continue
            info = modules.get(finding.path)
            if info is not None and info.suppressions.suppressed(
                    finding.line, rule.slug, rule.id):
                continue
            violations.append(Violation(
                finding.path, finding.line, finding.col,
                rule.id, rule.slug, finding.message,
            ))
    violations.sort(key=_order)
    return violations


def _per_file_rules() -> Iterator[Rule]:
    return (r for r in RULES.values() if not r.whole_program)


def _syntax_error(path: str, exc: SyntaxError) -> Violation:
    return Violation(
        path, exc.lineno or 1, (exc.offset or 1) - 1, "RPR000",
        "syntax-error", f"file does not parse: {exc.msg}",
    )


def lint_source(
    source: str, path: str = "<string>", config: LintConfig | None = None
) -> list[Violation]:
    """Lint one module's source text (per-file rules: there is no project)."""
    config = config or LintConfig()
    path = path.replace("\\", "/")
    try:
        info = ModuleInfo.parse(Path(path).stem, path, source)
    except SyntaxError as exc:
        return [_syntax_error(path, exc)]
    return _run(config.rules(_per_file_rules()), config, [info])


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
    paths: Sequence[str | Path],
    config: LintConfig | None = None,
    strict: bool = False,
) -> list[Violation]:
    """Check every ``.py`` file under ``paths``; missing paths error.

    Per-file rules see exactly the named files.  Whole-program rules —
    part of the default selection only under ``strict``, but run
    whenever ``config.select`` names one — see the project each path
    names (a directory, or a file's parent), each distinct project
    once, and every file is read and parsed once.
    """
    config = config or LintConfig()
    for raw in paths:
        if not Path(raw).exists():
            raise FileNotFoundError(f"lint target does not exist: {raw}")
    rules = config.rules(RULES.values() if strict else _per_file_rules())
    projects: dict[Path, ProjectModel] = {}
    if any(rule.whole_program for rule in rules):
        for raw in map(Path, paths):
            root = raw.parent if raw.is_file() else raw
            if root.resolve() not in projects:
                projects[root.resolve()] = ProjectModel.load(root)
    parsed = {info.path: info for project in projects.values()
              for info in project.modules.values()}
    unparsable: list[Violation] = []
    linted: list[ModuleInfo] = []
    for file in iter_python_files(paths):
        posix = file.as_posix()
        if _excluded(posix, config):
            continue
        info = parsed.get(posix)
        if info is None:
            try:
                info = ModuleInfo.parse(
                    file.stem, posix, file.read_text(encoding="utf-8"))
            except SyntaxError as exc:
                unparsable.append(_syntax_error(posix, exc))
                continue
        linted.append(info)
    return sorted(unparsable + _run(rules, config, linted, projects.values()),
                  key=_order)


def analyze_project(
    root: str | Path,
    config: LintConfig | None = None,
    package: str | None = None,
) -> list[Violation]:
    """Run the whole-program rules over one package tree.

    ``config.select`` may also name per-file rules, which then run over
    every module of the tree.  Findings honour the same per-line /
    per-file ``# repro: noqa`` suppressions, keyed by the rule's slug
    or id.
    """
    if not Path(root).is_dir():
        raise FileNotFoundError(f"project root is not a directory: {root}")
    config = config or LintConfig()
    project = ProjectModel.load(root, package=package)
    rules = config.rules(r for r in RULES.values() if r.whole_program)
    return _run(rules, config, list(project.modules.values()), [project])
