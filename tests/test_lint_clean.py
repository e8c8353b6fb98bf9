"""Tier-1 gate: the shipped source tree must check clean.

Any new violation of a registered rule under ``src/repro`` fails this
test — the per-file determinism rules (RPR1xx: global-RNG usage,
wall-clock reads, mutable defaults, float timestamp equality, swallowed
exceptions, set-order float accumulation) and, in the strict run, the
whole-program RPR4xx API contracts.  Suppress intentional exceptions
in place with ``# repro: noqa[rule]`` plus a justification comment.

The file also pins the shape of the checker itself: one rule registry
that the documentation, ``--list-rules`` and every suppression comment
agree with, and no trace of the retired profile-guided perf lint, of
the retired units (RPR2xx) and NN-shape (RPR3xx) analyzers, or of the
retired RPR6xx determinism-taint engine, whose invariants
``test_ambient_perturbation.py``, ``test_faults.py`` and
``test_pickle_safety.py`` check by running the code.
"""

import importlib.util
import io
import re
import tokenize
from pathlib import Path

import pytest

from repro.check import RULES, lint_paths
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def test_source_tree_exists():
    assert SRC.is_dir(), f"expected source tree at {SRC}"


def test_source_tree_lints_clean():
    violations = lint_paths([SRC])
    report = "\n".join(v.format() for v in violations)
    assert not violations, f"determinism lint violations:\n{report}"


def test_source_tree_is_strict_clean():
    """Every registered rule, whole-program ones included, reports zero."""
    violations = lint_paths([SRC], strict=True)
    report = "\n".join(v.format() for v in violations)
    assert not violations, f"strict check violations:\n{report}"


def test_every_suppression_names_a_registered_rule():
    """A ``noqa[...]`` for a rule that no longer exists silences nothing."""
    known = set(RULES) | {rule.id for rule in RULES.values()}
    noqa = re.compile(r"#\s*repro:\s*noqa(?:-file)?\s*\[([^\]]*)\]")
    stale = []
    for path in sorted(SRC.rglob("*.py")):
        tokens = tokenize.generate_tokens(
            io.StringIO(path.read_text(encoding="utf-8")).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            for names in noqa.findall(token.string):
                stale += [
                    f"{path.relative_to(REPO)}:{token.start[0]}: {name}"
                    for name in map(str.strip, names.split(","))
                    if name and name not in known
                ]
    assert not stale, "suppressions of unregistered rules:\n" + "\n".join(stale)


def test_documented_catalogue_is_the_registry(capsys):
    registered = {rule.id for rule in RULES.values()}
    doc = (REPO / "docs" / "static-analysis.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `(RPR\d{3})` \|", doc, flags=re.M))
    assert documented == registered
    assert main(["check", "--strict", "--list-rules"]) == 0
    listed = re.findall(r"^(RPR\d{3}) \[", capsys.readouterr().out, flags=re.M)
    assert sorted(listed) == sorted(registered)


@pytest.mark.parametrize("module", ["flow", "perf", "hotness"])
def test_retired_perf_lint_modules_are_gone(module):
    assert importlib.util.find_spec(f"repro.check.{module}") is None


@pytest.mark.parametrize("module", ["units", "shapes"])
def test_retired_analyzer_modules_are_gone(module):
    """Unit constants and Table III shapes are asserted at runtime instead."""
    assert importlib.util.find_spec(f"repro.check.{module}") is None


@pytest.mark.parametrize("module", ["taint", "effects", "callgraph"])
def test_retired_taint_engine_modules_are_gone(module):
    """Determinism is checked by running it (test_ambient_perturbation.py)."""
    assert importlib.util.find_spec(f"repro.check.{module}") is None
    assert not any(rule.id.startswith("RPR6") for rule in RULES.values())


def test_one_rule_framework_in_src():
    """The second registry / base / finding / context names stay retired."""
    retired = re.compile(
        r"\b(ProjectRule|ProjectFinding|PROJECT_RULES|register_project"
        r"|project_rules|FileContext)\b")
    hits = [
        f"{path.relative_to(REPO)}:{lineno}: {line.strip()}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        if retired.search(line)
    ]
    assert not hits, "\n".join(hits)
