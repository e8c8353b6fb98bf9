"""Tier-1 gate: the shipped source tree must check clean.

Any new violation of a rule under ``src/repro`` fails this test —
mutable defaults, float timestamp equality and swallowed exceptions
(RPR104–RPR106).  This is the static check's only gate.  Suppress
intentional exceptions in place with ``# repro: noqa[rule]`` plus a
justification comment.

The file also pins the shape of the checker itself: one rule list that
the documentation, ``--list-rules`` and every suppression comment
agree with, and no trace of the retired determinism rules (RPR101–103,
RPR107), whose mutants ``test_ambient_perturbation.py`` and the golden
digests kill, of the retired ratchet and its JSON/SARIF/baseline
output, of the retired profile-guided perf lint, of
the retired units (RPR2xx) and NN-shape (RPR3xx) analyzers, of the
retired RPR6xx determinism-taint engine, whose invariants
``test_ambient_perturbation.py``, ``test_faults.py`` and
``test_pickle_safety.py`` check by running the code, or of the retired
whole-program API-contract analyzer (RPR4xx), whose contracts the
engine checks where they bind (``test_engine_seam.py``,
``test_schedulers.py``).
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.check import RULES, lint_paths
from repro.check.lint import noqa_comments
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def test_source_tree_exists():
    assert SRC.is_dir(), f"expected source tree at {SRC}"


def test_source_tree_lints_clean():
    violations = lint_paths([SRC])
    report = "\n".join(v.format() for v in violations)
    assert not violations, f"determinism lint violations:\n{report}"


def test_every_suppression_names_a_registered_rule():
    """A ``noqa[...]`` for a rule that no longer exists silences nothing."""
    known = {rule.slug for rule in RULES} | {rule.id for rule in RULES}
    stale = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, names in noqa_comments(
            path.read_text(encoding="utf-8")).items()
        for name in sorted(names - known)
    ]
    assert not stale, "suppressions of unregistered rules:\n" + "\n".join(stale)


def test_documented_catalogue_is_the_registry(capsys):
    registered = {rule.id for rule in RULES}
    doc = (REPO / "docs" / "static-analysis.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `(RPR\d{3})` \|", doc, flags=re.M))
    assert documented == registered
    assert main(["check", "--list-rules"]) == 0
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
    assert not any(rule.id.startswith("RPR6") for rule in RULES)


@pytest.mark.parametrize("module", ["contracts", "project"])
def test_retired_contract_analyzer_modules_are_gone(module):
    """Observer hooks and span names are checked where they bind."""
    assert importlib.util.find_spec(f"repro.check.{module}") is None
    assert not any(rule.id.startswith("RPR4") for rule in RULES)


@pytest.mark.parametrize("module", ["report", "rules"])
def test_retired_framework_modules_are_gone(module):
    """No SARIF/JSON/baseline output and no pluggable rule registry."""
    assert importlib.util.find_spec(f"repro.check.{module}") is None


def test_retired_ratchet_is_gone():
    """``test_source_tree_lints_clean`` is the one gate."""
    assert not (REPO / "scripts" / "check_ratchet.py").exists()
    assert not (REPO / "check_baseline.json").exists()


def test_one_rule_framework_in_src():
    """The second registry / base / finding / context names stay retired."""
    retired = re.compile(
        r"\b(ProjectRule|ProjectFinding|PROJECT_RULES|register_project"
        r"|project_rules|FileContext|ProjectModel|analyze_project"
        r"|whole_program|OBSERVER_HOOKS|LintConfig|ModuleInfo)\b")
    hits = [
        f"{path.relative_to(REPO)}:{lineno}: {line.strip()}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        if retired.search(line)
    ]
    assert not hits, "\n".join(hits)
