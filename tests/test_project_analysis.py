"""Tests for the whole-program analyzer (``repro.check`` v2).

Covers the project model, the RPR4xx API-contract rules, the
report/baseline machinery, the ratchet script and the NumPy-free
promise of the static layer.  The mutation tests copy ``src/repro``
into a tmp tree, seed one realistic bug and assert the analyzer
catches it.  (RPR6xx has its own files: ``test_check_effects.py``,
``test_check_callgraph.py``.)
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check import LintConfig, analyze_project
from repro.check.lint import Violation
from repro.check.project import ProjectModel
from repro.check import report as chk_report

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: a scratch package whose one finding is RPR403's misspelt hook
MISSPELT_HOOK_TREE = {
    "pkg/__init__.py": "",
    "pkg/obs.py": """\
        \"\"\"A hook the engine will never call.\"\"\"

        class Log:
            \"\"\"Observer with one real and one misspelt hook.\"\"\"

            def on_start(self, job, now):
                \"\"\"A real hook.\"\"\"

            def on_reserved(self, job, now, reservation):
                \"\"\"Should be on_reserve.\"\"\"

        class Sink:
            \"\"\"Not an observer: other on_* names are its own.\"\"\"

            def on_snapshot(self, record):
                \"\"\"A live-bus sink method.\"\"\"
        """,
}


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize a scratch package tree under ``root``."""
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return root


@pytest.fixture()
def mutated_src(tmp_path):
    """A throwaway full copy of ``src/repro`` for mutation tests."""
    target = tmp_path / "repro"
    shutil.copytree(SRC, target)
    return target


def rule_ids(violations: list[Violation]) -> set[str]:
    return {v.rule_id for v in violations}


class TestProjectModel:
    def test_import_alias_resolution(self, tmp_path):
        root = write_tree(tmp_path / "pkg", {
            "pkg/__init__.py": "",
            "pkg/consts.py": "LIMIT = 7\n",
            "pkg/use.py": "from pkg.consts import LIMIT as CAP\n",
            "pkg/relative.py": "from .consts import LIMIT\n",
        })
        project = ProjectModel.load(root / "pkg", package="pkg")
        use = project.module("pkg.use")
        assert use is not None
        assert use.imports["CAP"] == "pkg.consts.LIMIT"
        resolved = project.resolve("pkg.consts.LIMIT")
        assert resolved is not None and resolved[0].name == "pkg.consts"
        rel = project.module("pkg.relative")
        assert rel.imports["LIMIT"] == "pkg.consts.LIMIT"

    def test_subclass_hierarchy(self, tmp_path):
        root = write_tree(tmp_path / "pkg", {
            "pkg/__init__.py": "",
            "pkg/base.py": "class Base:\n    pass\n",
            "pkg/mid.py": "from pkg.base import Base\n\nclass Mid(Base):\n    pass\n",
            "pkg/leaf.py": "from pkg.mid import Mid\n\nclass Leaf(Mid):\n    pass\n",
        })
        project = ProjectModel.load(root / "pkg", package="pkg")
        assert project.subclasses_of("pkg.base.Base") == [
            "pkg.leaf.Leaf", "pkg.mid.Mid",
        ]

    def test_real_tree_scheduler_hierarchy(self):
        project = ProjectModel.load(SRC, package="repro")
        subs = project.subclasses_of("repro.schedulers.base.BaseScheduler")
        assert "repro.schedulers.fcfs.FCFSEasy" in subs
        assert "repro.core.agent.HierarchicalAgent" in subs


class TestContractRules:
    def test_schedule_signature_drift(self, mutated_src):
        sched = mutated_src / "schedulers" / "binpacking.py"
        sched.write_text(sched.read_text().replace(
            "def schedule(self, view: SchedulingView) -> None:",
            "def schedule(self, view: SchedulingView, verbose) -> None:",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR401" in rule_ids(violations)

    def test_lifecycle_hook_drift(self, mutated_src):
        agent = mutated_src / "core" / "agent.py"
        agent.write_text(agent.read_text().replace(
            "def on_simulation_end(self, engine) -> None:",
            "def on_simulation_end(self, engine, result) -> None:",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR402" in rule_ids(violations)

    def test_observer_hook_drift(self, mutated_src):
        analyze = mutated_src / "obs" / "analyze.py"
        analyze.write_text(analyze.read_text().replace(
            "def on_finish(self, job: Any, now: float) -> None:",
            "def on_finish(self, job: Any) -> None:",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR403" in rule_ids(violations)

    def test_new_observer_hook_drift(self, mutated_src):
        observers = mutated_src / "sim" / "observers.py"
        observers.write_text(observers.read_text().replace(
            "def on_node_repair(self, now: float, node: int) -> None:",
            "def on_node_repair(self, node: int, now: float) -> None:",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert any(v.rule_id == "RPR403" and "on_node_repair" in v.message
                   for v in violations)

    def test_misspelt_observer_hook(self, tmp_path):
        root = write_tree(tmp_path / "pkg", MISSPELT_HOOK_TREE)
        violations = analyze_project(root / "pkg")
        assert [(v.rule_id, "on_reserved" in v.message, "misspelt" in v.message)
                for v in violations] == [("RPR403", True, True)]

    def test_noqa_suppresses_project_findings(self, tmp_path):
        files = dict(MISSPELT_HOOK_TREE)
        files["pkg/obs.py"] = files["pkg/obs.py"].replace(
            "reservation):", "reservation):  # repro: noqa[observer-hook]")
        root = write_tree(tmp_path / "pkg", files)
        assert analyze_project(root / "pkg") == []

    def test_select_ignore_filtering(self, tmp_path):
        root = write_tree(tmp_path / "pkg", MISSPELT_HOOK_TREE) / "pkg"
        config = LintConfig().with_overrides(ignore=["observer-hook"])
        assert analyze_project(root, config) == []
        config = LintConfig().with_overrides(select=["RPR404"])
        assert analyze_project(root, config) == []
        config = LintConfig().with_overrides(select=["RPR403"])
        assert rule_ids(analyze_project(root, config)) == {"RPR403"}

    def test_undocumented_span_name(self, mutated_src):
        # the engine.* record names live with the trace subscriber
        observers = mutated_src / "sim" / "observers.py"
        observers.write_text(observers.read_text().replace(
            '"engine.release"', '"engine.free"',
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR404" in rule_ids(violations)
        assert any("engine.free" in v.message for v in violations)

    def test_extra_defaulted_params_are_compatible(self, tmp_path):
        root = write_tree(tmp_path / "pkg", {
            "pkg/__init__.py": "",
            "pkg/sched.py": """\
                \"\"\"Extra defaulted args keep the engine call valid.\"\"\"

                class Recorder:
                    \"\"\"Observer with an optional extra parameter.\"\"\"

                    def on_start(self, job, now, log=None):
                        \"\"\"Compatible with (self, job, now).\"\"\"
                """,
        })
        assert analyze_project(root / "pkg") == []


class TestReportAndBaseline:
    def _violations(self) -> list[Violation]:
        return [
            Violation("a.py", 3, 0, "RPR403", "observer-hook", "m1"),
            Violation("a.py", 9, 4, "RPR403", "observer-hook", "m1"),
            Violation("b.py", 1, 0, "RPR404", "span-registry", "m2"),
        ]

    def test_json_document(self):
        doc = json.loads(chk_report.to_json(self._violations(), ["src"], True))
        assert doc["count"] == 3 and doc["strict"] is True
        assert doc["findings"][0]["rule"] == "RPR403"

    def test_sarif_document(self):
        sarif = chk_report.to_sarif(
            self._violations(), [("RPR403", "observer-hook", "why")],
        )
        assert sarif["version"] == "2.1.0"
        results = sarif["runs"][0]["results"]
        assert len(results) == 3
        assert results[0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"] == "a.py"

    def test_baseline_roundtrip_and_ratchet_direction(self, tmp_path):
        baseline_path = tmp_path / "base.json"
        vs = self._violations()
        chk_report.save_baseline(baseline_path, vs)
        baseline = chk_report.load_baseline(baseline_path)
        # identical findings (even at moved lines) are fully covered
        moved = [Violation(v.path, v.line + 100, v.col, v.rule_id, v.slug,
                           v.message) for v in vs]
        new, stale = chk_report.diff_baseline(moved, baseline)
        assert new == [] and not stale
        # one extra finding is new; one fixed finding is stale
        extra = vs + [Violation("c.py", 1, 0, "RPR402", "lifecycle-hook", "m3")]
        new, _ = chk_report.diff_baseline(extra, baseline)
        assert [v.path for v in new] == ["c.py"]
        _, stale = chk_report.diff_baseline(vs[:-1], baseline)
        assert sum(stale.values()) == 1

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            chk_report.load_baseline(bad)
        bad.write_text('{"version": 99, "findings": {}}', encoding="utf-8")
        with pytest.raises(ValueError):
            chk_report.load_baseline(bad)


class TestCanonicalUnits:
    def test_single_source_of_truth(self):
        """The dedup satellite: one blessed module defines the constants."""
        from repro.workload import units
        from repro.workload import generator, stats
        from repro.experiments import fig3

        assert units.SECONDS_PER_HOUR == 3600.0
        assert units.SECONDS_PER_DAY == 86400.0
        assert generator.SECONDS_PER_HOUR is units.SECONDS_PER_HOUR
        assert stats._HOUR is units.SECONDS_PER_HOUR
        assert fig3._DAY is units.SECONDS_PER_DAY

    def test_no_other_module_defines_the_constants(self):
        """Each constant of ``repro.workload.units`` has one definition."""
        from repro.workload import units

        names = sorted(name for name in vars(units) if name.isupper())
        assert names == sorted(units.__all__)
        project = ProjectModel.load(SRC, package="repro")
        defining = {
            name: [info.name for info in project.modules.values()
                   if name in info.constants]
            for name in names
        }
        assert defining == {name: ["repro.workload.units"] for name in names}


class TestStrictGateAndRatchet:
    def test_shipped_tree_is_strict_clean(self):
        assert analyze_project(SRC) == []

    def test_numpy_free_proof(self, tmp_path):
        """The whole-program analysis runs with NumPy import-blocked."""
        script = tmp_path / "proof.py"
        script.write_text(textwrap.dedent(f"""\
            import sys, types

            class NumpyBlocker:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ImportError("numpy is blocked in this proof")
                    return None

            sys.meta_path.insert(0, NumpyBlocker())
            sys.path.insert(0, {str(REPO / 'src')!r})
            # a stub package so repro/__init__.py (which needs numpy)
            # never executes; submodule imports resolve via __path__
            pkg = types.ModuleType("repro")
            pkg.__path__ = [{str(SRC)!r}]
            sys.modules["repro"] = pkg

            from repro.check import analyze_project

            violations = analyze_project({str(SRC)!r})
            assert "numpy" not in sys.modules
            print("analyzed", len(violations))
            """), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "analyzed 0" in result.stdout

    def test_ratchet_script_passes_on_repo(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_ratchet.py")],
            capture_output=True, text=True, cwd=REPO,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "ratchet OK" in result.stdout

    def test_ratchet_names_a_rule_missing_from_the_registry(
            self, monkeypatch, capsys):
        from repro.check import RULES

        spec = importlib.util.spec_from_file_location(
            "check_ratchet", REPO / "scripts" / "check_ratchet.py")
        check_ratchet = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_ratchet)
        assert check_ratchet.EXPECTED_RULE_IDS == {
            rule.id for rule in RULES.values()}
        # a per-file rule: exactly the family the old guard did not list
        monkeypatch.delitem(RULES, "mutable-default")
        assert check_ratchet.main([]) == 2
        err = capsys.readouterr().err
        assert "RPR104" in err and "not registered" in err
