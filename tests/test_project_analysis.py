"""Tests for the whole-program analyzer (``repro.check`` v2).

Covers the project model, the three project-rule families (RPR2xx
units-of-measure, RPR3xx static NN verification, RPR4xx API contracts),
the report/baseline machinery and the ratchet script.  The mutation
tests copy ``src/repro`` into a tmp tree, seed one realistic bug and
assert the analyzer catches it — including the acceptance-criteria
seconds↔hours mix-up and the NumPy-free Table III proof.
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
from repro.check import shapes

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

TABLE3_EXPECTED = {
    "theta-pg": 21_890_053,
    "theta-dql": 21_449_004,
    "cori-pg": 161_960_053,
    # cori-dql is checked against the formula, not the (inconsistent) paper
    "cori-dql": 160_784_004,
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


class TestUnitsRules:
    def test_seeded_seconds_hours_mixup_is_caught(self, tmp_path):
        """Acceptance criterion: a seconds↔hours bug in a scratch module."""
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/bug.py": """\
                \"\"\"Scratch module with a seeded unit bug.\"\"\"

                def total_delay(wait_seconds: float, limit_hours: float) -> float:
                    \"\"\"Seeded bug: adds seconds to hours.\"\"\"
                    return wait_seconds + limit_hours
                """,
        })
        violations = analyze_project(root / "scratch")
        assert "RPR201" in rule_ids(violations)
        [v] = [v for v in violations if v.rule_id == "RPR201"]
        assert "seconds" in v.message and "hours" in v.message

    def test_unconverted_assignment_and_conversion(self, tmp_path):
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/assign.py": """\
                \"\"\"Assignments with and without conversion.\"\"\"

                def bad(total_wait_seconds: float) -> float:
                    \"\"\"Missing the /3600.\"\"\"
                    wait_hours = total_wait_seconds
                    return wait_hours

                def good(total_wait_seconds: float) -> float:
                    \"\"\"Proper conversion is not flagged.\"\"\"
                    wait_hours = total_wait_seconds / 3600.0
                    return wait_hours
                """,
        })
        violations = analyze_project(root / "scratch")
        assert [v.rule_id for v in violations] == ["RPR202"]
        assert violations[0].line == 5

    def test_aliased_conversion_constant_resolves(self, tmp_path):
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/units_mod.py": "\"\"\"Local units.\"\"\"\nSPH = 3600.0\n",
            "scratch/use.py": """\
                \"\"\"Conversion through an imported alias.\"\"\"
                from scratch.units_mod import SPH

                def to_hours(run_seconds: float) -> float:
                    \"\"\"Seconds -> hours through the alias.\"\"\"
                    run_hours = run_seconds / SPH
                    return run_hours
                """,
        })
        violations = analyze_project(root / "scratch")
        assert violations == []

    def test_unit_annotation_overrides_name(self, tmp_path):
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/anno.py": """\
                \"\"\"Annotation declares the target dimension.\"\"\"

                def f(span_seconds: float) -> float:
                    \"\"\"`budget` is declared as seconds via annotation.\"\"\"
                    budget = span_seconds  # repro: unit[seconds]
                    return budget + span_seconds
                """,
        })
        assert analyze_project(root / "scratch") == []

    def test_constant_redefinition_flagged(self, tmp_path):
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/dup.py": "\"\"\"Dup.\"\"\"\nSECONDS_PER_HOUR = 3600.0\n",
        })
        violations = analyze_project(root / "scratch")
        assert [v.rule_id for v in violations] == ["RPR203"]

    def test_noqa_suppresses_project_findings(self, tmp_path):
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/sup.py": """\
                \"\"\"Suppressed mix.\"\"\"

                def f(a_seconds: float, b_hours: float) -> float:
                    \"\"\"Intentional; suppressed in place.\"\"\"
                    return a_seconds + b_hours  # repro: noqa[unit-mix]
                """,
        })
        assert analyze_project(root / "scratch") == []

    def test_select_ignore_filtering(self, tmp_path):
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/dup.py": "\"\"\"Dup.\"\"\"\nSECONDS_PER_HOUR = 3600.0\n",
        })
        config = LintConfig().with_overrides(ignore=["unit-constant"])
        assert analyze_project(root / "scratch", config) == []
        config = LintConfig().with_overrides(select=["RPR201"])
        assert analyze_project(root / "scratch", config) == []


class TestShapesRules:
    def test_static_table3_counts_match_paper(self):
        project = ProjectModel.load(SRC, package="repro")
        assert shapes.static_table3_counts(project) == TABLE3_EXPECTED

    def test_shape_break_is_caught(self, mutated_src):
        network = mutated_src / "nn" / "network.py"
        network.write_text(network.read_text().replace(
            "Dense(hidden1, hidden2, bias=False",
            "Dense(hidden2, hidden1, bias=False",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR301" in rule_ids(violations)
        assert any("does not match" in v.message for v in violations)

    def test_param_count_drift_is_caught(self, mutated_src):
        config = mutated_src / "core" / "config.py"
        config.write_text(config.read_text().replace(
            "hidden1=4000,", "hidden1=4096,",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR302" in rule_ids(violations)
        assert any("21,890,053" in v.message for v in violations)

    def test_missing_bias_changes_count(self, mutated_src):
        network = mutated_src / "nn" / "network.py"
        network.write_text(network.read_text().replace(
            "Dense(hidden2, outputs, bias=True",
            "Dense(hidden2, outputs, bias=False",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR302" in rule_ids(violations)

    def test_rules_inapplicable_on_scratch_trees(self, tmp_path):
        root = write_tree(tmp_path / "scratch", {
            "scratch/__init__.py": "",
            "scratch/mod.py": "\"\"\"Nothing NN-ish here.\"\"\"\nX = 1\n",
        })
        assert analyze_project(root / "scratch") == []

    def test_batched_shapes_derived(self):
        """RPR303's interpreter carries the symbolic batch dim end to end."""
        project = ProjectModel.load(SRC, package="repro")
        configs = shapes.static_table3_configs(project)
        summary = shapes.interpret_network(project, "theta-pg",
                                           configs["theta-pg"])
        assert summary.findings == []
        assert summary.layers[0].in_shape == ("B", 4460, 2)
        assert summary.layers[0].out_shape == ("B", 4460)
        assert summary.output_shape == ("B", 50)
        assert all(layer.out_shape[0] == "B" for layer in summary.layers)
        assert shapes.format_shape(summary.output_shape) == "[B, 50]"

    def test_two_input_form_derived(self):
        """[B, k, 2] + N node rows reaches [B, outputs] for all four cells."""
        project = ProjectModel.load(SRC, package="repro")
        configs = shapes.static_table3_configs(project)
        for cell, k, nodes in (("theta-dql", 2, 4360), ("cori-dql", 2, 12076),
                               ("theta-pg", 100, 4360), ("cori-pg", 100, 12076)):
            summary = shapes.interpret_network(
                project, cell, configs[cell], split=(k, nodes))
            assert summary.findings == []
            assert summary.layers[0].in_shape == ("B", k, 2)
            assert summary.layers[1].out_shape == ("B", configs[cell]["hidden1"])
            assert summary.output_shape == ("B", configs[cell]["outputs"])
        # one node row short: the first Dense cannot join the pieces
        short = shapes.interpret_network(
            project, "theta-dql", configs["theta-dql"], split=(2, 4359))
        assert any("split 2 + 4359" in m for m in short.findings)

    def test_two_input_mismatch_is_caught(self, mutated_src):
        """Rows that are not job blocks + nodes trip RPR303, DQL and PG.

        One mutated tree carries both mutants: each cell's finding names
        its own split, so neither can stand in for the other.
        """
        config = mutated_src / "core" / "config.py"
        config.write_text(config.read_text().replace(
            "rows=2 + self.num_nodes,", "rows=4 + self.num_nodes,",
        ).replace(
            "rows=2 * self.window + self.num_nodes,",
            "rows=2 * self.window + self.num_nodes + 1,",
        ))
        messages = [v.message for v in
                    analyze_project(mutated_src, package="repro")
                    if v.rule_id == "RPR303"]
        for split in ("2 + 4360", "2 + 12076", "100 + 4360", "100 + 12076"):
            assert any(f"split {split}" in m for m in messages), split

    def test_unrouted_forward_is_caught(self, mutated_src):
        """A network.forward outside score_window/update trips RPR303."""
        dql = mutated_src / "core" / "dras_dql.py"
        dql.write_text(dql.read_text().replace(
            "return heads, nodes, self.score_window(heads, nodes)",
            "return heads, nodes, self.network.forward(heads, nodes)[:, 0]",
        ))
        violations = analyze_project(mutated_src, package="repro")
        assert "RPR303" in rule_ids(violations)
        assert any("score_window" in v.message for v in violations)

    def test_missing_score_window_is_caught(self, mutated_src):
        """Renaming the batched entry point away trips RPR303 twice."""
        pg = mutated_src / "core" / "dras_pg.py"
        pg.write_text(pg.read_text().replace(
            "def score_window", "def score_batch",
        ).replace("self.score_window(", "self.score_batch("))
        violations = analyze_project(mutated_src, package="repro")
        messages = [v.message for v in violations
                    if v.rule_id == "RPR303"]
        assert any("defines no batched score_window" in m for m in messages)
        assert any("forward called in score_batch()" in m for m in messages)

    def test_numpy_free_proof(self, tmp_path):
        """RPR3xx verifies 21,890,053 params with NumPy import-blocked."""
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
            from repro.check.project import ProjectModel
            from repro.check import shapes

            project = ProjectModel.load({str(SRC)!r}, package="repro")
            counts = shapes.static_table3_counts(project)
            assert counts["theta-pg"] == 21_890_053, counts
            violations = analyze_project({str(SRC)!r})
            assert "numpy" not in sys.modules
            print("verified", counts["theta-pg"], len(violations))
            """), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "verified 21890053" in result.stdout


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
        metrics = mutated_src / "sim" / "metrics.py"
        metrics.write_text(metrics.read_text().replace(
            "def on_finish(self, job: Job, now: float) -> None:",
            "def on_finish(self, job: Job) -> None:",
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
        root = write_tree(tmp_path / "pkg", {
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
        })
        violations = analyze_project(root / "pkg")
        assert [(v.rule_id, "on_reserved" in v.message, "misspelt" in v.message)
                for v in violations] == [("RPR403", True, True)]

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
            Violation("a.py", 3, 0, "RPR201", "unit-mix", "m1"),
            Violation("a.py", 9, 4, "RPR201", "unit-mix", "m1"),
            Violation("b.py", 1, 0, "RPR404", "span-registry", "m2"),
        ]

    def test_json_document(self):
        doc = json.loads(chk_report.to_json(self._violations(), ["src"], True))
        assert doc["count"] == 3 and doc["strict"] is True
        assert doc["findings"][0]["rule"] == "RPR201"

    def test_sarif_document(self):
        sarif = chk_report.to_sarif(
            self._violations(), [("RPR201", "unit-mix", "why")],
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
        extra = vs + [Violation("c.py", 1, 0, "RPR202", "unit-assign", "m3")]
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
        """RPR203 guards the dedup: src/repro has exactly one definition."""
        project = ProjectModel.load(SRC, package="repro")
        defining = [
            info.name for info in project.modules.values()
            if "SECONDS_PER_HOUR" in info.constants
        ]
        assert defining == ["repro.workload.units"]


class TestStrictGateAndRatchet:
    def test_shipped_tree_is_strict_clean(self):
        assert analyze_project(SRC) == []

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
