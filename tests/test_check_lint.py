"""Unit tests for the determinism lint engine (repro.check).

Covers the per-file rules, suppressions, the driver, the
report/baseline machinery, the ratchet script and the NumPy-free
promise of the static layer.
"""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check import LintConfig, RULES, Rule, lint_paths, lint_source, register
from repro.check import report as chk_report
from repro.check.lint import Violation
from repro.check.rules import Finding
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def lint(source, path="src/repro/sim/fixture.py", config=None):
    return lint_source(textwrap.dedent(source), path, config)


def slugs(violations):
    return [v.slug for v in violations]


class TestGlobalRngRule:
    def test_numpy_global_call_flagged(self):
        src = """
        import numpy as np

        def pick(jobs):
            return jobs[np.random.randint(len(jobs))]
        """
        found = lint(src)
        assert slugs(found) == ["global-rng"]
        assert "np.random.randint" in found[0].message
        assert found[0].line == 5

    def test_numpy_seed_flagged(self):
        found = lint("import numpy as np\nnp.random.seed(0)\n")
        assert slugs(found) == ["global-rng"]

    def test_seeded_generator_allowed(self):
        src = """
        import numpy as np

        def make(seed):
            rng = np.random.default_rng(seed)
            return rng.integers(10)
        """
        assert lint(src) == []

    def test_stdlib_module_call_flagged(self):
        src = """
        import random

        def shuffle_jobs(jobs):
            random.shuffle(jobs)
        """
        found = lint(src)
        assert slugs(found) == ["global-rng"]
        assert "random.Random" in found[0].message

    def test_stdlib_from_import_flagged(self):
        src = """
        from random import choice

        def pick(jobs):
            return choice(jobs)
        """
        found = lint(src)
        assert slugs(found) == ["global-rng"]

    def test_explicit_random_instance_allowed(self):
        src = """
        import random

        def make(seed):
            return random.Random(seed)
        """
        assert lint(src) == []

    def test_out_of_scope_path_not_flagged(self):
        src = "import numpy as np\nnp.random.rand(3)\n"
        assert lint(src, path="src/repro/analysis/fixture.py") == []
        assert slugs(lint(src, path="src/repro/workload/fixture.py")) == ["global-rng"]


class TestUnseededRngRule:
    def test_unseeded_default_rng_flagged(self):
        found = lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert slugs(found) == ["unseeded-rng"]

    def test_seeded_default_rng_allowed(self):
        assert lint("import numpy as np\nrng = np.random.default_rng(42)\n") == []

    def test_from_import_unseeded_flagged(self):
        src = "from numpy.random import default_rng\nrng = default_rng()\n"
        assert slugs(lint(src)) == ["unseeded-rng"]

    def test_applies_outside_sim_scope(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert slugs(lint(src, path="src/repro/analysis/fixture.py")) == ["unseeded-rng"]


class TestWallClockRule:
    def test_time_time_flagged(self):
        found = lint("import time\nstamp = time.time()\n")
        assert slugs(found) == ["wall-clock"]

    def test_perf_counter_allowed(self):
        assert lint("import time\nt0 = time.perf_counter()\n") == []

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert slugs(lint(src)) == ["wall-clock"]

    def test_datetime_module_chain_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert slugs(lint(src)) == ["wall-clock"]

    def test_from_time_import_time_flagged(self):
        src = "from time import time\nstamp = time()\n"
        assert slugs(lint(src)) == ["wall-clock"]

    def test_profiling_whitelist(self):
        src = "import time\nstamp = time.time()\n"
        assert lint(src, path="src/repro/experiments/overhead.py") == []
        assert lint(src, path="src/repro/sim/profile.py") == []


class TestMutableDefaultRule:
    def test_list_literal_flagged(self):
        found = lint("def f(history=[]):\n    return history\n")
        assert slugs(found) == ["mutable-default"]

    def test_dict_call_flagged(self):
        found = lint("def f(*, cache=dict()):\n    return cache\n")
        assert slugs(found) == ["mutable-default"]

    def test_none_and_tuple_allowed(self):
        assert lint("def f(a=None, b=(), c=0):\n    return a, b, c\n") == []


class TestFloatTimeEqRule:
    def test_timestamp_equality_flagged(self):
        src = """
        def same_instant(a, b):
            return a.submit_time == b.submit_time
        """
        found = lint(src)
        assert slugs(found) == ["float-time-eq"]

    def test_ordering_allowed(self):
        src = """
        def earlier(a, b):
            return a.submit_time < b.submit_time
        """
        assert lint(src) == []

    def test_len_comparison_not_flagged(self):
        src = """
        def mismatch(times, free):
            return len(times) != len(free)
        """
        assert lint(src) == []

    def test_none_comparison_not_flagged(self):
        src = """
        def unstarted(job):
            return job.start_time == None
        """
        assert lint(src) == []


class TestBareExceptRule:
    def test_bare_except_flagged(self):
        src = """
        def run(step):
            try:
                step()
            except:
                return None
        """
        found = lint(src)
        assert slugs(found) == ["bare-except"]
        assert "bare" in found[0].message

    def test_swallowed_exception_flagged(self):
        src = """
        def run(step):
            try:
                step()
            except Exception:
                pass
        """
        assert slugs(lint(src)) == ["bare-except"]

    def test_narrow_handler_allowed(self):
        src = """
        def run(step):
            try:
                step()
            except ValueError:
                pass
        """
        assert lint(src) == []

    def test_handled_broad_exception_allowed(self):
        src = """
        def run(step, log):
            try:
                step()
            except Exception as exc:
                log(exc)
                raise
        """
        assert lint(src) == []


class TestFloatAccumOrderRule:
    """RPR107 — was RPR506, parked behind the hotness gate until PR 17."""

    def test_augmented_accumulation_over_set_flagged(self):
        src = """
        def accumulate(values):
            total = 0.0
            for v in set(values):
                total += v
            return total
        """
        found = lint(src)
        assert slugs(found) == ["float-accum-order"]
        assert found[0].rule_id == "RPR107"
        assert found[0].message == \
            "float accumulation over unordered set iteration"
        assert found[0].line == 5

    def test_sum_over_set_iteration_flagged(self):
        src = """
        def total_mass(a, b):
            return sum(x.mass for x in a.intersection(b))
        """
        found = lint(src)
        assert slugs(found) == ["float-accum-order"]
        assert found[0].message == "sum() over unordered set iteration"

    def test_cold_function_outside_any_package_flagged(self):
        # no profiler anchor, no call path from Engine.run, not even a
        # sim/ path: the old hotness gate would have hidden this
        src = """
        def report_footer(sizes):
            area = 1.0
            for s in {float(x) for x in sizes}:
                area *= s
            return area
        """
        assert slugs(lint(src, path="tools/report.py")) == ["float-accum-order"]

    def test_ordered_iteration_allowed(self):
        src = """
        def accumulate(values):
            total = 0.0
            for v in sorted(set(values)):
                total += v
            return total + sum(x for x in values)
        """
        assert lint(src) == []


class TestSuppressions:
    SRC = "import time\nstamp = time.time()  {comment}\n"

    def test_line_noqa_all(self):
        assert lint(self.SRC.format(comment="# repro: noqa")) == []

    def test_line_noqa_by_slug(self):
        assert lint(self.SRC.format(comment="# repro: noqa[wall-clock]")) == []

    def test_line_noqa_by_rule_id(self):
        assert lint(self.SRC.format(comment="# repro: noqa[RPR103]")) == []

    def test_line_noqa_wrong_rule_keeps_violation(self):
        found = lint(self.SRC.format(comment="# repro: noqa[global-rng]"))
        assert slugs(found) == ["wall-clock"]

    def test_file_noqa_all(self):
        src = "# repro: noqa-file\nimport time\nstamp = time.time()\n"
        assert lint(src) == []

    def test_file_noqa_by_rule(self):
        src = (
            "# repro: noqa-file[wall-clock]\n"
            "import time\n"
            "import numpy as np\n"
            "stamp = time.time()\n"
            "rng = np.random.default_rng()\n"
        )
        assert slugs(lint(src)) == ["unseeded-rng"]


class TestEngine:
    def test_clean_source_passes(self):
        src = """
        import numpy as np

        def simulate(seed):
            rng = np.random.default_rng(seed)
            return float(rng.random())
        """
        assert lint(src) == []

    def test_syntax_error_reported_not_raised(self):
        found = lint("def broken(:\n")
        assert len(found) == 1
        assert found[0].rule_id == "RPR000"

    def test_select_and_ignore(self):
        src = "import time\nimport numpy as np\n" \
              "stamp = time.time()\nrng = np.random.default_rng()\n"
        only_clock = lint(src, config=LintConfig().with_overrides(select=["wall-clock"]))
        assert slugs(only_clock) == ["wall-clock"]
        no_clock = lint(src, config=LintConfig().with_overrides(ignore=["RPR103"]))
        assert slugs(no_clock) == ["unseeded-rng"]

    def test_violation_format_has_location(self):
        found = lint("import time\nstamp = time.time()\n", path="pkg/mod.py")
        assert found[0].format().startswith("pkg/mod.py:2:")
        assert "RPR103" in found[0].format()

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "bad.py").write_text(
            "import numpy as np\nnp.random.rand(2)\n"
        )
        (tmp_path / "sim" / "good.py").write_text("x = 1\n")
        found = lint_paths([tmp_path])
        assert slugs(found) == ["global-rng"]
        assert found[0].path.endswith("sim/bad.py")

    def test_lint_paths_missing_target(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_registry_is_pluggable(self):
        class TodoRule(Rule):
            id = "RPR999"
            slug = "no-todo"
            rationale = "test rule"

            def check_module(self, info):
                for lineno, line in enumerate(info.source.splitlines(), start=1):
                    if "TODO" in line:
                        yield Finding(info.path, lineno, 0, "unresolved TODO")

        register(TodoRule)
        try:
            found = lint("x = 1  # TODO later\n")
            assert slugs(found) == ["no-todo"]
        finally:
            del RULES["no-todo"]

    def test_duplicate_registration_rejected(self):
        class Dupe(Rule):
            id = "RPR101"
            slug = "global-rng"

            def check(self, tree, ctx):
                return iter(())

        with pytest.raises(ValueError, match="duplicate"):
            register(Dupe)


class TestCheckCli:
    def test_check_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert main(["check", str(target)]) == 0
        assert "no determinism" in capsys.readouterr().out

    def test_check_violation_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "sim_bad.py"
        target.write_text("import time\nstamp = time.time()\n")
        assert main(["check", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RPR103" in out and "sim_bad.py:2" in out

    def test_check_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "ghost")]) == 2

    def test_unknown_rule_name_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["check", "--select", "wall-clok", str(target)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES.values():
            assert rule.id in out


class TestReportAndBaseline:
    def _violations(self) -> list[Violation]:
        return [
            Violation("a.py", 3, 0, "RPR103", "wall-clock", "m1"),
            Violation("a.py", 9, 4, "RPR103", "wall-clock", "m1"),
            Violation("b.py", 1, 0, "RPR104", "mutable-default", "m2"),
        ]

    def test_json_document(self):
        doc = json.loads(chk_report.to_json(self._violations(), ["src"]))
        assert doc["count"] == 3 and "strict" not in doc
        assert doc["findings"][0]["rule"] == "RPR103"

    def test_sarif_document(self):
        sarif = chk_report.to_sarif(
            self._violations(), [("RPR103", "wall-clock", "why")],
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
        extra = vs + [Violation("c.py", 1, 0, "RPR106", "bare-except", "m3")]
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


class TestGateAndRatchet:
    def test_numpy_free_proof(self, tmp_path):
        """The static check runs with NumPy import-blocked."""
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

            from repro.check import lint_paths

            violations = lint_paths([{str(SRC)!r}])
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
        spec = importlib.util.spec_from_file_location(
            "check_ratchet", REPO / "scripts" / "check_ratchet.py")
        check_ratchet = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_ratchet)
        assert check_ratchet.EXPECTED_RULE_IDS == {
            rule.id for rule in RULES.values()}
        monkeypatch.delitem(RULES, "mutable-default")
        assert check_ratchet.main([]) == 2
        err = capsys.readouterr().err
        assert "RPR104" in err and "not registered" in err
