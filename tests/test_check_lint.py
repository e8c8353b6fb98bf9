"""Unit tests for the static check (repro.check.lint).

Covers the rules, suppressions, the driver, the ``repro check`` CLI and
the NumPy-free promise of the static layer.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check import RULES, lint_paths, lint_source
from repro.check.lint import noqa_comments
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def lint(source, path="src/repro/sim/fixture.py"):
    return lint_source(textwrap.dedent(source), path)


def slugs(violations):
    return [v.slug for v in violations]


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


class TestSuppressions:
    SRC = "def f(a, b):\n    return a.start_time == b.start_time  {comment}\n"

    def test_line_noqa_all(self):
        assert lint(self.SRC.format(comment="# repro: noqa")) == []

    def test_line_noqa_by_slug(self):
        assert lint(self.SRC.format(comment="# repro: noqa[float-time-eq]")) == []

    def test_line_noqa_by_rule_id(self):
        assert lint(self.SRC.format(comment="# repro: noqa[RPR105]")) == []

    def test_line_noqa_wrong_rule_keeps_violation(self):
        found = lint(self.SRC.format(comment="# repro: noqa[bare-except]"))
        assert slugs(found) == ["float-time-eq"]

    def test_noqa_inside_a_string_suppresses_nothing(self):
        src = ("def f(a, b):\n"
               "    if a.start_time == b.start_time: s = '# repro: noqa'\n")
        assert slugs(lint(src)) == ["float-time-eq"]
        assert noqa_comments(src) == {}

    def test_noqa_file_is_not_a_suppression(self):
        src = "# repro: noqa-file\ndef f(history=[]):\n    return history\n"
        assert slugs(lint(src)) == ["mutable-default"]
        assert noqa_comments(src) == {}

    def test_noqa_comments_table(self):
        src = ("x = 1  # justified here  # repro: noqa\n"
               "y = 2  # repro: noqa[RPR105, bare-except]\n")
        assert noqa_comments(src) == {
            1: frozenset(), 2: frozenset({"RPR105", "bare-except"})}


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

    def test_violation_format_has_location(self):
        found = lint("def f(a, b):\n    return a.end_time != b.end_time\n",
                     path="pkg/mod.py")
        assert found[0].format().startswith("pkg/mod.py:2:")
        assert "RPR105" in found[0].format()

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "bad.py").write_text(
            "def f(cache={}):\n    return cache\n"
        )
        (tmp_path / "sim" / "good.py").write_text("x = 1\n")
        found = lint_paths([tmp_path])
        assert slugs(found) == ["mutable-default"]
        assert found[0].path.endswith("sim/bad.py")

    def test_lint_paths_missing_target(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])


class TestCheckCli:
    def test_check_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert main(["check", str(target)]) == 0
        assert "no RPR104-RPR106 violations" in capsys.readouterr().out

    def test_check_violation_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "sim_bad.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["check", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RPR106" in out and "sim_bad.py:3" in out

    def test_check_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "ghost")]) == 2

    def test_default_path_is_the_installed_package(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["check"]) == 0
        assert str(SRC) in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out


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
