"""Public-API surface tests.

Guards the contract a downstream user relies on: everything advertised
in ``__all__`` actually resolves, the version is set, and every example
script at least compiles against the current API.
"""

import ast
import importlib
import pathlib
import py_compile

import pytest

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.check",
    "repro.core",
    "repro.experiments",
    "repro.nn",
    "repro.obs",
    "repro.rl",
    "repro.schedulers",
    "repro.sim",
    "repro.workload",
)


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), package
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_sorted_and_unique(self, package):
        module = importlib.import_module(package)
        exported = [n for n in module.__all__ if n != "__version__"]
        assert len(exported) == len(set(exported)), package

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_star_import_clean(self):
        namespace: dict = {}
        exec("from repro import *", namespace)  # noqa: S102 - deliberate
        assert "DRASPG" in namespace
        assert "run_simulation" in namespace


class TestLayering:
    def test_obs_is_a_leaf(self):
        """``repro.obs`` imports no other ``repro`` package, at any depth.

        The hot layers import it, so an upward edge — even a lazy,
        function-level one — is a cycle waiting to happen.
        """
        obs_dir = pathlib.Path(__file__).parent.parent / "src/repro/obs"
        upward = []
        for path in sorted(obs_dir.glob("**/*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # src/repro imports absolutely everywhere; a relative
                    # import would dodge this check, so it counts as upward
                    targets = [node.module if node.level == 0 else "repro.<relative>"]
                else:
                    continue
                upward += [
                    f"{path.name}:{node.lineno} imports {target}"
                    for target in targets
                    if target.split(".")[0] == "repro"
                    and target.split(".")[:2] != ["repro", "obs"]
                ]
        assert not upward, upward


class TestExamples:
    EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

    def test_examples_exist(self):
        scripts = sorted(self.EXAMPLES_DIR.glob("*.py"))
        names = {s.name for s in scripts}
        assert "quickstart.py" in names
        assert len(scripts) >= 3  # the deliverable minimum

    @pytest.mark.parametrize(
        "script",
        sorted(
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
        ),
        ids=lambda p: p.name,
    )
    def test_example_compiles(self, script, tmp_path):
        py_compile.compile(str(script), cfile=str(tmp_path / "out.pyc"),
                           doraise=True)

    @pytest.mark.parametrize(
        "script",
        sorted(
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
        ),
        ids=lambda p: p.name,
    )
    def test_example_has_main_and_docstring(self, script):
        text = script.read_text()
        assert 'if __name__ == "__main__":' in text, script.name
        assert text.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""')), (
            f"{script.name} must start with a shebang + module docstring"
        )


class TestCLIEntry:
    def test_module_entrypoint_exists(self):
        import repro.__main__  # noqa: F401

    def test_parser_builds(self):
        from repro.cli import build_parser

        parser = build_parser()
        # every documented command is registered, and no other
        assert parser.format_usage() == (
            "usage: repro [-h] {reproduce,generate,simulate,train,fit,check,"
            "report} ...\n")
