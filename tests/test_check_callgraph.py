"""Tests for the static call graph (``repro.check.callgraph``).

Covers call resolution (``self.m()`` dispatch, import-qualified calls,
bounded name matching with the common-method blocklist), the
scheduler-``schedule`` root resolver the RPR6xx rules start from, and a
byte-level pin of ``repro check --effects-report`` — the artifact built
on this graph — against a copy recorded with the analyzer as it stood
before the graph moved out of the retired ``repro.check.hotness``.
"""

from __future__ import annotations

import hashlib
import textwrap
from pathlib import Path

from repro.check.callgraph import (
    build_call_graph,
    index_functions,
    schedule_roots,
)
from repro.check.project import ProjectModel
from repro.cli import main


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return root


class TestCallGraph:
    def test_self_dispatch_includes_subclass_overrides(self, tmp_path):
        root = write_tree(tmp_path / "pkg", {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Base:
                    def run(self):
                        return self.helper()

                    def helper(self):
                        return 1

                class Child(Base):
                    def helper(self):
                        return 2
            """,
        })
        project = ProjectModel.load(root / "pkg", package="pkg")
        index = index_functions(project)
        graph = build_call_graph(project, index)
        assert set(graph.edges["pkg.mod.Base.run"]) == {
            "pkg.mod.Base.helper", "pkg.mod.Child.helper"}

    def test_imported_name_call_and_instantiation(self, tmp_path):
        root = write_tree(tmp_path / "pkg", {
            "pkg/__init__.py": "",
            "pkg/lib.py": """
                class Widget:
                    def __init__(self):
                        self.x = 1

                def make():
                    return 0
            """,
            "pkg/app.py": """
                from pkg.lib import Widget, make

                def build():
                    make()
                    return Widget()
            """,
        })
        project = ProjectModel.load(root / "pkg", package="pkg")
        index = index_functions(project)
        graph = build_call_graph(project, index)
        assert "pkg.lib.make" in graph.edges["pkg.app.build"]
        assert "pkg.lib.Widget.__init__" in graph.edges["pkg.app.build"]
        assert graph.instantiated["pkg.app.build"] == ("pkg.lib.Widget",)

    def test_common_method_names_never_name_match(self, tmp_path):
        root = write_tree(tmp_path / "pkg", {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Store:
                    def append(self, item):
                        return item

                    def recompute(self):
                        return 0

                def caller(q):
                    q.append(1)
                    return q.recompute()
            """,
        })
        project = ProjectModel.load(root / "pkg", package="pkg")
        index = index_functions(project)
        graph = build_call_graph(project, index)
        edges = set(graph.edges["pkg.mod.caller"])
        # append is on the ubiquitous-name blocklist; recompute is a
        # unique project method, so bounded name matching resolves it
        assert "pkg.mod.Store.append" not in edges
        assert "pkg.mod.Store.recompute" in edges


class TestScheduleRoots:
    def test_schedule_roots_cover_every_scheduler(self, tmp_path):
        root = write_tree(tmp_path / "tree", {
            "repro/__init__.py": "",
            "repro/schedulers/__init__.py": "",
            "repro/schedulers/base.py": """
                class BaseScheduler:
                    def schedule(self, view):
                        raise NotImplementedError
            """,
            "repro/schedulers/fcfs.py": """
                from repro.schedulers.base import BaseScheduler

                class FCFSEasy(BaseScheduler):
                    def schedule(self, view):
                        return None

                class Inherits(FCFSEasy):
                    pass
            """,
        })
        project = ProjectModel.load(root / "repro", package="repro")
        assert schedule_roots(project, index_functions(project)) == [
            "repro.schedulers.base.BaseScheduler.schedule",
            "repro.schedulers.fcfs.FCFSEasy.schedule",
        ]


#: exercises every resolution path the report depends on: an
#: import-qualified call, ``self.m()`` dispatch reaching a subclass
#: override, instantiation, a ``functools.partial`` edge and bounded
#: name matching (``sink.record``, ``job().run``)
EFFECTS_TREE = {
    "pkg/__init__.py": "",
    "pkg/clock.py": """
        import time

        def stamp():
            return time.time()
    """,
    "pkg/base.py": """
        import os
        import numpy as np

        from pkg.clock import stamp

        class Base:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def run(self):
                return self.step() + self.helper()

            def step(self):
                return float(self._rng.random())

            def helper(self):
                return 0.0

        class Child(Base):
            def helper(self):
                return stamp()

        def configured():
            return os.environ.get("PKG_MODE", "")
    """,
    "pkg/app.py": """
        from functools import partial

        from pkg.base import Child, configured

        def build(seed):
            return Child(seed)

        def drive(seed, sink):
            job = partial(build, seed)
            sink.record(job().run())
            return configured()

        class Sink:
            def record(self, value):
                with open("out.txt", "w") as fh:
                    fh.write(str(value))
    """,
}

#: sha256 of the report the PR-16 analyzer (call graph still inside
#: ``repro.check.hotness``) wrote for ``EFFECTS_TREE``
EFFECTS_REPORT_SHA256 = \
    "6328840900899229730d80e9a22a30f453fd77ef7792d10192e674b93042aa40"


class TestEffectsReportPinned:
    def test_report_bytes_match_the_pre_move_recording(
            self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dict(EFFECTS_TREE))
        monkeypatch.chdir(tmp_path)  # the report embeds the paths as given
        assert main(["check", "-q", "--effects-report", "effects.json",
                     "pkg"]) == 0
        written = (tmp_path / "effects.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == EFFECTS_REPORT_SHA256, \
            written.decode()
