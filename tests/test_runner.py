"""Tests for the experiment table and ``reproduce all``'s path."""

import json

import pytest

from repro.cli import main
from repro.experiments import faultsweep, pool, runner
from repro.experiments.runner import EXPERIMENT_IDS, combined_report
from repro.schedulers import POLICIES

RULE = "-" * 64


def blocks(text):
    """``{id: block body}`` of a combined report (``QUARANTINED`` rows
    keep their header line as the id)."""
    out = {}
    for block in text.split(f"\n{RULE}\n[")[1:]:
        exp_id, _, body = block.partition(f"\n{RULE}\n")
        out[exp_id.removesuffix("]")] = body
    return out


def matrix(tmp_path, only, **params):
    """The per-experiment blocks of an ``experiments`` sweep of ``only``
    at tiny, rendered from its rollup, and the sweep's result."""
    spec = pool.SweepSpec(kind="experiments", scale="tiny",
                          params={"only": list(only), **params})
    result = pool.run_sweep(spec, tmp_path / "store", workers=0)
    return blocks(runner.TABLE["experiments"].render(spec, result.rollup)), \
        result


def boom(*args):
    raise RuntimeError("boom")


def stand_ins(monkeypatch):
    """Every row but table1 and a two-policy, two-MTBF fault sweep is a
    stand-in, so the matrix (18 cells) runs in a fraction of a second."""
    for exp_id in EXPERIMENT_IDS:
        if exp_id not in ("table1", "faultsweep"):
            monkeypatch.setitem(runner.TABLE, exp_id, runner._report_row(
                lambda spec: f"{spec.kind} stand-in"))
    monkeypatch.setattr(faultsweep, "MTBF_GRID", (0.0, 5000.0))
    monkeypatch.setattr(faultsweep, "POLICY_COLUMNS", {
        name: faultsweep.POLICY_COLUMNS[name] for name in ("FCFS", "SJF")})


def clock_lines(err):
    """The ``  [<id>: …]`` lines of a ``reproduce`` run's stderr."""
    return [line for line in err.splitlines() if line.startswith("  [")]


class TestRunAll:
    """``reproduce all`` is an ``experiments`` sweep run inline."""

    def test_selected_subset(self, tmp_path):
        reports, result = matrix(tmp_path, ("table1", "table3"))
        assert not result.quarantined
        assert set(reports) == {"table1", "table3"}
        assert "Table I" in reports["table1"]
        assert "21,890,053" in reports["table3"]

    def test_unknown_id_rejected(self):
        spec = pool.SweepSpec(kind="experiments", params={"only": ["fig99"]})
        with pytest.raises(ValueError, match="unknown experiment"):
            pool.expand_cells(spec)

    def test_cells_are_each_experiments_own(self):
        spec = pool.SweepSpec(kind="experiments", scale="tiny",
                              params={"only": ["faultsweep", "table1"]})
        own = pool.SweepSpec(kind="faultsweep", scale="tiny",
                             params=spec.params)
        assert pool.expand_cells(spec) == (
            [{"exp": "table1", "cell": {"exp": "table1"}}]
            + [{"exp": "faultsweep", "cell": cell}
               for cell in pool.expand_cells(own)])

    def test_raising_faultsweep_cell_quarantines_only_itself(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(POLICIES, "sjf", boom)
        reports, result = matrix(tmp_path, ("table1", "faultsweep"),
                                 policies=["FCFS", "SJF"],
                                 mtbf_grid=[0.0, 5000.0])
        assert sorted(json.loads(key)["cell"]["policy"]
                      for key in result.quarantined) == ["SJF", "SJF"]
        assert result.completed == 3
        assert set(reports) == {"table1", "faultsweep"}
        assert "Fault sweep: FCFS" in reports["faultsweep"]
        assert "SJF" not in reports["faultsweep"]

    def test_malformed_faultsweep_param_fails_at_expansion(self, tmp_path,
                                                           capsys):
        # a param that must be a list is a non-empty JSON list, never a
        # string read a character at a time, every MTBF is >= 0, the
        # cell budget is a finite number >= 0, and the overhead study's
        # switch is a JSON boolean, never a string that reads as true
        for only, param, message in (
                ("faultsweep", 'policies=["Nope"]',
                 "unknown faultsweep policies ['Nope']"),
                ("faultsweep", 'policies="SJF"',
                 "param policies must be a non-empty JSON list, got 'SJF'"),
                ("faultsweep", "mtbf_grid=2000",
                 "param mtbf_grid must be a non-empty JSON list, got 2000"),
                ("faultsweep", 'mtbf_grid="25"',
                 "param mtbf_grid must be a non-empty JSON list, got '25'"),
                ("faultsweep", "mtbf_grid=[]",
                 "param mtbf_grid must be a non-empty JSON list, got []"),
                ("faultsweep", "mtbf_grid=[-5]",
                 "mtbf_grid values must be numbers >= 0, got [-5]"),
                ("faultsweep", 'only="fig2"',
                 "param only must be a non-empty JSON list, got 'fig2'"),
                ("faultsweep", 'max_wall_s="x"',
                 "param max_wall_s must be a finite number >= 0, got 'x'"),
                ("faultsweep", "max_wall_s=true",
                 "param max_wall_s must be a finite number >= 0, got True"),
                ("faultsweep", "max_wall_s=-1",
                 "param max_wall_s must be a finite number >= 0, got -1"),
                ("faultsweep", "max_wall_s=Infinity",
                 "param max_wall_s must be a finite number >= 0, got inf"),
                ("overhead", "full_size_overhead=no",
                 "param full_size_overhead must be a JSON boolean, got 'no'"),
                ("overhead", 'full_size_overhead="false"',
                 "param full_size_overhead must be a JSON boolean, "
                 "got 'false'"),
                ("overhead", "full_size_overhead=0",
                 "param full_size_overhead must be a JSON boolean, got 0")):
            store = tmp_path / "store"
            assert main(["reproduce", "all", "--scale", "tiny",
                         "--run-dir", str(store),
                         "--param", f'only=["{only}"]',
                         "--param", param]) == 2, param
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"bad sweep spec: {message}")
            assert captured.err.count("\n") == 1, captured.err
            assert not store.exists()

    def test_store_of_one_cell_per_experiment_is_refused(self, tmp_path,
                                                         capsys):
        # the shape an experiments store had when each cell was a whole
        # experiment: resuming it, or re-rendering it, writes nothing
        spec = pool.SweepSpec(kind="experiments", scale="tiny",
                              params={"only": ["table1"]})
        store = pool.SweepStore(tmp_path / "store")
        store.initialise(spec, resume=False)
        shard = store.open_shard(1, spec.digest())
        old = {"exp": "table1"}
        shard.write({"type": "cell", "key": pool.cell_key(old), "cell": old,
                     "status": "ok",
                     "summary": {"exp": "table1", "report": "Table I"}})
        shard.close()
        pool.write_rollup(store, pool.merge_store(store, total=1))

        def files():
            return {p: p.read_bytes() for p in store.root.rglob("*")
                    if p.is_file()}

        before = files()
        assert main(["reproduce", "all", "--scale", "tiny",
                     "--run-dir", str(store.root), "--resume",
                     "--param", 'only=["table1"]']) == 2
        assert "holds cells this sweep does not expand to" in \
            capsys.readouterr().err
        assert main(["report", str(store.root)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "cannot build report: rollup holds cells this experiments sweep")
        assert files() == before

    def test_reproduce_all_prints_one_line_per_experiment(
            self, tmp_path, monkeypatch, capsys):
        stand_ins(monkeypatch)
        run = tmp_path / "run"
        assert main(["reproduce", "all", "--scale", "tiny",
                     "--run-dir", str(run)]) == 0
        lines = clock_lines(capsys.readouterr().err)
        assert [line.split(":")[0] for line in lines] == [
            f"  [{exp_id}" for exp_id in EXPERIMENT_IDS]
        assert all(": done in " in line for line in lines)
        manifest = json.loads((run / "manifest.json").read_text())
        assert set(manifest["summary"]["wall_s"]) == set(EXPERIMENT_IDS)

    def test_two_workers_print_one_line_per_experiment(
            self, tmp_path, monkeypatch, capsys):
        stand_ins(monkeypatch)
        assert main(["reproduce", "all", "--scale", "tiny",
                     "--workers", "2"]) == 0
        lines = clock_lines(capsys.readouterr().err)
        assert sorted(line.split(":")[0] for line in lines) == sorted(
            f"  [{exp_id}" for exp_id in EXPERIMENT_IDS)
        assert all(": done in " in line for line in lines)

    def test_resumed_run_prints_one_line_per_experiment_it_runs(
            self, tmp_path, monkeypatch, capsys):
        stand_ins(monkeypatch)
        monkeypatch.setitem(runner.TABLE, "fig6", runner._report_row(boom))
        sjf = POLICIES["sjf"]
        monkeypatch.setitem(POLICIES, "sjf", boom)
        run = tmp_path / "run"
        argv = ["reproduce", "all", "--scale", "tiny", "--run-dir", str(run)]
        assert main(argv) == 1
        lines = clock_lines(capsys.readouterr().err)
        assert [line for line in lines if "failed after" in line] == [
            line for line in lines if line.startswith(("  [fig6:",
                                                       "  [faultsweep:"))]
        # the resumed run reruns fig6 and SJF's two fault-sweep cells only
        monkeypatch.setitem(runner.TABLE, "fig6", runner._report_row(
            lambda spec: "fig6 stand-in"))
        monkeypatch.setitem(POLICIES, "sjf", sjf)
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert [line.split(":")[0] for line in clock_lines(err)] == [
            "  [fig6", "  [faultsweep"]
        assert all(": done in " in line for line in clock_lines(err))
        assert "(15 resumed, 0 quarantined this run)" in err

    def test_progress_callback(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        messages = capsys.readouterr().err.splitlines()
        assert len(messages) == 2
        assert messages[0].strip().startswith("[table1")
        assert messages[1].startswith(
            "reproduce: 1/1 cells complete (0 resumed, 0 quarantined this "
            "run), rollup digest ")

    def test_spec_ids_unique_and_complete(self, capsys):
        ids = list(EXPERIMENT_IDS)
        assert len(ids) == len(set(ids))
        # the reproduce parser's choices are these ids, in report order
        with pytest.raises(SystemExit):
            main(["reproduce", "--help"])
        assert "{%s}" % ",".join(ids + ["all", "selftest"]) in \
            capsys.readouterr().out
        assert set(ids) == {
            "table1", "table2", "table3", "table4",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "ablations", "faultsweep", "overhead",
        }

    def test_workload_experiments_at_tiny(self, tmp_path, capsys):
        # reproduce <id> prints, byte for byte, the block a 2-worker
        # sweep of the matrix renders for <id>
        only = ["table1", "table2", "fig2", "fig3", "table3"]  # report order
        assert main(["reproduce", "all", "--scale", "tiny",
                     "--run-dir", str(tmp_path / "store"), "--workers", "2",
                     "--param", "only=" + json.dumps(only)]) == 0
        swept = capsys.readouterr().out
        reports = {}
        for exp_id in only:
            assert main(["reproduce", exp_id, "--scale", "tiny"]) == 0
            reports[exp_id] = capsys.readouterr().out.removesuffix("\n")
        assert swept == combined_report(reports, "tiny", expected=only) \
            + "\n"
        assert "Table II" in reports["table2"]
        assert "Fig 2" in reports["fig2"]
        assert "Fig 3" in reports["fig3"]


class TestCombinedReport:
    def test_contains_all_sections(self):
        reports = {"a": "alpha body", "b": "beta body"}
        text = combined_report(reports, "tiny", expected=["a", "b"])
        assert "[a]" in text and "[b]" in text
        assert "alpha body" in text and "beta body" in text
        assert "scale: tiny" in text

    def test_missing_expected_cell_renders_quarantined(self):
        text = combined_report({"a": "alpha body"}, "tiny",
                               expected=["a", "b"])
        assert "[a]" in text and "alpha body" in text
        assert "[b] QUARANTINED — no result recorded" in text
        assert "1 of 2 experiment(s) quarantined" in text
        assert "partial" in text

    def test_failure_reason_is_rendered(self):
        text = combined_report(
            {"a": "alpha body"}, "tiny", expected=["a", "b"],
            failures={"b": "CellTimeout"})
        assert "[b] QUARANTINED — CellTimeout" in text
        assert "--resume" in text

    def test_complete_report_has_no_partial_trailer(self):
        text = combined_report({"a": "x", "b": "y"}, "tiny",
                               expected=["a", "b"])
        assert "QUARANTINED" not in text
        assert "partial" not in text


class TestCLIAll:
    def test_reproduce_all_subset_via_runner(self, capsys):
        # the 'all' CLI path is the same inline sweep as one experiment's;
        # the full matrix is covered by the benchmark suite
        rc = main(["reproduce", "table1"])
        assert rc == 0
        capsys.readouterr()
