"""Tests for the experiment table and ``reproduce all``'s path."""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments import pool
from repro.experiments.runner import (
    EXPERIMENT_IDS,
    combined_report,
    reports_from_rollup,
)


def matrix(tmp_path, only):
    """The reports of an ``experiments`` sweep of ``only`` at tiny."""
    spec = pool.SweepSpec(kind="experiments", scale="tiny",
                          params={"only": list(only)})
    result = pool.run_sweep(spec, tmp_path / "store", workers=0)
    reports, failures = reports_from_rollup(result.rollup)
    assert not failures
    return reports


class TestRunAll:
    """``reproduce all`` is an ``experiments`` sweep run inline."""

    def test_selected_subset(self, tmp_path):
        reports = matrix(tmp_path, ("table1", "table3"))
        assert set(reports) == {"table1", "table3"}
        assert "Table I" in reports["table1"]
        assert "21,890,053" in reports["table3"]

    def test_unknown_id_rejected(self):
        spec = pool.SweepSpec(kind="experiments", params={"only": ["fig99"]})
        with pytest.raises(ValueError, match="unknown experiment"):
            pool.expand_cells(spec)

    def test_progress_callback(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        messages = capsys.readouterr().err.splitlines()
        assert len(messages) == 1
        assert messages[0].strip().startswith("[table1")

    def test_spec_ids_unique_and_complete(self):
        ids = list(EXPERIMENT_IDS)
        assert len(ids) == len(set(ids))
        assert set(ids) == set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "faultsweep", "overhead",
        }

    def test_workload_experiments_at_tiny(self, tmp_path, capsys):
        # reproduce <id> prints, byte for byte, the block a 2-worker
        # sweep of the matrix renders for <id>
        only = ["table1", "table2", "fig2", "fig3", "table3"]  # report order
        assert main(["sweep", "experiments", "--scale", "tiny",
                     "--store", str(tmp_path / "store"), "--workers", "2",
                     "--param", "only=" + json.dumps(only)]) == 0
        swept = capsys.readouterr().out
        reports = {}
        for exp_id in only:
            assert main(["reproduce", exp_id, "--scale", "tiny"]) == 0
            reports[exp_id] = capsys.readouterr().out.removesuffix("\n")
        assert swept == combined_report(reports, "tiny") + "\n"
        assert "Table II" in reports["table2"]
        assert "Fig 2" in reports["fig2"]
        assert "Fig 3" in reports["fig3"]


class TestCombinedReport:
    def test_contains_all_sections(self):
        reports = {"a": "alpha body", "b": "beta body"}
        text = combined_report(reports, "tiny")
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

    def test_failure_outside_expected_still_listed(self):
        text = combined_report({}, "tiny", failures={"c": "ValueError"})
        assert "[c] QUARANTINED — ValueError" in text

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
