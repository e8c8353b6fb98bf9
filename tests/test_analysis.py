"""Unit tests for analysis helpers (Kiviat, tables)."""

import numpy as np
import pytest

from repro.analysis.comparison import (
    evaluate_method,
    kiviat_area,
    kiviat_normalize,
)
from repro.analysis.tables import format_table
from repro.schedulers import BinPacking, FCFSEasy
from tests.conftest import make_job


def _jobs():
    return [make_job(size=s, walltime=60.0, submit=float(i * 10))
            for i, s in enumerate((2, 4, 8, 2, 4, 1))]


class TestEvaluateMethod:
    def test_produces_all_pieces(self):
        res = evaluate_method(FCFSEasy(), _jobs(), 8)
        assert res.name == "FCFS"
        assert res.metrics.num_jobs == 6
        assert sum(res.modes.job_share.values()) == pytest.approx(1.0)

    def test_does_not_mutate_input(self):
        jobs = _jobs()
        evaluate_method(FCFSEasy(), jobs, 8)
        from repro.sim.job import JobState

        assert all(j.state is JobState.PENDING for j in jobs)


class TestKiviatNormalize:
    def test_values_in_unit_range(self):
        results = [
            evaluate_method(FCFSEasy(), _jobs(), 8),
            evaluate_method(BinPacking(), _jobs(), 8),
        ]
        norm = kiviat_normalize(results)
        for vals in norm.values():
            for v in vals.values():
                assert 0.0 <= v <= 1.0

    def test_best_method_gets_one(self):
        results = [
            evaluate_method(FCFSEasy(), _jobs(), 8),
            evaluate_method(BinPacking(), _jobs(), 8),
        ]
        norm = kiviat_normalize(results)
        for metric in next(iter(norm.values())):
            values = [norm[m][metric] for m in norm]
            assert max(values) == pytest.approx(1.0)
            # when methods tie on a metric every entry is 1.0; otherwise
            # the worst method is pinned at 0.0
            if len(set(values)) > 1:
                assert min(values) == pytest.approx(0.0)

    def test_single_method_all_ones(self):
        results = [evaluate_method(FCFSEasy(), _jobs(), 8)]
        norm = kiviat_normalize(results)
        assert all(v == 1.0 for v in norm["FCFS"].values())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kiviat_normalize([])


class TestKiviatArea:
    def test_unit_polygon(self):
        values = {f"m{i}": 1.0 for i in range(5)}
        # regular pentagon with unit radius: 5/2 * sin(72deg)
        assert kiviat_area(values) == pytest.approx(2.5 * np.sin(2 * np.pi / 5))

    def test_zero_polygon(self):
        assert kiviat_area({f"m{i}": 0.0 for i in range(5)}) == 0.0

    def test_monotone_in_values(self):
        small = {f"m{i}": 0.5 for i in range(5)}
        large = {f"m{i}": 0.9 for i in range(5)}
        assert kiviat_area(large) > kiviat_area(small)

    def test_requires_three_metrics(self):
        with pytest.raises(ValueError):
            kiviat_area({"a": 1.0, "b": 1.0})


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = out.splitlines()
        assert lines[0].startswith("a ")
        assert "2.500" in out
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_custom_float_format(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.235" in out and "1.2346" not in out

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out
