"""Unit tests for the text chart renderers."""

import pytest

from repro.analysis.plots import hbar_chart, kiviat_text, line_chart, sparkline


class TestHBarChart:
    def test_basic_render(self):
        out = hbar_chart({"a": 1.0, "bb": 2.0})
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ")
        assert "2.00" in lines[1]

    def test_max_value_fills_width(self):
        out = hbar_chart({"x": 4.0})
        assert "█" * 30 in out and "█" * 31 not in out

    def test_zero_values(self):
        out = hbar_chart({"x": 0.0, "y": 0.0})
        assert "█" not in out

    def test_proportionality(self):
        out = hbar_chart({"half": 1.0, "full": 2.0})
        half_line, full_line = out.splitlines()
        assert half_line.count("█") * 2 == full_line.count("█")

    def test_validation(self):
        with pytest.raises(ValueError):
            hbar_chart({})
        with pytest.raises(ValueError):
            hbar_chart({"x": -1.0})


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s == "▁▂▃▄▅▆▇█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestLineChart:
    def test_dimensions(self):
        out = line_chart({"a": [1, 2, 3]})
        # 10 grid rows + legend
        assert len(out.splitlines()) == 11

    def test_extremes_on_boundary_rows(self):
        out = line_chart({"a": [0.0, 10.0]})
        lines = out.splitlines()
        assert "o" in lines[0]      # max on the top row
        assert "o" in lines[-2]     # min on the bottom row

    def test_multiple_series_markers(self):
        out = line_chart({"a": [1, 2], "b": [2, 1]})
        assert "o=a" in out and "x=b" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})


class TestKiviatText:
    def test_groups_by_metric(self):
        out = kiviat_text(
            {"m1": {"util": 1.0, "wait": 0.5}, "m2": {"util": 0.0, "wait": 1.0}}
        )
        assert "[util]" in out and "[wait]" in out
        assert "m1" in out and "m2" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kiviat_text({})
