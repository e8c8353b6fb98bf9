"""HTML run report: SVG well-formedness, sections, self-containment."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.obs.analyze import summarize_trace
from repro.obs.manifest import RunManifest
from repro.obs.metrics import Timer
from repro.obs.report import (
    render_report,
    svg_hbar,
    svg_histogram,
    svg_line_chart,
    write_report,
)
from repro.schedulers.fcfs import FCFSEasy
from repro.sim.engine import run_simulation
from repro.sim.metrics import RunMetrics
from repro.workload.models import ThetaModel


def _svgs(html):
    return re.findall(r"<svg.*?</svg>", html, re.DOTALL)


def _assert_well_formed(svg):
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    text = ET.tostring(root, encoding="unicode")
    assert "NaN" not in text and "Infinity" not in text


class TestCharts:
    def test_line_chart_well_formed(self):
        points = [(float(i), float(i * i % 7)) for i in range(20)]
        svg = svg_line_chart([("reward", points)])
        _assert_well_formed(svg)
        assert "polyline" in svg or "path" in svg
        assert "<title>" in svg  # native tooltips

    def test_line_chart_two_series_and_step(self):
        a = [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]
        b = [(0.0, 0.5), (1.0, 0.8)]
        _assert_well_formed(svg_line_chart([("train", a), ("validation", b)]))
        _assert_well_formed(svg_line_chart([("queue", a)], step=True))

    def test_line_chart_skips_non_finite(self):
        points = [(0.0, 1.0), (1.0, float("nan")), (2.0, 3.0)]
        svg = svg_line_chart([("loss", points)])
        _assert_well_formed(svg)

    def test_line_chart_empty_returns_empty(self):
        assert svg_line_chart([]) == ""
        assert svg_line_chart([("x", [])]) == ""
        assert svg_line_chart([("x", [(0.0, float("nan"))])]) == ""

    def test_histogram_chart(self):
        timer = Timer()
        for i in range(50):
            timer.observe(0.001 * (i + 1))
        svg = svg_histogram(timer)
        _assert_well_formed(svg)
        # 1..50 ms: the occupied bins, 10**-3 .. 10**-1.25 s, are seven
        assert svg.count("<rect") == 7
        assert svg_histogram(Timer()) == ""
        # the underflow and overflow bins draw with open-ended edges
        for seconds in (0.0, 1e3):
            timer.observe(seconds)
        _assert_well_formed(svg_histogram(timer))

    def test_hbar_chart_escapes_labels(self):
        svg = svg_hbar([("engine.run", 3.0), ("<evil> & co", 1.0)])
        _assert_well_formed(svg)
        assert "<evil>" not in svg
        assert "&lt;evil&gt;" in svg


class TestRenderReport:
    def test_empty_report(self):
        html = render_report(title="empty")
        assert "No artifacts" in html
        assert "<title>empty</title>" in html

    def test_title_escaped(self):
        html = render_report(title="<script>alert(1)</script>")
        assert "<script>alert" not in html

    def test_full_report_sections_and_self_containment(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        jobs = ThetaModel.scaled(32).generate(60, np.random.default_rng(0))
        run_simulation(32, FCFSEasy(), jobs, trace=trace_path)
        telemetry = [
            {"episode": i, "phase": "sampled", "train_reward": -1.0 + 0.1 * i,
             "validation_reward": -1.2 + 0.1 * i, "loss": 2.0 / (i + 1),
             "grad_norm": 1.0, "entropy": 0.5, "utilization": 0.7,
             "queue_depth_max": 5, "anomalies": []}
            for i in range(6)
        ]
        html = render_report(
            title="run",
            manifest={"schema": "repro.run/v1", "kind": "train", "seed": 3,
                      "config": {"num_nodes": 32}},
            telemetry=telemetry,
            trace=summarize_trace(trace_path),
        )
        for heading in ("Training telemetry", "Trace analytics", "Manifest"):
            assert heading in html
        assert "Benchmarks" not in html  # absent artifact, absent section
        svgs = _svgs(html)
        assert len(svgs) >= 6
        for svg in svgs:
            _assert_well_formed(svg)
        # self-contained: no external fetches (the SVG xmlns identifier
        # is the only URL-shaped string allowed)
        stripped = html.replace('xmlns="http://www.w3.org/2000/svg"', "")
        for marker in ("http://", "https://", "src=", "@import", "url("):
            assert marker not in stripped
        # every chart card ships a table-view twin
        assert html.count("<details") >= len(svgs) - 1

    def test_tiles_read_a_simulate_manifest(self):
        """A manifest alone tiles its policy, seed, node count and the
        metrics of its summary."""
        jobs = ThetaModel.scaled(32).generate(40, np.random.default_rng(0))
        metrics = RunMetrics.from_result(
            run_simulation(32, FCFSEasy(), jobs)).as_dict()
        manifest = RunManifest.create(
            kind="simulate", seed=5, sha="abc1234", timestamp=False,
            config={"trace": "t.swf", "nodes": 32, "policy": "fcfs-easy"},
            summary=metrics).as_dict()

        def tiles(html):
            return re.findall(r'<div class="label">(.*?)</div>'
                              r'<div class="value">(.*?)</div>', html)

        shown = tiles(render_report(manifest=manifest))
        assert [label for label, _ in shown] == [
            "policy", "seed", "nodes", "jobs finished", "avg wait (s)",
            "avg slowdown", "utilization", "makespan (s)"]
        assert shown[:3] == [("policy", "fcfs-easy"), ("seed", "5"),
                             ("nodes", "32")]

    def test_anomaly_banner(self):
        telemetry = [
            {"episode": 0, "train_reward": 1.0, "loss": 1.0, "anomalies": []},
            {"episode": 1, "train_reward": float("nan"), "loss": float("nan"),
             "anomalies": ["nan_grad"]},
        ]
        html = render_report(telemetry=telemetry)
        assert "anomal" in html.lower()
        assert "nan_grad" in html

    def test_write_report_creates_parents(self, tmp_path):
        out = write_report(tmp_path / "deep" / "nested" / "r.html",
                           title="x")
        assert out.exists()
        assert out.read_text().startswith("<!doctype html>")

    def test_dark_mode_palette_present(self):
        html = render_report(title="x")
        assert "prefers-color-scheme: dark" in html
