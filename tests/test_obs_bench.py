"""Bench-harness smoke tests plus the opt-in full regression check.

Everything in ``TestQuickBench`` runs in tier-1 (``--quick`` reps keep
it to a few seconds).  ``test_full_bench_no_regression`` is marked
``bench`` and therefore deselected by default (``addopts`` carries
``-m 'not bench'``); run it explicitly with ``pytest -m bench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    run_suite,
    validate_bench_doc,
    write_bench_files,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"
sys.path.insert(0, str(SCRIPTS))

from check_bench_regression import (  # noqa: E402
    Comparison,
    compare_docs,
    load_baseline_from_git,
    main as check_bench_main,
)


class TestQuickBench:
    def test_write_bench_files_schema_valid(self, tmp_path):
        """``python -m repro bench --quick`` must produce valid BENCH files."""
        paths = write_bench_files(out_dir=tmp_path, seed=0, quick=True)
        assert [p.name for p in paths] == ["BENCH_sim.json", "BENCH_nn.json"]
        for path in paths:
            doc = json.loads(path.read_text())
            assert validate_bench_doc(doc) == []
            assert doc["schema"] == BENCH_SCHEMA
            assert doc["quick"] is True
            assert doc["manifest"]["kind"] == "bench"

    def test_sim_suite_contents(self, tmp_path):
        (path,) = write_bench_files(out_dir=tmp_path, seed=0, quick=True,
                                    only="sim")
        doc = json.loads(path.read_text())
        names = [e["name"] for e in doc["benchmarks"]]
        assert names == [
            "engine-throughput",
            "engine-throughput-traced",
            "engine-throughput-live",
            "engine-throughput-faulted",
            "backfill-plan",
            "conservative-profile",
            "cluster-release-query",
        ]
        for entry in doc["benchmarks"]:
            assert entry["events_per_s"] > 0
            assert entry["seed"] == 0

    def test_nn_suite_contents(self):
        doc = run_suite("nn", seed=0, quick=True)
        names = [e["name"] for e in doc["benchmarks"]]
        assert names == ["nn-forward", "nn-forward-batched",
                         "nn-forward-shared",
                         "nn-train-step", "nn-train-step-batched"]
        assert all(e["steps_per_s"] > 0 for e in doc["benchmarks"])

    def test_nn_train_step_counts_sample_steps(self):
        """The train-step rate is per *sample*, the update rate per step."""
        doc = run_suite("nn", seed=0, quick=True)
        by_name = {e["name"]: e for e in doc["benchmarks"]}
        for name in ("nn-train-step", "nn-train-step-batched"):
            entry = by_name[name]
            assert entry["extra"]["rate_unit"] == "sample-steps"
            batch = entry["extra"]["batch"]
            updates = entry["extra"]["updates_per_s"]
            assert entry["steps_per_s"] == pytest.approx(updates * batch)
        assert by_name["nn-train-step"]["extra"]["batch"] == 8
        assert by_name["nn-train-step-batched"]["extra"]["batch"] == 64

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_suite("gpu")

    def test_cli_bench_quick(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--quick",
             "--only", "sim", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            cwd=REPO_ROOT, env={"PYTHONPATH": str(REPO_ROOT / "src"),
                                "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "BENCH_sim.json").read_text())
        assert validate_bench_doc(doc) == []


class TestCompareLogic:
    def _doc(self, rate, name="engine-throughput", key="events_per_s"):
        return {
            "schema": BENCH_SCHEMA,
            "kind": "sim",
            "quick": False,
            "benchmarks": [{
                "name": name, "reps": 3, "wall_s": 1.0, key: rate,
                "seed": 0, "git_sha": "x", "extra": {},
            }],
            "manifest": {"kind": "bench"},
        }

    def test_within_tolerance_passes(self):
        (comp,) = compare_docs(self._doc(100.0), self._doc(85.0))
        assert not comp.regressed(0.20)
        assert comp.ratio == pytest.approx(0.85)

    def test_beyond_tolerance_fails(self):
        (comp,) = compare_docs(self._doc(100.0), self._doc(79.0))
        assert comp.regressed(0.20)

    def test_speedup_never_fails(self):
        (comp,) = compare_docs(self._doc(100.0), self._doc(500.0))
        assert not comp.regressed(0.20)

    def test_unmatched_names_skipped(self):
        comparisons = compare_docs(
            self._doc(100.0), self._doc(100.0, name="other"))
        assert comparisons == []

    def test_invalid_doc_rejected(self):
        with pytest.raises(ValueError, match="invalid baseline"):
            compare_docs({"schema": "nope"}, self._doc(1.0))

    def test_comparison_ratio(self):
        comp = Comparison("x", "events_per_s", baseline=200.0, current=100.0)
        assert comp.ratio == 0.5 and comp.regressed(0.20)


class TestGithubAnnotations:
    def _write(self, tmp_path, name, rate, bench_name="engine-throughput"):
        path = tmp_path / name
        path.write_text(json.dumps({
            "schema": BENCH_SCHEMA,
            "kind": "sim",
            "quick": False,
            "benchmarks": [{
                "name": bench_name, "reps": 3, "wall_s": 1.0,
                "events_per_s": rate, "seed": 0, "git_sha": "x", "extra": {},
            }],
            "manifest": {"kind": "bench"},
        }))
        return path

    def _run(self, tmp_path, baseline_rate, current_rate, *extra,
             monkeypatch=None):
        baseline = self._write(tmp_path, "base.json", baseline_rate)
        current = self._write(tmp_path, "cur.json", current_rate)
        return check_bench_main([
            "--current", str(current), "--baseline", str(baseline), *extra])

    def test_regression_emits_error_annotation(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        rc = self._run(tmp_path, 100.0, 50.0, "--github")
        out = capsys.readouterr().out
        assert rc == 1
        assert "::error title=bench regression check::" in out
        assert "regressed" in out

    def test_near_threshold_emits_warning(self, tmp_path, capsys,
                                          monkeypatch):
        # 0.82x: inside the 20% tolerance but within the 5pp warning band
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        rc = self._run(tmp_path, 100.0, 82.0, "--github")
        out = capsys.readouterr().out
        assert rc == 0
        assert "::warning" in out and "::error" not in out

    def test_new_benchmark_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")  # implies --github
        baseline = self._write(tmp_path, "base.json", 100.0)
        current = tmp_path / "cur.json"
        doc = json.loads(self._write(tmp_path, "tmp.json", 100.0).read_text())
        doc["benchmarks"].append(dict(doc["benchmarks"][0],
                                      name="brand-new"))
        current.write_text(json.dumps(doc))
        rc = check_bench_main([
            "--current", str(current), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "::warning" in out
        assert "brand-new: new benchmark with no baseline" in out

    def test_annotations_off_outside_actions(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        rc = self._run(tmp_path, 100.0, 50.0)
        out = capsys.readouterr().out
        assert rc == 1
        assert "::error" not in out and "REGRESSION" in out


@pytest.mark.bench
def test_full_bench_no_regression():
    """Full-rep benchmarks must stay within 20% of the committed baseline.

    Opt-in (``pytest -m bench``): takes minutes and is machine-dependent,
    so it never runs in tier-1.
    """
    for kind in ("sim", "nn"):
        baseline = load_baseline_from_git(f"BENCH_{kind}.json")
        current = run_suite(kind, seed=0, quick=False)
        comparisons = compare_docs(baseline, current)
        assert comparisons, f"no overlapping {kind} benchmarks"
        slow = [c for c in comparisons if c.regressed(0.20)]
        assert not slow, "regressions: " + ", ".join(
            f"{c.name} {c.ratio:.2f}x" for c in slow)
