"""Unit tests for trace statistics and model fitting."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.workload.models import ThetaModel
from repro.workload.stats import analyze_trace, fit_model
from tests.conftest import make_job


class TestAnalyzeTrace:
    def test_rejects_degenerate_traces(self):
        with pytest.raises(ValueError, match="two jobs"):
            analyze_trace([make_job()])
        with pytest.raises(ValueError, match="zero time span"):
            analyze_trace([make_job(submit=5.0), make_job(submit=5.0)])

    def test_basic_quantities(self):
        jobs = [make_job(size=2, walltime=100.0, runtime=50.0,
                         submit=float(i * 10)) for i in range(11)]
        stats = analyze_trace(jobs, num_nodes=8)
        assert stats.num_jobs == 11
        assert stats.span_seconds == 100.0
        assert stats.arrival_rate == pytest.approx(0.1)
        assert stats.size_mix == {2: 1.0}
        assert stats.max_runtime == 50.0
        assert stats.mean_overestimate == pytest.approx(1.0)  # 100/50 - 1

    def test_profiles_mean_one(self, rng):
        model = ThetaModel.scaled(64)
        jobs = model.generate(2000, rng)
        stats = analyze_trace(jobs, 64)
        assert np.mean(stats.hourly_profile) == pytest.approx(1.0)
        assert np.mean(stats.daily_profile) == pytest.approx(1.0)

    def test_recovers_generator_statistics(self, rng):
        """Analyzing a generated trace recovers the model's parameters."""
        model = ThetaModel.scaled(128)
        jobs = model.generate(4000, rng)
        stats = analyze_trace(jobs, 128)
        assert stats.arrival_rate == pytest.approx(
            model.arrivals.base_rate, rel=0.15
        )
        assert stats.runtime_median == pytest.approx(
            model.runtimes.median, rel=0.2
        )
        assert stats.offered_load_per_node == pytest.approx(
            model.offered_load(), rel=0.25
        )

    def test_dependency_prob(self):
        jobs = [make_job(submit=float(i), job_id=i + 1) for i in range(9)]
        jobs.append(make_job(submit=9.0, deps=(1,), job_id=10))
        stats = analyze_trace(jobs, 8)
        assert stats.dependency_prob == pytest.approx(0.1)

    def test_diurnal_shape_detected(self, rng):
        model = ThetaModel.scaled(64)
        jobs = model.generate(5000, rng)
        stats = analyze_trace(jobs, 64)
        afternoon = np.mean(stats.hourly_profile[12:18])
        night = np.mean(stats.hourly_profile[0:6])
        assert afternoon > night


class TestFitModel:
    def test_fit_generates_similar_trace(self, rng):
        reference = ThetaModel.scaled(128)
        trace = reference.generate(4000, rng)
        fitted = fit_model(trace, 128)
        regenerated = fitted.generate(4000, np.random.default_rng(7))
        a = analyze_trace(trace, 128)
        b = analyze_trace(regenerated, 128)
        assert b.arrival_rate == pytest.approx(a.arrival_rate, rel=0.2)
        assert b.runtime_median == pytest.approx(a.runtime_median, rel=0.3)
        assert b.offered_load_per_node == pytest.approx(
            a.offered_load_per_node, rel=0.35
        )

    def test_size_mix_preserved(self, rng):
        reference = ThetaModel.scaled(128)
        trace = reference.generate(4000, rng)
        fitted = fit_model(trace, 128)
        # fitted support is a subset of observed sizes
        observed = {j.size for j in trace}
        assert set(fitted.sizes.sizes) <= observed

    def test_category_truncation(self, rng):
        jobs = [make_job(size=s % 50 + 1, submit=float(s)) for s in range(500)]
        fitted = fit_model(jobs, 64, max_size_categories=8)
        assert len(fitted.sizes.sizes) <= 8

    def test_fitted_model_is_usable_end_to_end(self, rng):
        from repro.schedulers import FCFSEasy
        from repro.sim.engine import run_simulation

        reference = ThetaModel.scaled(64)
        fitted = fit_model(reference.generate(1000, rng), 64, name="refit")
        jobs = fitted.generate(200, np.random.default_rng(3))
        result = run_simulation(64, FCFSEasy(), jobs)
        assert len(result.finished_jobs) == 200


class TestCanonicalUnits:
    def test_single_source_of_truth(self):
        """One blessed module defines the time-unit constants."""
        from repro.workload import units
        from repro.workload import generator, stats
        from repro.experiments import fig3

        assert units.SECONDS_PER_HOUR == 3600.0
        assert units.SECONDS_PER_DAY == 86400.0
        assert generator.SECONDS_PER_HOUR is units.SECONDS_PER_HOUR
        assert stats._HOUR is units.SECONDS_PER_HOUR
        assert fig3._DAY is units.SECONDS_PER_DAY

    def test_no_other_module_defines_the_constants(self):
        """Each constant of ``repro.workload.units`` has one definition."""
        from repro.workload import units

        names = sorted(name for name in vars(units) if name.isupper())
        assert names == sorted(units.__all__)
        src = Path(units.__file__).resolve().parents[1]
        defining = {name: [] for name in names}
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign)
                           and node.value is not None else [])
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in defining:
                        defining[target.id].append(
                            path.relative_to(src).as_posix())
        assert defining == {name: ["workload/units.py"] for name in names}
