"""Unit tests for the Theta/Cori workload models."""

import numpy as np
import pytest

from repro.sim.job import Job
from repro.workload.models import CoriModel, ThetaModel, WorkloadModel


class TestThetaModel:
    def test_paper_dimensions(self):
        model = ThetaModel.paper()
        assert model.num_nodes == 4360
        # smallest job on Theta is 128 nodes
        assert min(model.sizes.sizes) == 128
        assert model.runtimes.max_runtime == 24 * 3600.0
        assert model.dependency_prob == pytest.approx(0.0225)

    def test_scaled_sizes_within_system(self):
        for n in (64, 256, 1024):
            model = ThetaModel.scaled(n)
            assert max(model.sizes.sizes) <= n

    def test_offered_load_matches_target(self):
        model = ThetaModel.scaled(256)
        assert model.offered_load() == pytest.approx(1.10, rel=0.05)

    def test_generate_basic_invariants(self, rng):
        model = ThetaModel.scaled(128)
        jobs = model.generate(300, rng)
        assert len(jobs) == 300
        assert all(isinstance(j, Job) for j in jobs)
        assert all(1 <= j.size <= 128 for j in jobs)
        assert all(j.runtime <= j.walltime for j in jobs)
        assert all(j.runtime <= ThetaModel.MAX_RUNTIME for j in jobs)
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_priority_threshold(self, rng):
        model = ThetaModel.scaled(128)
        jobs = model.generate(500, rng)
        for j in jobs:
            assert j.priority == (1 if j.size >= model.priority_threshold else 0)

    def test_dependencies_reference_earlier_jobs(self, rng):
        model = ThetaModel.scaled(128)
        jobs = model.generate(500, rng)
        ids_seen = set()
        for j in jobs:
            for dep in j.dependencies:
                assert dep in ids_seen
            ids_seen.add(j.job_id)

    def test_load_factor_scales_rate(self, rng):
        model = ThetaModel.scaled(128)
        slow = model.generate(400, np.random.default_rng(1), load_factor=0.5)
        fast = model.generate(400, np.random.default_rng(1), load_factor=2.0)
        assert fast[-1].submit_time < slow[-1].submit_time


class TestCoriModel:
    def test_paper_dimensions(self):
        model = CoriModel.paper()
        assert model.num_nodes == 12076
        assert min(model.sizes.sizes) == 1
        assert model.runtimes.max_runtime == 7 * 24 * 3600.0

    def test_one_node_jobs_dominate(self, rng):
        model = CoriModel.scaled(256)
        jobs = model.generate(2000, rng)
        share_one = sum(1 for j in jobs if j.size == 1) / len(jobs)
        assert share_one > 0.5


class TestWorkloadModelValidation:
    def test_size_mix_exceeding_system_rejected(self):
        base = ThetaModel.scaled(128)
        with pytest.raises(ValueError, match="size mix"):
            WorkloadModel(
                name="bad",
                num_nodes=4,
                arrivals=base.arrivals,
                sizes=base.sizes,
                runtimes=base.runtimes,
                priority_threshold=1,
            )

    def test_generate_rejects_bad_args(self, rng):
        model = ThetaModel.scaled(64)
        with pytest.raises(ValueError):
            model.generate(0, rng)
        with pytest.raises(ValueError):
            model.generate(10, rng, load_factor=0.0)

    def test_generate_span_bounds_times(self, rng):
        model = ThetaModel.scaled(64)
        jobs = model.generate_span(3600.0 * 12, rng, start=100.0)
        assert jobs, "span should produce at least one job"
        assert all(100.0 <= j.submit_time < 100.0 + 12 * 3600.0 for j in jobs)
