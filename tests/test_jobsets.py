"""Unit tests for jobset building and the three-phase curriculum."""

import numpy as np
import pytest

from repro.workload.jobsets import (
    normalize_times,
    real_jobsets,
    sampled_jobset,
    split_weeks,
    synthetic_jobsets,
    three_phase_curriculum,
)
from repro.workload.models import ThetaModel
from tests.conftest import make_job


class TestNormalizeTimes:
    def test_shifts_to_zero(self):
        jobs = [make_job(submit=100.0), make_job(submit=150.0)]
        out = normalize_times(jobs)
        assert out[0].submit_time == 0.0
        assert out[1].submit_time == 50.0

    def test_returns_fresh_copies(self):
        job = make_job(submit=100.0)
        out = normalize_times([job])
        assert out[0] is not job
        assert job.submit_time == 100.0  # original untouched

    def test_empty(self):
        assert normalize_times([]) == []


class TestSplitWeeks:
    def test_splits_by_week(self):
        week = 7 * 24 * 3600.0
        jobs = [
            make_job(submit=0.0),
            make_job(submit=week * 0.5),
            make_job(submit=week * 1.5),
        ]
        chunks = split_weeks(jobs)
        assert len(chunks) == 2
        assert len(chunks[0]) == 2
        assert len(chunks[1]) == 1

    def test_chunk_times_rezeroed(self):
        week = 7 * 24 * 3600.0
        jobs = [make_job(submit=week * 1.25)]
        chunks = split_weeks(jobs)
        assert chunks[0][0].submit_time == 0.0

    def test_cross_chunk_dependencies_dropped(self):
        week = 7 * 24 * 3600.0
        parent = make_job(submit=0.0, job_id=1)
        child = make_job(submit=week * 1.5, deps=(1,), job_id=2)
        sibling = make_job(submit=week * 1.4, job_id=3)
        chunks = split_weeks([parent, child, sibling])
        child_copy = [j for j in chunks[1] if j.job_id == 2][0]
        assert child_copy.dependencies == ()

    def test_within_chunk_dependencies_kept(self):
        parent = make_job(submit=0.0, job_id=1)
        child = make_job(submit=100.0, deps=(1,), job_id=2)
        chunks = split_weeks([parent, child])
        child_copy = [j for j in chunks[0] if j.job_id == 2][0]
        assert child_copy.dependencies == (1,)

    def test_empty(self):
        assert split_weeks([]) == []


class TestSampledJobset:
    def _base(self):
        return [make_job(size=s, walltime=100.0 * s, submit=float(i * 60))
                for i, s in enumerate((1, 2, 4, 8), start=0)]

    def test_job_count(self, rng):
        out = sampled_jobset(self._base(), 50, rng)
        assert len(out) == 50

    def test_jobs_drawn_from_base(self, rng):
        base = self._base()
        base_shapes = {(j.size, j.walltime) for j in base}
        out = sampled_jobset(base, 100, rng)
        assert {(j.size, j.walltime) for j in out} <= base_shapes

    def test_poisson_rate_matches_base(self, rng):
        base = [make_job(submit=float(i * 100)) for i in range(50)]
        out = sampled_jobset(base, 4000, rng)
        empirical = (len(out) - 1) / (out[-1].submit_time - out[0].submit_time)
        assert empirical == pytest.approx(0.01, rel=0.1)

    def test_dependencies_dropped(self, rng):
        base = [make_job(job_id=1), make_job(deps=(1,), job_id=2, submit=10.0)]
        out = sampled_jobset(base, 20, rng)
        assert all(j.dependencies == () for j in out)

    def test_errors(self, rng):
        with pytest.raises(ValueError, match="empty"):
            sampled_jobset([], 10, rng)
        with pytest.raises(ValueError, match="positive"):
            sampled_jobset(self._base(), 0, rng)
        with pytest.raises(ValueError, match="degenerate"):
            sampled_jobset([make_job()], 10, rng)


class TestRealJobsets:
    def test_short_trace_split_into_equal_chunks(self):
        jobs = [make_job(submit=float(i * 100)) for i in range(100)]
        sets = real_jobsets(jobs, 4)
        assert len(sets) == 4
        assert sum(len(s) for s in sets) >= 90  # first 4 chunks cover most

    def test_week_chunks_for_long_trace(self):
        week = 7 * 24 * 3600.0
        jobs = [make_job(submit=i * week / 4) for i in range(40)]  # 10 weeks
        sets = real_jobsets(jobs, 3)
        assert len(sets) == 3
        # each chunk spans at most one week after re-zeroing
        for s in sets:
            assert max(j.submit_time for j in s) <= week

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            real_jobsets([], 1)
        with pytest.raises(ValueError):
            real_jobsets([make_job()], 0)


class TestSyntheticJobsets:
    def test_counts(self, rng):
        model = ThetaModel.scaled(64)
        sets = synthetic_jobsets(model, 4, 30, rng)
        assert len(sets) == 4
        assert all(len(s) == 30 for s in sets)

    def test_load_factors_cycle(self, rng):
        model = ThetaModel.scaled(64)
        # load factors 0.7, 1.0, 1.0, 1.3, then 0.7 again
        sets = synthetic_jobsets(model, 5, 300, rng)
        spans = [s[-1].submit_time for s in sets]
        assert spans[0] > spans[3]  # lighter load spreads arrivals out
        assert spans[4] > spans[3]

    def test_errors(self, rng):
        model = ThetaModel.scaled(64)
        with pytest.raises(ValueError):
            synthetic_jobsets(model, 0, 10, rng)


class TestCurriculum:
    def _setup(self, rng):
        model = ThetaModel.scaled(64)
        base = model.generate(200, rng)
        return model, base

    def test_default_order(self, rng):
        model, base = self._setup(rng)
        phases = three_phase_curriculum(
            model, base, rng, n_sampled=2, n_real=2, n_synthetic=3,
            jobs_per_set=40,
        )
        assert [p.name for p in phases] == ["sampled", "real", "synthetic"]
        assert [len(p) for p in phases] == [2, 2, 3]

    def test_custom_order(self, rng):
        model, base = self._setup(rng)
        phases = three_phase_curriculum(
            model, base, rng, n_sampled=1, n_real=1, n_synthetic=1,
            jobs_per_set=20, order=("synthetic", "real", "sampled"),
        )
        assert [p.name for p in phases] == ["synthetic", "real", "sampled"]

    def test_invalid_order_rejected(self, rng):
        model, base = self._setup(rng)
        with pytest.raises(ValueError, match="permutation"):
            three_phase_curriculum(model, base, rng, order=("sampled", "real"))
        with pytest.raises(ValueError, match="permutation"):
            three_phase_curriculum(
                model, base, rng, order=("sampled", "sampled", "real")
            )

    def test_all_jobs_pending(self, rng):
        model, base = self._setup(rng)
        phases = three_phase_curriculum(
            model, base, rng, n_sampled=1, n_real=1, n_synthetic=1,
            jobs_per_set=20,
        )
        from repro.sim.job import JobState

        for phase in phases:
            for jobset in phase.jobsets:
                assert all(j.state is JobState.PENDING for j in jobset)
