"""Unit tests for the DRAS state encoding (§III-A)."""

import numpy as np
import pytest

from repro.core.state import StateEncoder
from repro.sim.cluster import Cluster
from tests.conftest import make_job


@pytest.fixture
def encoder():
    return StateEncoder(num_nodes=8, window=3, time_scale=100.0, normalize=True)


@pytest.fixture
def raw_encoder():
    return StateEncoder(num_nodes=8, window=3, normalize=False)


class TestValidation:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            StateEncoder(0, 3)
        with pytest.raises(ValueError):
            StateEncoder(8, 0)
        with pytest.raises(ValueError):
            StateEncoder(8, 3, time_scale=0.0)


class TestShapes:
    def test_pg_rows(self, encoder):
        assert encoder.pg_rows == 2 * 3 + 8

    def test_dql_rows(self, encoder):
        assert encoder.dql_rows == 2 + 8

    def test_paper_theta_shape(self):
        enc = StateEncoder(num_nodes=4360, window=50)
        assert enc.pg_rows == 4460
        assert enc.dql_rows == 4362


class TestJobBlock:
    def test_raw_values(self, raw_encoder):
        job = make_job(size=4, walltime=500.0, submit=10.0, priority=1)
        block = raw_encoder.job_block(job, now=60.0)
        assert block.shape == (2, 2)
        assert block[0, 0] == 4          # size
        assert block[0, 1] == 500.0      # estimated runtime
        assert block[1, 0] == 1.0        # priority
        assert block[1, 1] == 50.0       # queued time

    def test_normalized_values(self, encoder):
        job = make_job(size=4, walltime=50.0, submit=0.0)
        block = encoder.job_block(job, now=25.0)
        assert block[0, 0] == pytest.approx(4 / 8)
        assert block[0, 1] == pytest.approx(50 / 100)
        assert block[1, 1] == pytest.approx(25 / 100)


class TestWindowEncoding:
    def test_shape_and_mask(self, encoder, cluster):
        jobs = [make_job(size=1), make_job(size=2)]
        x, mask = encoder.encode_window(jobs, cluster, now=0.0)
        assert x.shape == (14, 2)
        assert list(mask) == [True, True, False]

    def test_padding_rows_zero(self, encoder, cluster):
        jobs = [make_job(size=1)]
        x, _ = encoder.encode_window(jobs, cluster, now=0.0)
        assert np.all(x[2:6] == 0.0)  # slots 2 and 3 empty

    def test_node_rows_present(self, encoder, cluster):
        cluster.allocate(make_job(size=2, walltime=50.0), now=0.0)
        x, _ = encoder.encode_window([make_job(size=1)], cluster, now=0.0)
        node_rows = x[6:]
        assert node_rows.shape == (8, 2)
        assert node_rows[0, 0] == 0.0          # busy
        assert node_rows[0, 1] == pytest.approx(0.5)  # 50/100
        assert node_rows[2, 0] == 1.0          # free

    def test_too_many_jobs_rejected(self, encoder, cluster):
        jobs = [make_job() for _ in range(4)]
        with pytest.raises(ValueError, match="exceed"):
            encoder.encode_window(jobs, cluster, now=0.0)

    def test_empty_window_all_masked(self, encoder, cluster):
        x, mask = encoder.encode_window([], cluster, now=0.0)
        assert not mask.any()
        assert x.shape == (14, 2)


class TestJobEncoding:
    def test_encode_job_shape(self, encoder, cluster):
        x = encoder.encode_job(make_job(size=2), cluster, now=0.0)
        assert x.shape == (10, 2)

    def test_batch_matches_single(self, encoder, cluster):
        jobs = [make_job(size=1), make_job(size=3, priority=1)]
        heads, nodes = encoder.encode_jobs_batch(jobs, cluster, now=5.0)
        assert heads.shape == (2, 2, 2)
        # the node rows come back once, not copied per job
        assert nodes.shape == (8, 2)
        for i, job in enumerate(jobs):
            single = encoder.encode_job(job, cluster, now=5.0)
            assert np.array_equal(heads[i], single[:2])
            assert np.array_equal(nodes, single[2:])

    def test_empty_batch_rejected(self, encoder, cluster):
        with pytest.raises(ValueError, match="empty"):
            encoder.encode_jobs_batch([], cluster, now=0.0)
