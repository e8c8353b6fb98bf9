"""Benchmark: regenerate Fig 2 (job counts / core hours by size)."""

import pytest
from conftest import SCALE

from repro.experiments import fig2


def test_fig2(benchmark):
    shares = benchmark.pedantic(lambda: fig2.run(SCALE), rounds=1, iterations=1)

    for s in shares.values():
        assert sum(s.job_share) == pytest.approx(1.0)
        assert sum(s.core_hour_share) == pytest.approx(1.0)
    # Cori (capacity): the smallest category dominates the job count
    assert shares["cori"].job_share[0] > 0.5
    # Theta (capability): large categories take a bigger slice of core
    # hours than of job counts — the paper's inner/outer circle contrast
    theta = shares["theta"]
    assert sum(theta.core_hour_share[2:]) > sum(theta.job_share[2:])
