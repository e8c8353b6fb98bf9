"""Ablation benchmarks for the design choices DESIGN.md calls out.

The experiments are :mod:`repro.experiments.ablations`; each test runs
one of its ablations on Theta and asserts its shape.
"""

import numpy as np
import pytest
from conftest import SCALE

from repro.experiments import ablations


def test_ablation_learned_backfill(benchmark):
    """Learned level-2 selection vs EASY first-fit inside DRAS-PG."""
    rows = benchmark.pedantic(lambda: ablations.learned_backfill(SCALE),
                              rounds=1, iterations=1)
    for res in rows.values():
        assert res.metrics.num_jobs > 0
        assert np.isfinite(res.metrics.avg_wait)


def test_ablation_entropy_collapse(benchmark):
    """Without the entropy bonus, DRAS-PG degenerates into FCFS."""
    results = benchmark.pedantic(lambda: ablations.entropy(SCALE),
                                 rounds=1, iterations=1)
    fcfs = results["FCFS"].metrics
    collapsed = results["entropy=0.0"].metrics
    regular = results["entropy=0.05"].metrics
    # the un-regularized policy converges to (or extremely near) the
    # FCFS schedule
    assert collapsed.avg_wait == pytest.approx(fcfs.avg_wait, rel=0.10)
    assert collapsed.max_wait == pytest.approx(fcfs.max_wait, rel=0.10)
    # the regularized policy escapes the clone and improves average wait
    assert regular.avg_wait < collapsed.avg_wait


def test_ablation_window_size(benchmark):
    """The window bounds how far DRAS can look past the queue head."""
    results = benchmark.pedantic(lambda: ablations.window(SCALE),
                                 rounds=1, iterations=1)
    for r in results.values():
        assert r.metrics.num_jobs == next(iter(results.values())).metrics.num_jobs


def test_ablation_easy_vs_conservative(benchmark):
    """Heuristic-side ablation: EASY vs conservative backfilling."""
    results = benchmark.pedantic(
        lambda: ablations.easy_vs_conservative(SCALE), rounds=1, iterations=1)
    easy = results["FCFS"].metrics
    conservative = results["Conservative"].metrics
    # conservative is stricter: it cannot backfill more aggressively
    # than EASY, so its average wait is no better than EASY's minus noise
    assert conservative.avg_wait >= 0.8 * easy.avg_wait
    assert conservative.num_jobs == easy.num_jobs
