"""Benchmark: regenerate Fig 4 (curriculum-ordering convergence)."""

import math

from conftest import SCALE

from repro.experiments import fig4


def test_fig4(benchmark):
    results = benchmark.pedantic(lambda: fig4.run(SCALE), rounds=1, iterations=1)

    assert len(results) == 3
    curves = fig4.history_curves(results)
    for curve in curves.values():
        assert all(math.isfinite(v) for v in curve)
    # every ordering trains the same number of episodes
    lengths = {len(c) for c in curves.values()}
    assert len(lengths) == 1
    # the recommended ordering reaches a reward at least comparable to
    # the alternatives (within 10%): training order must not hurt
    rec = next(r for r in results if r.order == ("sampled", "real", "synthetic"))
    best_other = max(
        r.final_reward for r in results if r.order != rec.order
    )
    assert rec.final_reward >= 0.9 * best_other
