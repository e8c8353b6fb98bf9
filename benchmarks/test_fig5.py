"""Benchmark: regenerate Fig 5 (learning curves vs static methods)."""

import math

from conftest import SCALE

from repro.experiments import fig5


def test_fig5(benchmark):
    result = benchmark.pedantic(lambda: fig5.run(SCALE), rounds=1, iterations=1)

    assert set(result.curves) == {"DRAS-PG", "DRAS-DQL", "Decima-PG"}
    assert set(result.static_rewards) == {
        "FCFS", "BinPacking", "Random", "Optimization",
    }
    for name, curve in result.curves.items():
        assert all(math.isfinite(v) for v in curve), name
        # learning improves the collected reward over the first episode
        assert max(curve) >= curve[0]
    # the trained DRAS agents collect more validation reward than the
    # non-reserving packers (Random / BinPacking), as in the paper
    floor = min(result.static_rewards["Random"],
                result.static_rewards["BinPacking"])
    assert max(result.curves["DRAS-PG"]) > floor
    assert max(result.curves["DRAS-DQL"]) > floor
