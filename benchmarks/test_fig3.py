"""Benchmark: regenerate Fig 3 (training-set job patterns)."""

from conftest import SCALE

from repro.experiments import fig3


def test_fig3(benchmark):
    patterns = benchmark.pedantic(lambda: fig3.run(SCALE), rounds=1, iterations=1)

    assert len(patterns.hourly_arrivals) == 24
    assert len(patterns.daily_arrivals) == 7
    # diurnal shape: work hours busier than deep night
    assert sum(patterns.hourly_arrivals[12:18]) > sum(patterns.hourly_arrivals[0:6])
    # weekly shape: weekdays busier than the weekend
    weekdays = sum(patterns.daily_arrivals[:5]) / 5
    weekend = sum(patterns.daily_arrivals[5:]) / 2
    assert weekdays > weekend
    # runtime distribution is capped at Theta's 1-day limit
    assert patterns.runtime_quantiles_h["p95"] <= 24.0
