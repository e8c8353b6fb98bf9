"""Benchmark: regenerate Fig 7 (wait time by job size — starvation)."""

from conftest import SCALE

from repro.experiments import fig7


def test_fig7(benchmark):
    results = benchmark.pedantic(lambda: fig7.run(SCALE), rounds=1, iterations=1)

    # reservation-less methods starve jobs far longer than FCFS/DRAS
    for starver in ("BinPacking", "Random", "Decima-PG"):
        assert results[starver].max_wait_days > results["FCFS"].max_wait_days
    assert results["DRAS-PG"].max_wait_days < 2.0 * results["FCFS"].max_wait_days


def test_fig7_starvation_ellipses(benchmark):
    """The large-vs-small wait gap that the paper circles in Fig 7."""
    summary = benchmark.pedantic(
        lambda: fig7.run(SCALE), rounds=1, iterations=1
    )

    def gap(method):
        s = summary[method]
        small = max(s.small_wait_h, 1e-9)
        return s.large_wait_h / small

    # the large/small wait gap of reservation-less methods exceeds the
    # reservation-based reference (FCFS) — the paper's second finding
    for starver in ("BinPacking", "Random", "Optimization"):
        assert gap(starver) > gap("FCFS")
