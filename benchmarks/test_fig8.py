"""Benchmark: regenerate Fig 8 (wait time by execution mode)."""

from conftest import SCALE

from repro.experiments import fig8


def test_fig8(benchmark):
    rows = benchmark.pedantic(lambda: fig8.run(SCALE), rounds=1, iterations=1)

    by_method = {r.method: r for r in rows}
    assert set(by_method) == {"FCFS", "DRAS-PG", "DRAS-DQL"}
    fcfs = by_method["FCFS"]
    # reserved jobs wait longest in every reservation-based method
    for r in rows:
        assert r.wait_h["reserved"] >= r.wait_h["ready"]
        assert r.wait_h["reserved"] >= r.wait_h["backfilled"]
    # DRAS reduces the wait of backfilled jobs relative to FCFS (the
    # learned level-2 selection vs first-fit), the paper's Fig 8 story
    assert min(
        by_method["DRAS-PG"].wait_h["backfilled"],
        by_method["DRAS-DQL"].wait_h["backfilled"],
    ) < fcfs.wait_h["backfilled"]
