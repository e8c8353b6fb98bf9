"""Benchmark: regenerate Table IV (job distribution by execution mode)."""

import pytest
from conftest import SCALE

from repro.experiments import table4


def test_table4(benchmark):
    rows = benchmark.pedantic(lambda: table4.run(SCALE), rounds=1, iterations=1)

    by_method = {r.method: r for r in rows}
    # shares are percentages summing to 100 in both views
    for r in rows:
        assert (r.backfilled_jobs + r.ready_jobs + r.reserved_jobs
                == pytest.approx(100.0, abs=0.01))
        assert (r.backfilled_ch + r.ready_ch + r.reserved_ch
                == pytest.approx(100.0, abs=0.01))
    # reservation-less methods run everything as ready jobs (paper rows 1-4)
    for name in ("Optimization", "Decima-PG", "BinPacking", "Random"):
        assert by_method[name].ready_jobs == pytest.approx(100.0)
        assert by_method[name].ready_ch == pytest.approx(100.0)
    # FCFS and DRAS backfill the majority of jobs ...
    for name in ("FCFS", "DRAS-PG", "DRAS-DQL"):
        assert by_method[name].backfilled_jobs > 50.0
        # ... while reserved jobs consume a disproportionate share of
        # core hours relative to their job count (capability protection)
        assert by_method[name].reserved_ch > by_method[name].reserved_jobs
