"""Extension benchmark: sensitivity to runtime-estimate inaccuracy.

The sweep is :func:`repro.experiments.ablations.estimate_sensitivity`:
FCFS and DRAS-PG replayed on Theta traces whose mean walltime
over-estimation factor is scaled.
"""

import numpy as np
from conftest import SCALE

from repro.experiments import ablations


def test_estimate_sensitivity(benchmark):
    rows = benchmark.pedantic(lambda: ablations.estimate_sensitivity(SCALE),
                              rounds=1, iterations=1)
    assert list(rows) == list(ablations.OVERESTIMATE_FACTORS)
    for metrics in rows.values():
        for avg_wait, max_wait, util in metrics.values():
            assert np.isfinite(avg_wait) and avg_wait >= 0
            assert np.isfinite(max_wait) and max_wait >= 0
            assert 0 <= util <= 1
    # both methods keep scheduling sanely even with perfect estimates
    # (factor 0 removes all backfill slack for long jobs)
    perfect = rows[0.0]
    assert all(m[0] > 0 for m in perfect.values())
