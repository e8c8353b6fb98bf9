"""Benchmark: regenerate Fig 9 (adaptation to workload surges)."""

import numpy as np
from conftest import SCALE

from repro.experiments import fig9


def test_fig9(benchmark):
    result = benchmark.pedantic(lambda: fig9.run(SCALE), rounds=1, iterations=1)

    profile = fig9.SURGE_PROFILE
    assert len(result.weeks) >= len(profile) - 1
    # top panel: surge weeks really carry more submitted core hours
    ch = np.array(result.core_hours[: len(profile)])
    surge_weeks = [i for i, lf in enumerate(profile[: len(ch)]) if lf >= 1.5]
    normal_weeks = [i for i, lf in enumerate(profile[: len(ch)]) if lf <= 1.1]
    assert ch[surge_weeks].mean() > ch[normal_weeks].mean()

    # bottom panel: the online-learning DRAS agents handle the surges
    # at least as well as the static methods overall
    waits = {m: np.array(s) for m, s in result.weekly_wait_h.items()}
    static_avg = min(waits["FCFS"].mean(), waits["Optimization"].mean())
    dras_avg = min(waits["DRAS-PG"].mean(), waits["DRAS-DQL"].mean())
    assert dras_avg < 1.25 * static_avg
