"""Benchmark: regenerate Fig 6 (Kiviat performance comparison).

The headline comparison: all seven methods on both systems, five
normalized metrics each.  Shape assertions encode the paper's findings
that are robust at the scaled-down setting:

* FCFS achieves the lowest maximum wait of all methods;
* DRAS-PG improves average wait over FCFS while keeping maximum wait
  far below the reservation-less methods;
* DRAS-DQL achieves the best (or tied-best) utilization;
* Decima-PG fails on user-level metrics.
"""

from conftest import SCALE

from repro.experiments import fig6


def test_fig6_theta(benchmark):
    result = benchmark.pedantic(
        lambda: fig6.run_system("theta", SCALE), rounds=1, iterations=1
    )

    raw = result.raw
    # FCFS has the lowest maximum wait (its defining strength, Fig 6)
    assert raw["FCFS"]["max_wait"] == min(r["max_wait"] for r in raw.values())
    # DRAS-PG beats FCFS on average wait ...
    assert raw["DRAS-PG"]["avg_wait"] < raw["FCFS"]["avg_wait"]
    # ... while staying within a small factor of FCFS's max wait,
    # far below the reservation-less methods (starvation avoidance)
    assert raw["DRAS-PG"]["max_wait"] < 2.0 * raw["FCFS"]["max_wait"]
    for name in ("BinPacking", "Random"):
        assert raw["DRAS-PG"]["max_wait"] < raw[name]["max_wait"]
        assert raw["DRAS-DQL"]["max_wait"] < raw[name]["max_wait"]
    # Optimization pays for its immediate-objective greed with a max
    # wait roughly twice DRAS's (paper §V-B)
    assert raw["Optimization"]["max_wait"] > 1.3 * raw["DRAS-PG"]["max_wait"]
    # DRAS-DQL has the best system-level metric (utilization)
    best_util = max(r["utilization"] for r in raw.values())
    assert raw["DRAS-DQL"]["utilization"] >= 0.99 * best_util
    # Decima-PG fails user-level metrics (worst avg wait)
    assert raw["Decima-PG"]["avg_wait"] == max(
        r["avg_wait"] for r in raw.values()
    )


def test_fig6_cori(benchmark):
    result = benchmark.pedantic(
        lambda: fig6.run_system("cori", SCALE), rounds=1, iterations=1
    )

    raw = result.raw
    # every method processes the identical capacity workload
    jobs = {m: r["num_jobs"] for m, r in raw.items()}
    assert len(set(jobs.values())) == 1
    # DRAS improves turnaround over plain arrival order on the
    # capacity objective
    assert min(
        raw["DRAS-PG"]["avg_wait"], raw["DRAS-DQL"]["avg_wait"]
    ) <= raw["FCFS"]["avg_wait"]
