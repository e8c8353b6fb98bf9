"""Benchmark: regenerate Table II (workload summaries)."""

from conftest import SCALE

from repro.experiments import table2


def test_table2(benchmark):
    summaries = benchmark.pedantic(
        lambda: table2.run(SCALE), rounds=1, iterations=1
    )

    theta, cori = summaries["theta"], summaries["cori"]
    # capability vs capacity profile: Cori sees far more, smaller jobs
    assert cori.num_jobs > theta.num_jobs
    assert cori.mean_size < theta.mean_size
    # runtime caps: Theta 1 day, Cori 7 days (paper Table II)
    assert theta.max_job_length_days <= 1.0 + 1e-9
    assert cori.max_job_length_days <= 7.0 + 1e-9
    # both systems are generated near-saturated, like the real machines
    assert theta.offered_load > 0.8
    assert cori.offered_load > 0.8
