"""Benchmark: regenerate Table I (method feature matrix)."""

from repro.experiments import table1


def test_table1(benchmark):
    rows = benchmark(table1.run)
    features = {r.feature: dict(zip(("FCFS", "BinPacking", "Optimization",
                                     "Decima", "DRAS"), r.values))
                for r in rows}
    # the two discriminating rows of the paper's matrix
    assert features["Starvation avoidance"]["DRAS"] == "yes"
    assert features["Starvation avoidance"]["Decima"] == "no"
    assert features["Adaption to workload changes"]["FCFS"] == "no"
    assert features["Adaption to workload changes"]["DRAS"] == "yes"
