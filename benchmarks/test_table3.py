"""Benchmark: regenerate Table III (network configs + parameter counts).

This is the exact-reproduction benchmark: three of the paper's four
trainable-parameter counts are matched digit for digit; the fourth
(Cori DRAS-DQL) is internally inconsistent in the paper (DESIGN.md §4).
"""

from repro.experiments import table3


def test_table3(benchmark):
    rows = benchmark(table3.run)

    by_name = {r.name: r for r in rows}
    assert by_name["theta-pg"].analytic_params == 21_890_053
    assert by_name["theta-pg"].matches_paper
    assert by_name["theta-dql"].analytic_params == 21_449_004
    assert by_name["theta-dql"].matches_paper
    assert by_name["cori-pg"].analytic_params == 161_960_053
    assert by_name["cori-pg"].matches_paper
    assert by_name["cori-dql"].analytic_params == 160_784_004
    assert not by_name["cori-dql"].matches_paper  # documented inconsistency


def test_table3_theta_networks_instantiate(benchmark):
    """Materialize the full-size Theta networks and count parameters."""
    import numpy as np

    from repro.core.config import table3_configs
    from repro.nn.network import build_dras_network, count_parameters

    def build_and_count():
        rng = np.random.default_rng(0)
        counts = {}
        for name in ("theta-pg", "theta-dql"):
            dims = table3_configs()[name]
            net = build_dras_network(
                dims.rows, dims.hidden1, dims.hidden2, dims.outputs, rng=rng
            )
            counts[name] = count_parameters(net)
        return counts

    counts = benchmark.pedantic(build_and_count, rounds=1, iterations=1)
    assert counts["theta-pg"] == 21_890_053
    assert counts["theta-dql"] == 21_449_004
