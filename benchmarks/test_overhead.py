"""Benchmark: §V-E runtime overhead on the full-size Theta networks.

The paper reports <1 s per DRAS-PG update and <2 s per DRAS-DQL update
on a quad-core PC, against a 15-30 s real-time scheduling budget.  Here
pytest-benchmark times one decision as the agents make it
(``PGCore.policy`` / ``DRASDQL.q_values`` over a full window against a
Theta cluster 90% busy: ``overhead.decision_states``) and the actual
forward+backward+Adam step (one parameter update) of the
21.9M/21.4M-parameter Theta networks.
"""

import numpy as np
import pytest

from repro.core.config import DRASConfig
from repro.core.dras_dql import DRASDQL
from repro.core.dras_pg import DRASPG
from repro.experiments import overhead
from repro.nn.losses import mse_loss, policy_gradient_loss
from repro.nn.network import build_dras_network
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def theta_pg():
    cfg = DRASConfig.theta()
    dims = cfg.pg_dims
    rng = np.random.default_rng(0)
    net = build_dras_network(dims.rows, dims.hidden1, dims.hidden2,
                             dims.outputs, rng=rng)
    return cfg, dims, net, Adam(net.parameters(), lr=cfg.learning_rate)


@pytest.fixture(scope="module")
def theta_dql():
    cfg = DRASConfig.theta()
    dims = cfg.dql_dims
    rng = np.random.default_rng(0)
    net = build_dras_network(dims.rows, dims.hidden1, dims.hidden2,
                             dims.outputs, rng=rng)
    return cfg, dims, net, Adam(net.parameters(), lr=cfg.learning_rate)


@pytest.fixture(scope="module")
def theta_decision():
    cfg = DRASConfig.theta()
    window, (typical, _) = overhead.decision_states(cfg)
    return cfg, window, typical


def test_pg_decision_latency(benchmark, theta_decision):
    cfg, window, state = theta_decision
    benchmark(DRASPG(cfg).core.policy, window, state)
    # one decision must fit the 15 s production budget with huge margin
    assert benchmark.stats["mean"] < overhead.REALTIME_BUDGET_S


def test_pg_update_latency(benchmark, theta_pg):
    cfg, dims, net, opt = theta_pg
    rng = np.random.default_rng(1)
    x = rng.random((10, dims.rows, 2))
    masks = np.ones((10, dims.outputs), dtype=bool)
    actions = rng.integers(dims.outputs, size=10)
    advantages = rng.normal(size=10)

    def update():
        logits = net.forward(x)
        _, grad = policy_gradient_loss(logits, masks, actions, advantages)
        net.backward(grad)
        opt.step()

    benchmark(update)
    # paper: < 1 s per DRAS-PG parameter update on a PC
    assert benchmark.stats["mean"] < 2.0


def test_dql_decision_latency(benchmark, theta_decision):
    cfg, window, state = theta_decision
    # one decision scores all W=50 window jobs
    benchmark(DRASDQL(cfg).q_values, window, state)
    assert benchmark.stats["mean"] < overhead.REALTIME_BUDGET_S


def test_dql_update_latency(benchmark, theta_dql):
    cfg, dims, net, opt = theta_dql
    rng = np.random.default_rng(1)
    x = rng.random((10, dims.rows, 2))
    targets = rng.normal(size=(10, 1))

    def update():
        q = net.forward(x)
        _, grad = mse_loss(q, targets)
        net.backward(grad)
        opt.step()

    benchmark(update)
    # paper: < 2 s per DRAS-DQL parameter update on a PC
    assert benchmark.stats["mean"] < 4.0


def test_overhead_report(benchmark):
    results = benchmark.pedantic(
        lambda: overhead.run(full_size=True, repeats=1), rounds=1, iterations=1
    )
    for r in results:
        assert r.within_budget
