"""Smoke + structure tests for every experiment module (tiny scale).

These run the actual harness end-to-end on the tiny scale, verifying
that each table/figure reproduction produces well-formed, internally
consistent output.  The qualitative paper-shape assertions live in
``test_reproduction.py``.
"""

import dataclasses
import functools
import math

import pytest

from repro.core.persistence import agent_arrays
from repro.experiments import (
    ablations,
    common,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    overhead,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.pool import SweepSpec
from repro.experiments.runner import TABLE
from repro.rl.trainer import TrainingHistory
from repro.schedulers import FCFSEasy
from repro.workload.models import _cori_size_mix, _theta_size_mix
from tests.test_experiments_md import REFERENCE, report_tables

SCALE = "tiny"

#: the size categories Fig 2 prints and Fig 7 bins by, per (system,
#: scale); ``default``'s are the committed reference's
SIZE_LABELS = {
    ("theta", "tiny"): ["2-8", "9-15", "16-30", "31-60", "61-64"],
    ("cori", "tiny"): ["1", "2", "3", "4-8", "9-96"],
    ("theta", "default"): ["8-30", "31-60", "61-120", "121-240", "241-256"],
    ("cori", "default"): ["1", "2", "3-8", "9-33", "34-384"],
    ("theta", "paper"): ["128-511", "512-1023", "1024-2047", "2048-4095",
                         "4096-4360"],
    ("cori", "paper"): ["1", "2-15", "16-255", "256-1023", "1024-12076"],
}
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def learning_state(agent):
    """Everything online learning moves: each array a checkpoint keeps
    (weights, Adam moments and step, baseline or epsilon), and the RNG."""
    arrays = {k: v.tobytes() for k, v in agent_arrays(agent).items()}
    return arrays, agent.rng.bit_generator.state


class TestCommon:
    def test_get_scale(self):
        assert common.get_scale("tiny").name == "tiny"
        scale = common.get_scale("default")
        assert common.get_scale(scale) is scale
        with pytest.raises(ValueError, match="unknown scale"):
            common.get_scale("galactic")

    def test_system_setup_cached(self):
        a = common.system_setup("theta", SCALE, 0)
        b = common.system_setup("theta", SCALE, 0)
        assert a is b

    def test_system_setup_unknown(self):
        with pytest.raises(ValueError, match="unknown system"):
            common.system_setup("summit", SCALE, 0)

    def test_full_comparison_has_all_methods(self):
        results = common.full_comparison("theta", SCALE, 0)
        assert set(results) == set(common.METHOD_ORDER)
        for res in results.values():
            assert res.metrics.num_jobs > 0

    def test_trained_agent_is_a_private_copy(self):
        first, history = common.trained_agent("pg", "theta", SCALE, 0)
        second, again = common.trained_agent("pg", "theta", SCALE, 0)
        assert first is not second and history is not again
        assert learning_state(first) == learning_state(second)
        assert history.validation_curve.tolist() \
            == again.validation_curve.tolist()

    def test_full_comparison_leaves_the_trained_agents_alone(self):
        """Online evaluation learns on copies: the state ``trained_agent``
        hands out afterwards is the one training left."""
        def trained_states():
            return [learning_state(common.trained_agent(kind, "theta", SCALE, 0)[0])
                    for kind in ("decima", "pg", "dql")]

        before = trained_states()
        # uncached, so the evaluation runs here even if an earlier test
        # already filled the cache
        common.full_comparison.__wrapped__("theta", SCALE, 0)
        assert trained_states() == before

    def test_fig9_evaluates_the_trained_agents(self, monkeypatch):
        """Fig 9's DRAS agents start from the complete trained state:
        weights, Adam step and moments, DQL epsilon, RNG stream."""
        seen = {}
        engine = fig9.Engine

        def recording(cluster, scheduler, jobs):
            if hasattr(scheduler, "network"):
                seen[scheduler.name] = learning_state(scheduler)
            # the state is read before the run; a short one suffices
            return engine(cluster, scheduler, jobs[:20])

        monkeypatch.setattr(fig9, "Engine", recording)
        fig9.run(SCALE)
        dql, _ = common.trained_agent("dql", "theta", SCALE, 0)
        assert dql.epsilon < 1.0 and dql.optimizer.state_dict()["t"] > 0
        assert seen["DRAS-DQL"] == learning_state(dql)
        pg, _ = common.trained_agent("pg", "theta", SCALE, 0)
        assert seen["DRAS-PG"] == learning_state(pg)


class TestStaticTables:
    def test_table1(self):
        rows = table1.run()
        report = table1.report(rows)
        assert "DRAS" in report and "Starvation avoidance" in report

    def test_table2(self):
        summaries = table2.run(SCALE)
        assert set(summaries) == {"theta", "cori"}
        for s in summaries.values():
            assert s.num_jobs > 0
            assert s.offered_load > 0
        assert "Table II" in table2.report(summaries)

    def test_table3_counts(self):
        rows = table3.run()
        by_name = {r.name: r for r in rows}
        assert by_name["theta-pg"].analytic_params == 21_890_053
        assert by_name["theta-dql"].matches_paper
        assert by_name["cori-pg"].matches_paper
        assert not by_name["cori-dql"].matches_paper  # documented
        assert "paper-inconsistent" in table3.report(rows)

    def test_table3_instantiated_matches_analytic_small(self):
        # instantiate=True on the real configs is GBs of RAM; verify the
        # analytic/instantiated agreement through the builder instead
        import numpy as np

        from repro.core.config import NetworkDims
        from repro.nn.network import build_dras_network, count_parameters

        dims = NetworkDims(rows=60, hidden1=50, hidden2=12, outputs=5)
        net = build_dras_network(dims.rows, dims.hidden1, dims.hidden2,
                                 dims.outputs, rng=np.random.default_rng(0))
        assert count_parameters(net) == dims.param_count


class TestWorkloadFigures:
    def test_fig2_shares_sum_to_one(self):
        shares = fig2.run(SCALE)
        for s in shares.values():
            assert sum(s.job_share) == pytest.approx(1.0)
            assert sum(s.core_hour_share) == pytest.approx(1.0)
        assert "Fig 2" in fig2.report(shares)

    def test_fig2_capability_vs_capacity_shape(self):
        shares = fig2.run(SCALE)
        # Cori: the smallest category dominates job counts
        cori = shares["cori"]
        assert cori.job_share[0] > 0.5
        # Theta: larger categories hold a bigger share of core hours
        # than of job counts (capability computing)
        theta = shares["theta"]
        tail_jobs = sum(theta.job_share[2:])
        tail_hours = sum(theta.core_hour_share[2:])
        assert tail_hours > tail_jobs

    def test_fig3_patterns(self):
        patterns = fig3.run(SCALE)
        assert len(patterns.hourly_arrivals) == 24
        assert len(patterns.daily_arrivals) == 7
        assert patterns.size_quantiles["p50"] > 0
        assert "Fig 3" in fig3.report(patterns)

    def test_fig3_diurnal_shape(self):
        patterns = fig3.run(SCALE)
        hourly = patterns.hourly_arrivals
        # afternoon busier than deep night in the generator profile
        afternoon = sum(hourly[12:18])
        night = sum(hourly[0:6])
        assert afternoon > night


class TestSizeCategories:
    """Fig 2 and Fig 7 bin job sizes through one categorisation."""

    @pytest.mark.parametrize("scale", ["tiny", "default", "paper"])
    @pytest.mark.parametrize("system", ["theta", "cori"])
    def test_every_drawable_size_in_exactly_one_category(self, system,
                                                         scale):
        nodes = getattr(common.get_scale(scale), f"{system}_nodes")
        cats = fig2.size_categories(system, nodes)
        assert all(lo <= hi for _, lo, hi in cats)
        assert [lo for _, lo, _ in cats[1:]] == \
            [hi + 1 for _, _, hi in cats[:-1]]
        assert cats[-1][2] == nodes
        mix = {"theta": _theta_size_mix, "cori": _cori_size_mix}[system]
        for size in mix(nodes):
            holding = [i for i, (_, lo, hi) in enumerate(cats)
                       if lo <= size <= hi]
            assert holding == [fig2.category_of(cats, size)], size
        assert [label for label, _, _ in cats] == SIZE_LABELS[system, scale]

    @pytest.mark.parametrize("system", ["theta", "cori"])
    def test_default_labels_are_the_committed_fig2s(self, system):
        tables = report_tables(
            (REFERENCE / "report.txt").read_text(encoding="utf-8"))
        grid = tables["fig2", f"Fig 2: job characterization, {system}"]
        assert list(dict.fromkeys(row for row, _ in grid)) == \
            SIZE_LABELS[system, "default"]


class TestTrainingFigures:
    def test_fig4_structure(self):
        results = fig4.run(SCALE)
        assert len(results) == len(fig4.ORDERS)
        for r in results:
            assert len(r.validation_curve) == 6  # 2+2+2 jobsets at tiny
            assert all(math.isfinite(v) for v in r.validation_curve)
        assert "Fig 4" in fig4.report(results)
        curves = fig4.history_curves(results)
        assert len(curves) == 3

    def test_fig5_structure(self):
        result = fig5.run(SCALE)
        assert set(result.curves) == {"DRAS-PG", "DRAS-DQL", "Decima-PG"}
        assert set(result.static_rewards) == {
            "FCFS", "BinPacking", "Random", "Optimization",
        }
        for curve in result.curves.values():
            assert all(math.isfinite(v) for v in curve)
        assert "Fig 5" in fig5.report(result)


class TestEvaluationFigures:
    def test_fig6_structure(self):
        res = fig6.run_system("theta", SCALE)
        assert set(res.normalized) == set(common.METHOD_ORDER)
        for vals in res.normalized.values():
            assert all(0.0 <= v <= 1.0 for v in vals.values())
        assert all(a >= 0 for a in res.areas.values())
        assert "Fig 6" in fig6.report({"theta": res})

    def test_fig7_structure(self):
        results = fig7.run(SCALE)
        assert set(results) == set(common.METHOD_ORDER)
        for r in results.values():
            total = sum(c[0] for c in r.categories.values())
            assert total > 0
            assert list(r.categories) == list(r.mode_mix) == \
                SIZE_LABELS["theta", SCALE]
        assert "Fig 7" in fig7.report(results)

    def test_fig7_starvation_summary(self):
        summary = fig7.run(SCALE)
        assert set(summary) == set(common.METHOD_ORDER)

    def test_table4_structure(self):
        rows = table4.run(SCALE)
        for r in rows:
            jobs_total = r.backfilled_jobs + r.ready_jobs + r.reserved_jobs
            ch_total = r.backfilled_ch + r.ready_ch + r.reserved_ch
            assert jobs_total == pytest.approx(100.0, abs=0.01)
            assert ch_total == pytest.approx(100.0, abs=0.01)
        assert "Table IV" in table4.report(rows)

    def test_table4_reservationless_methods(self):
        rows = {r.method: r for r in table4.run(SCALE)}
        for name in ("BinPacking", "Random", "Optimization", "Decima-PG"):
            assert rows[name].ready_jobs == pytest.approx(100.0)

    def test_fig8_structure(self):
        rows = fig8.run(SCALE)
        assert [r.method for r in rows] == ["FCFS", "DRAS-PG", "DRAS-DQL"]
        for r in rows:
            assert set(r.wait_h) == {"ready", "reserved", "backfilled"}
        assert "Fig 8" in fig8.report(rows)

    @pytest.fixture(scope="class")
    def fig9_result(self):
        """One Fig 9 run, the longest of the tiny-scale figures, shared
        by the tests that only read it."""
        return fig9.run(SCALE)

    def test_fig9_structure(self, fig9_result):
        result = fig9_result
        assert len(result.weeks) >= 4
        assert len(result.core_hours) == len(result.weeks)
        for series in result.weekly_wait_h.values():
            assert len(series) == len(result.weeks)
        assert "Fig 9" in fig9.report(result)

    def test_fig9_surge_weeks_have_more_work(self, fig9_result):
        ch = fig9_result.core_hours
        # week 2 is a 1.7x surge in the profile
        assert ch[2] > ch[1]


class TestAblations:
    def test_each_config_trains_once(self, monkeypatch):
        """The ablations row trains one DRAS-PG per distinct config, and
        a variant equal to Theta's own config evaluates the agent
        ``trained_agent`` hands out (stand-in training and evaluation)."""
        trained, evaluated = [], []

        def train(agent, *args, **kwargs):
            agent.training_run = len(trained)
            trained.append(agent.config)
            return TrainingHistory()

        setup = common.system_setup("theta", SCALE, 0)
        result = ablations.evaluate_method(
            FCFSEasy(), setup.test_trace[:20], setup.model.num_nodes)

        def evaluate(scheduler, jobs, num_nodes):
            evaluated.append(scheduler)
            return result

        monkeypatch.setattr(common, "train_with_curriculum", train)
        # a cache of the test's own, so the stand-in agents stay in it
        monkeypatch.setattr(common, "_train", functools.lru_cache(
            maxsize=16)(common._train.__wrapped__))
        monkeypatch.setattr(ablations, "evaluate_method", evaluate)
        spec = SweepSpec(kind="ablations", scale=SCALE)
        report = TABLE["ablations"].run_cell(spec, {"exp": "ablations"},
                                              0, 1)["report"]
        assert "Ablation: window size (DRAS-PG, theta)" in report

        base = setup.config
        assert base.window not in ablations.WINDOWS
        assert trained == [base] + [
            dataclasses.replace(base, **{name: value})
            for name, value in (("learned_backfill", False),
                                ("entropy_coef", 0.0), ("window", 4),
                                ("window", 16), ("window", 32))]
        agent, _ = common.trained_agent("pg", "theta", SCALE, 0)
        assert len(trained) == 6 and agent.training_run == 0
        # learned backfill, entropy 0.05 and the three estimate factors
        assert [s.training_run for s in evaluated
                if getattr(s, "config", None) == base] == [0] * 5


class TestOverhead:
    def test_scaled_measurement(self):
        results = overhead.run(full_size=False, repeats=1)
        assert {r.agent for r in results} == {"DRAS-PG", "DRAS-DQL"}
        for r in results:
            assert r.decision_s > 0
            assert r.update_s > 0
            assert r.within_budget
        assert "V-E" in overhead.report(results)
