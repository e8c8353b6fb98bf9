"""Tests for interprocedural effect inference and the RPR6xx rules.

The engine tests (:mod:`repro.check.effects`) exercise primitive-effect
extraction and bottom-up propagation on scratch packages, including the
shapes the call graph finds hard: decorators, closures, lambdas,
``functools.partial``, dynamic dispatch through a registry dict, and
mutually recursive cycles.  The rule tests build scratch packages
literally named ``repro`` (the taint roots hard-code the
reproduction's qualnames) with one violation per rule.  Two acceptance
properties are proven on the real tree: fault-injector RNG isolation
is *non-vacuous* (the engine does consume ``FaultInjector._rng``; no
scheduler can), and the committed baseline has zero RPR6xx findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.check import analyze_project
from repro.check.effects import (
    AMBIENT_RNG_DETAILS,
    EFFECTS_REPORT_SCHEMA,
    KIND_CLOCK,
    KIND_ENV,
    KIND_IO,
    KIND_MUTATES,
    KIND_RNG,
    collect_rng_attrs,
    compute_effects,
    effects_for_project,
    effects_report,
)
from repro.check.lint import Violation
from repro.check.project import ProjectModel
from repro.check.taint import _scheduler_roots, _sim_train_roots

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return root


def load(tmp_path: Path, files: dict[str, str],
         package: str = "pkg") -> ProjectModel:
    root = write_tree(tmp_path, files)
    return ProjectModel.load(root / package, package=package)


def rpr6(violations: list[Violation]) -> list[Violation]:
    return [v for v in violations if v.rule_id.startswith("RPR6")]


def details(model, qual: str) -> set[tuple[str, str]]:
    return {(e.kind, e.detail) for e in model.effects_of(qual)}


class TestPrimitiveExtraction:
    def test_clock_env_io_and_ambient_rng(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import os
                import time
                import numpy as np

                def noisy(path):
                    t = time.time()
                    d = time.perf_counter()
                    flag = os.getenv("FLAG")
                    os.environ["OUT"] = "1"
                    fh = open(path)
                    print(t)
                    x = np.random.rand()
                    return t + d + x
            """,
        })
        model = compute_effects(project)
        got = details(model, "pkg.mod.noisy")
        assert (KIND_CLOCK, "time.time") in got
        assert (KIND_CLOCK, "time.perf_counter") in got
        assert (KIND_ENV, "os.getenv") in got
        assert (KIND_ENV, "os.environ-write") in got
        assert (KIND_IO, "open") in got
        assert (KIND_IO, "print") in got
        assert (KIND_RNG, "global-numpy") in got

    def test_seeded_construction_is_pure_unseeded_is_not(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import numpy as np

                def seeded():
                    rng = np.random.default_rng(7)
                    return rng.random()

                def unseeded():
                    rng = np.random.default_rng()
                    return rng.random()
            """,
        })
        model = compute_effects(project)
        assert details(model, "pkg.mod.seeded") == {(KIND_RNG, "local-seeded")}
        assert (KIND_RNG, "unseeded-construct") in details(
            model, "pkg.mod.unseeded")

    def test_injected_generator_parameter(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def draw(rng):
                    return rng.integers(10)

                def draw_annotated(gen: "np.random.Generator"):
                    return gen.normal()
            """,
        })
        model = compute_effects(project)
        assert details(model, "pkg.mod.draw") == {(KIND_RNG, "param:rng")}
        assert details(model, "pkg.mod.draw_annotated") == {
            (KIND_RNG, "param:gen")}

    def test_global_mutation(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                _COUNT = 0

                def bump():
                    global _COUNT
                    _COUNT = _COUNT + 1
                    return _COUNT
            """,
        })
        model = compute_effects(project)
        assert details(model, "pkg.mod.bump") == {(KIND_MUTATES, "_COUNT")}

    def test_pure_function_has_empty_signature(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def pure(a, b):
                    return sorted([a, b])
            """,
        })
        model = compute_effects(project)
        assert model.effects_of("pkg.mod.pure") == ()


class TestRngAttributes:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/mod.py": """
            import numpy as np

            class Sampler:
                def __init__(self, seed, rng=None):
                    self._rng = np.random.default_rng(seed)
                    self.injected = rng

                def draw(self):
                    return self._rng.random()

            class SubSampler(Sampler):
                def sub_draw(self):
                    return self._rng.normal()
        """,
    }

    def test_ctor_and_injected_attrs_are_collected(self, tmp_path):
        project = load(tmp_path, dict(self.FILES))
        attrs = collect_rng_attrs(project)
        assert attrs["pkg.mod.Sampler"] == frozenset({"_rng", "injected"})
        # inherited down to the subclass
        assert "_rng" in attrs["pkg.mod.SubSampler"]

    def test_attr_consumption_names_the_owner_class(self, tmp_path):
        project = load(tmp_path, dict(self.FILES))
        model = compute_effects(project)
        assert (KIND_RNG, "attr:pkg.mod.Sampler._rng") in details(
            model, "pkg.mod.Sampler.draw")
        # the subclass method resolves the inherited generator too
        assert (KIND_RNG, "attr:pkg.mod.SubSampler._rng") in details(
            model, "pkg.mod.SubSampler.sub_draw")


class TestPropagation:
    def test_transitive_summary_keeps_origin(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/leaf.py": """
                import time

                def tick():
                    return time.time()
            """,
            "pkg/top.py": """
                from pkg.leaf import tick

                def middle():
                    return tick()

                def entry():
                    return middle()
            """,
        })
        model = compute_effects(project)
        effects = model.effects_of("pkg.top.entry")
        assert [(e.kind, e.detail, e.origin) for e in effects] == [
            (KIND_CLOCK, "time.time", "pkg.leaf.tick")]
        # primitive signatures stay local
        assert model.primitive["pkg.top.entry"] == ()

    def test_mutually_recursive_cycle_converges(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import time

                def even(n):
                    if n == 0:
                        return True
                    return odd(n - 1)

                def odd(n):
                    if n == 0:
                        return False
                    time.time()
                    return even(n - 1)
            """,
        })
        model = compute_effects(project)
        # the fixpoint terminates and both cycle members carry the effect
        for qual in ("pkg.mod.even", "pkg.mod.odd"):
            assert (KIND_CLOCK, "time.time") in details(model, qual)
            assert {e.origin for e in model.effects_of(qual)} == {
                "pkg.mod.odd"}

    def test_decorated_function_still_analyzed(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import functools
                import time

                def traced(fn):
                    @functools.wraps(fn)
                    def wrapper(*args, **kwargs):
                        return fn(*args, **kwargs)
                    return wrapper

                @traced
                def stamped():
                    return time.time()

                def entry():
                    return stamped()
            """,
        })
        model = compute_effects(project)
        assert (KIND_CLOCK, "time.time") in details(model, "pkg.mod.stamped")
        # the call through the decorated name still propagates
        assert (KIND_CLOCK, "time.time") in details(model, "pkg.mod.entry")

    def test_closure_and_lambda_effects_attach_to_enclosing(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import time

                def outer():
                    def inner():
                        return time.time()
                    key = lambda x: time.perf_counter()
                    return inner, key
            """,
        })
        model = compute_effects(project)
        got = details(model, "pkg.mod.outer")
        assert (KIND_CLOCK, "time.time") in got
        assert (KIND_CLOCK, "time.perf_counter") in got

    def test_functools_partial_adds_an_edge(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import functools

                def sample(rng, n):
                    return rng.integers(n)

                def curry():
                    return functools.partial(sample, n=3)
            """,
        })
        model = compute_effects(project)
        assert "pkg.mod.sample" in model.edges["pkg.mod.curry"]
        assert (KIND_RNG, "param:rng") in details(model, "pkg.mod.curry")

    def test_dynamic_dispatch_through_registry(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/policies.py": """
                import time

                class Base:
                    def decide(self, view):
                        raise NotImplementedError

                class Clocked(Base):
                    def decide(self, view):
                        return time.time()

                REGISTRY = {"clocked": Clocked}
            """,
            "pkg/driver.py": """
                from pkg.policies import REGISTRY

                def dispatch(name, view):
                    policy = REGISTRY[name]()
                    return policy.decide(view)
            """,
        })
        model = compute_effects(project)
        # bounded name-matching resolves .decide() to every implementor,
        # so the registry indirection cannot hide the effect
        assert (KIND_CLOCK, "time.time") in details(
            model, "pkg.driver.dispatch")

    def test_reachable_walks_augmented_edges(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def a():
                    return b()

                def b():
                    return 1
            """,
        })
        model = compute_effects(project)
        assert "pkg.mod.b" in model.reachable("pkg.mod.a")


class TestEffectsReport:
    def test_report_shape_and_purity_counts(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import time

                def impure():
                    return time.time()

                def pure():
                    return 1
            """,
        })
        doc = effects_report(effects_for_project(project))
        assert doc["schema"] == EFFECTS_REPORT_SCHEMA
        assert doc["functions_total"] == 2
        assert doc["functions_pure"] == 1
        assert list(doc["functions"]) == ["pkg.mod.impure"]
        entry = doc["functions"]["pkg.mod.impure"][0]
        assert entry["kind"] == KIND_CLOCK
        assert entry["detail"] == "time.time"
        assert entry["origin"] == "pkg.mod.impure"

    def test_effects_for_project_caches(self, tmp_path):
        project = load(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": "def f():\n    return 1\n",
        })
        assert effects_for_project(project) is effects_for_project(project)


# -- rule tests on scratch ``repro`` packages ----------------------------------

#: an engine entry point reaching ambient randomness, a wall-clock read
#: and an environment read — one RPR601/RPR605/RPR606 finding each
SIM_TAINT_TREE = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/sim/engine.py": """
        import os
        import time
        import numpy as np

        def jitter():
            return np.random.rand()

        def stamp():
            return time.time()

        def gate():
            return os.getenv("REPRO_FAST")

        def run_simulation(jobs):
            return jitter() + stamp() + (1 if gate() else 0)
    """,
}

#: a scheduler whose decision code reaches the fault injector's RNG
FAULT_LEAK_TREE = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/sim/faults.py": """
        import numpy as np

        class FaultInjector:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def next_failure_gap(self):
                return float(self._rng.exponential(3600.0))
    """,
    "repro/schedulers/__init__.py": "",
    "repro/schedulers/base.py": """
        class BaseScheduler:
            def schedule(self, view):
                raise NotImplementedError
    """,
    "repro/schedulers/peeking.py": """
        from repro.schedulers.base import BaseScheduler
        from repro.sim.faults import FaultInjector

        class PeekingScheduler(BaseScheduler):
            def __init__(self, seed):
                self.injector = FaultInjector(seed)

            def schedule(self, view):
                if self.injector.next_failure_gap() < 60.0:
                    return None
                return view
    """,
}


class TestSimTrainTaintRules:
    @pytest.fixture()
    def findings(self, tmp_path):
        root = write_tree(tmp_path, dict(SIM_TAINT_TREE))
        return rpr6(analyze_project(root / "repro", package="repro"))

    def test_rpr601_flags_ambient_randomness(self, findings):
        hits = [v for v in findings if v.rule_id == "RPR601"]
        assert len(hits) == 1
        assert "global-numpy" in hits[0].message
        assert "repro.sim.engine.jitter" in hits[0].message
        assert "repro.sim.engine.run_simulation" in hits[0].message

    def test_rpr605_flags_wall_clock_only(self, findings):
        hits = [v for v in findings if v.rule_id == "RPR605"]
        assert len(hits) == 1
        assert "time.time" in hits[0].message
        # perf_counter and monotonic never fire (duration-only clocks)
        assert not any("perf_counter" in v.message for v in findings)

    def test_rpr606_flags_environment_read(self, findings):
        hits = [v for v in findings if v.rule_id == "RPR606"]
        assert len(hits) == 1
        assert "os.getenv" in hits[0].message

    def test_findings_pin_the_origin_line(self, findings, tmp_path):
        hit = next(v for v in findings if v.rule_id == "RPR601")
        assert hit.path.endswith("repro/sim/engine.py")
        # np.random.rand() sits on line 7 of the dedented module
        assert hit.line == 7

    def test_noqa_suppresses_at_the_origin(self, tmp_path):
        files = dict(SIM_TAINT_TREE)
        files["repro/sim/engine.py"] = files["repro/sim/engine.py"].replace(
            "return os.getenv(\"REPRO_FAST\")",
            "return os.getenv(\"REPRO_FAST\")  # repro: noqa[ambient-env-read]",
        )
        root = write_tree(tmp_path, files)
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR606" for v in findings)

    def test_silent_without_recognised_roots(self, tmp_path):
        files = dict(SIM_TAINT_TREE)
        files["repro/sim/engine.py"] = files["repro/sim/engine.py"].replace(
            "def run_simulation(jobs):", "def drive(jobs):")
        root = write_tree(tmp_path, files)
        # no entry point the taint roots recognise -> nothing to gate
        assert rpr6(analyze_project(root / "repro", package="repro")) == []


class TestFaultRngIsolationRule:
    def test_scheduler_reaching_injector_rng_fires(self, tmp_path):
        root = write_tree(tmp_path, dict(FAULT_LEAK_TREE))
        findings = [v for v in rpr6(analyze_project(root / "repro",
                                                    package="repro"))
                    if v.rule_id == "RPR602"]
        assert len(findings) == 1
        assert "PeekingScheduler.schedule" in findings[0].message
        assert "FaultInjector._rng" in findings[0].message
        assert "policy-independent" in findings[0].message

    def test_engine_consuming_injector_rng_is_fine(self, tmp_path):
        files = dict(FAULT_LEAK_TREE)
        # same consumption, but from the engine: no scheduler can reach it
        files["repro/schedulers/peeking.py"] = """
            from repro.schedulers.base import BaseScheduler

            class PeekingScheduler(BaseScheduler):
                def schedule(self, view):
                    return view
        """
        files["repro/sim/engine.py"] = """
            from repro.sim.faults import FaultInjector

            def run_simulation(jobs, seed):
                injector = FaultInjector(seed)
                return injector.next_failure_gap()
        """
        root = write_tree(tmp_path, files)
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR602" for v in findings)


class TestImpureDigestInputRule:
    def test_clock_beneath_stable_digest_fires(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/hashing.py": """
                import time

                def _canon(obj):
                    return (time.time(), obj)

                def stable_digest(obj):
                    return hash(_canon(obj))
            """,
        })
        findings = [v for v in rpr6(analyze_project(root / "repro",
                                                    package="repro"))
                    if v.rule_id == "RPR603"]
        assert len(findings) == 1
        assert "repro.hashing._canon" in findings[0].message
        assert "purity root repro.hashing.stable_digest" in findings[0].message

    def test_pure_digest_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/hashing.py": """
                def stable_digest(obj):
                    return hash(repr(obj))
            """,
        })
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR603" for v in findings)


class TestUnpicklableCaptureRule:
    def test_direct_captures_fire(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/state/__init__.py": "",
            "repro/state/store.py": """
                import threading

                class StateStore:
                    def __init__(self, path):
                        self._fh = open(path)
                        self._key = lambda x: x
                        self._lock = threading.Lock()
            """,
            "repro/rl/__init__.py": "",
            "repro/rl/checkpoint.py": """
                from repro.state.store import StateStore

                def save(path):
                    return StateStore(path)
            """,
        })
        findings = [v for v in rpr6(analyze_project(root / "repro",
                                                    package="repro"))
                    if v.rule_id == "RPR604"]
        reasons = sorted(v.message for v in findings)
        assert len(reasons) == 3
        assert "an open file handle" in reasons[0]
        assert "a lambda" in reasons[1]
        assert "a synchronization primitive (threading.Lock)" in reasons[2]

    def test_registry_values_join_the_closure(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/agents.py": """
                class AgentA:
                    def __init__(self):
                        self._gen = iter([1, 2, 3])

                KINDS = {"a": AgentA}
            """,
            "repro/rl/__init__.py": "",
            "repro/rl/checkpoint.py": """
                from repro import agents

                def restore(kind):
                    return agents.KINDS[kind]()
            """,
        })
        findings = [v for v in rpr6(analyze_project(root / "repro",
                                                    package="repro"))
                    if v.rule_id == "RPR604"]
        assert len(findings) == 1
        assert "a live iterator" in findings[0].message
        assert "repro.agents.AgentA._gen" in findings[0].message

    def test_silent_without_a_checkpoint_module(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/store.py": """
                class Holder:
                    def __init__(self, path):
                        self._fh = open(path)
            """,
        })
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR604" for v in findings)


#: a live-telemetry module whose bus (a non-sink) reads the wall clock
LIVE_CLOCK_TREE = {
    "repro/__init__.py": "",
    "repro/obs/__init__.py": "",
    "repro/obs/live.py": """
        import time

        class Bus:
            def publish(self, fields):
                record = {"wall": time.time()}
                record.update(fields)
                return record

        class Writer:
            def on_snapshot(self, record):
                return self.stamp()

            def stamp(self):
                return time.time()

        def schema_tag():
            return "repro.live/v1"
    """,
}


class TestLiveClockConfinementRule:
    def test_non_sink_wall_clock_fires(self, tmp_path):
        root = write_tree(tmp_path, dict(LIVE_CLOCK_TREE))
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        hits = [v for v in findings if v.rule_id == "RPR607"]
        assert len(hits) == 1
        assert "time.time" in hits[0].message
        assert "Bus.publish" in hits[0].message
        # the sink's own clock (Writer.stamp) is sanctioned
        assert not any("Writer" in v.message for v in hits)

    def test_clock_confined_to_the_sink_is_clean(self, tmp_path):
        files = dict(LIVE_CLOCK_TREE)
        files["repro/obs/live.py"] = files["repro/obs/live.py"].replace(
            'record = {"wall": time.time()}', 'record = {"wall": 0.0}')
        root = write_tree(tmp_path, files)
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR607" for v in findings)

    def test_monotonic_clocks_never_fire(self, tmp_path):
        files = dict(LIVE_CLOCK_TREE)
        files["repro/obs/live.py"] = files["repro/obs/live.py"].replace(
            'record = {"wall": time.time()}',
            'record = {"wall": time.perf_counter()}')
        root = write_tree(tmp_path, files)
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR607" for v in findings)

    def test_noqa_suppresses_at_the_origin(self, tmp_path):
        files = dict(LIVE_CLOCK_TREE)
        files["repro/obs/live.py"] = files["repro/obs/live.py"].replace(
            'record = {"wall": time.time()}',
            'record = {"wall": time.time()}'
            "  # repro: noqa[live-clock-confinement]")
        root = write_tree(tmp_path, files)
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR607" for v in findings)

    def test_silent_outside_live_modules(self, tmp_path):
        files = {
            "repro/__init__.py": "",
            "repro/obs/__init__.py": "",
            # same shape, different module name: not a live module
            "repro/obs/view.py": dict(LIVE_CLOCK_TREE)["repro/obs/live.py"],
        }
        root = write_tree(tmp_path, files)
        findings = rpr6(analyze_project(root / "repro", package="repro"))
        assert not any(v.rule_id == "RPR607" for v in findings)


#: a sweep-pool module whose worker path reaches ambient state through
#: a helper — the finding must pin the helper, not the entry point.
#: ``{extra}`` is one statement injected into the helper's body.
POOL_HERMETIC_MODULE = """
    import os
    import time

    import numpy as np

    def _execute_cell(spec, cell, derived_seed, attempt):
        return run_cell(cell, derived_seed)

    def _worker_main(conn):
        while True:
            _execute_cell(None, {{}}, 0, 1)

    def run_cell(cell, derived_seed):
        {extra}
        rng = np.random.default_rng(derived_seed)
        return {{"x": float(rng.random())}}
"""


class TestPoolWorkerHermeticRule:
    def _analyze(self, tmp_path, extra="pass", module="pool"):
        files = {
            "repro/__init__.py": "",
            "repro/experiments/__init__.py": "",
            f"repro/experiments/{module}.py":
                POOL_HERMETIC_MODULE.format(extra=extra),
        }
        root = write_tree(tmp_path, files)
        return [v for v in rpr6(analyze_project(root / "repro",
                                                package="repro"))
                if v.rule_id == "RPR608"]

    def test_derived_seed_worker_is_clean(self, tmp_path):
        assert self._analyze(tmp_path) == []

    def test_ambient_rng_fires(self, tmp_path):
        hits = self._analyze(tmp_path, extra="x = np.random.rand()")
        assert len(hits) == 1
        assert "global-numpy" in hits[0].message
        assert "run_cell" in hits[0].message
        assert "_execute_cell" in hits[0].message or \
            "_worker_main" in hits[0].message

    def test_wall_clock_fires_monotonic_does_not(self, tmp_path):
        hits = self._analyze(tmp_path, extra="t = time.time()")
        assert len(hits) == 1 and "time.time" in hits[0].message
        assert self._analyze(tmp_path / "mono",
                             extra="t = time.perf_counter()") == []

    def test_env_read_fires(self, tmp_path):
        hits = self._analyze(tmp_path, extra='flag = os.getenv("FLAG")')
        assert len(hits) == 1 and "os.getenv" in hits[0].message

    def test_own_noqa_suppresses_at_origin(self, tmp_path):
        assert self._analyze(
            tmp_path,
            extra="t = time.time()  # repro: noqa[pool-worker-hermetic]",
        ) == []

    def test_sanctioned_base_slug_not_reflagged(self, tmp_path):
        # a site individually justified under the base rule's slug
        # (the style used by the observability feature gates) must not
        # need a second, RPR608-specific suppression
        assert self._analyze(
            tmp_path,
            extra='flag = os.getenv("FLAG")  # repro: noqa[ambient-env-read]',
        ) == []

    def test_silent_outside_pool_modules(self, tmp_path):
        # same shape, different module name: not a pool module
        assert self._analyze(tmp_path, extra="x = np.random.rand()",
                             module="grid") == []


# -- real-tree acceptance properties -------------------------------------------

class TestRealTree:
    @pytest.fixture(scope="class")
    def model_and_project(self):
        project = ProjectModel.load(SRC, package="repro")
        return effects_for_project(project), project

    def test_zero_rpr6_findings_on_the_committed_tree(self):
        assert rpr6(analyze_project(SRC, package="repro")) == []

    def test_fault_injector_isolation_is_not_vacuous(self, model_and_project):
        """The static RPR602 proof quantifies over something real.

        The *engine* does consume ``FaultInjector._rng`` (so the
        analysis sees the generator), and there are many scheduler
        entry points (so the universally-quantified claim is not empty)
        — yet none of them can reach the consumption.
        """
        model, project = model_and_project
        target = "attr:repro.sim.faults.FaultInjector._rng"
        engine = {e.detail for e in model.effects_of("repro.sim.engine.Engine.run")}
        assert target in engine
        schedulers = _scheduler_roots(model, project)
        assert len(schedulers) >= 5
        for root in schedulers:
            reached = {e.detail for e in model.effects_of(root)}
            assert target not in reached, root

    def test_sim_train_paths_carry_no_ambient_rng(self, model_and_project):
        model, project = model_and_project
        for root in _sim_train_roots(model, project):
            ambient = [e for e in model.effects_of(root)
                       if e.kind == KIND_RNG and e.detail in AMBIENT_RNG_DETAILS]
            assert ambient == [], root

    def test_live_clock_confinement_is_not_vacuous(self, model_and_project):
        """The RPR607 proof quantifies over something real.

        The committed live module *does* read the wall clock (inside a
        sink, where it is sanctioned) and *does* define plenty of
        non-sink functions — yet the rule reports nothing, because the
        read never escapes the sink classes.
        """
        from repro.check.taint import _live_modules, _sink_classes

        model, project = model_and_project
        assert _live_modules(project) == ["repro.obs.live"]
        sinks = _sink_classes(project, "repro.obs.live")
        assert {"ProgressSink", "SnapshotWriter"} <= sinks
        assert "LiveBus" not in sinks
        # the subject of the rule exists: a sink really reads time.time
        stamp = details(model, "repro.obs.live.SnapshotWriter.__init__")
        assert (KIND_CLOCK, "time.time") in stamp
        # and the quantifier is non-empty: non-sink live functions exist
        non_sinks = [q for q, fi in model.index.items()
                     if fi.module.name == "repro.obs.live"
                     and fi.cls not in sinks]
        assert len(non_sinks) >= 5

    def test_pool_worker_hermeticity_is_not_vacuous(self, model_and_project):
        """The RPR608 proof reaches the code sweep workers really run.

        Every kind's cell runner, and the simulator beneath them, is
        reachable from the worker entry point — so an ambient draw
        anywhere in cell code is a finding, not a blind spot.
        """
        model, _ = model_and_project
        reached = model.reachable("repro.experiments.pool._execute_cell")
        assert {
            "repro.experiments.faultsweep.run_sweep_cell",
            "repro.experiments.runner.run_sweep_cell",
            "repro.experiments.pool._selftest_run_cell",
            "repro.sim.engine.run_simulation",
        } <= set(reached)

    def test_known_rng_attributes_are_discovered(self, model_and_project):
        model, _ = model_and_project
        assert "_rng" in model.rng_attrs["repro.sim.faults.FaultInjector"]
        assert any(cls.startswith("repro.core.") for cls in model.rng_attrs)
