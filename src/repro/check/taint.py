"""RPR6xx: determinism-taint rules over inferred effect signatures.

Where RPR1xx–RPR4xx look at one expression, this family asks
*interprocedural* questions: what can an entry point reach,
transitively, through the static call graph?  The
answers underwrite the platform's headline reproducibility guarantees
at check time instead of run time:

* RPR601 ``ambient-rng-path`` — no simulate/train entry point may reach
  ambient randomness (the global numpy/stdlib RNG state, or an
  unseeded generator construction).  Every random draw must trace back
  to an explicit seed or an injected ``Generator``.
* RPR602 ``fault-rng-isolation`` — scheduler decision code must never
  consume ``FaultInjector``'s private generator.  This is the static
  proof that the (time, nodes) failure stream is policy-independent:
  swapping schedulers cannot perturb when or where faults strike.
* RPR603 ``impure-digest-input`` — ``stable_digest`` / manifest /
  trace-serialization inputs must be pure: no RNG, clock, environment
  or I/O anywhere beneath them, or digests stop being stable.
* RPR604 ``unpicklable-capture`` — objects that cross checkpoint or
  ``multiprocessing`` boundaries (everything reachable from
  ``repro.rl.checkpoint``) must not capture open file handles, locks,
  or generator iterators in instance attributes.
* RPR605 ``sim-wall-clock`` — simulate/train paths must not read the
  wall clock (``time.time``, ``datetime.now``); monotonic duration
  counters are fine.
* RPR606 ``ambient-env-read`` — simulate/train paths must not consult
  ``os.environ``: a run's behaviour may depend only on its explicit
  config.  Observability feature gates are the sanctioned exception,
  suppressed at the read site with a justification.
* RPR607 ``live-clock-confinement`` — in the live-telemetry module
  (``repro.obs.live``), wall-clock reads are confined to *sink*
  classes (those implementing ``on_snapshot``).  The bus and every
  snapshot emitter stay clock-free, so no seed-determined path can
  reach the wall clock through a publish.
* RPR608 ``pool-worker-hermetic`` — sweep-pool worker entry points
  (``_worker_main`` / ``_execute_cell`` in ``*.experiments.pool``)
  must consume only the derived per-cell seed: no ambient RNG, no
  wall-clock read, no environment access anywhere they can reach.
  This is the static half of the pool's byte-identical-rollup
  contract — a worker whose behaviour depends on ambient state could
  produce different cell payloads on retry or resume.

Findings are pinned at the *origin* of the offending effect (the line
to fix or suppress), with the reachable entry point named in the
message.  All rules are whole-program — part of the default selection
only under ``repro check --strict`` — and share the
``# repro: noqa[slug]`` mechanism and the ratchet baseline.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.check.callgraph import schedule_roots
from repro.check.effects import (
    AMBIENT_RNG_DETAILS,
    KIND_CLOCK,
    KIND_ENV,
    KIND_IO,
    KIND_RNG,
    LOCK_CTORS,
    WALL_CLOCK_DETAILS,
    Effect,
    EffectModel,
    effects_for_project,
)
from repro.check.project import ModuleInfo, ProjectModel
from repro.check.rules import Finding, Rule, register

#: fully-qualified simulate/train entry points (filtered to those the
#: project actually defines, so scratch trees opt in by defining them)
SIM_TRAIN_ROOTS = (
    "repro.sim.engine.run_simulation",
    "repro.sim.engine.Engine.run",
    "repro.rl.curriculum.train_with_curriculum",
    "repro.rl.trainer.Trainer.train",
)

#: function names that are purity roots wherever they are defined —
#: their transitive inputs feed content-addressed digests
PURITY_ROOT_NAMES = frozenset({
    "stable_digest", "_json_default", "describe_workload",
    "canonical_json", "sha256_hex",
    "digest", "rollup_digest", "results_digest",
})

#: the class whose generator must stay isolated from policy code
FAULT_INJECTOR_CLASS = "FaultInjector"


def _sim_train_roots(model: EffectModel, project: ProjectModel) -> list[str]:
    """Entry points whose transitive behaviour must be seed-determined."""
    roots = [r for r in SIM_TRAIN_ROOTS if r in model.index]
    roots.extend(schedule_roots(project, model.index))
    return sorted(set(roots))


def _scheduler_roots(model: EffectModel, project: ProjectModel) -> list[str]:
    """``schedule`` methods of every scheduler — the decision code."""
    return schedule_roots(project, model.index)


def _reachable_effects(
    model: EffectModel, roots: Iterable[str],
) -> Iterator[tuple[str, Effect]]:
    """Unique offending-site effects with their first reachable root.

    Several roots usually reach the same origin; reporting each pair
    would multiply findings per fix site.  Deduplicate on the effect
    itself and attribute it to the lexicographically first root so the
    message is stable across runs.
    """
    first_root: dict[Effect, str] = {}
    for root in sorted(roots):
        for effect in model.effects_of(root):
            first_root.setdefault(effect, root)
    for effect in sorted(first_root, key=Effect.sort_key):
        yield first_root[effect], effect


@register
class AmbientRngPathRule(Rule):
    """Ambient randomness reachable from a simulate/train entry point."""

    id = "RPR601"
    slug = "ambient-rng-path"
    rationale = (
        "A simulate/train path that touches the global numpy/stdlib RNG "
        "state or constructs an unseeded generator is not reproducible "
        "from its config; thread a seeded np.random.Generator instead."
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield ambient-RNG effects on seed-determined paths."""
        model = effects_for_project(project)
        roots = _sim_train_roots(model, project)
        for root, effect in _reachable_effects(model, roots):
            if effect.kind != KIND_RNG or effect.detail not in AMBIENT_RNG_DETAILS:
                continue
            yield Finding(
                effect.path, effect.line, effect.col,
                f"ambient randomness ({effect.detail}) in {effect.origin} "
                f"is reachable from entry point {root}; derive it from an "
                "explicit seed or injected Generator",
            )


@register
class FaultRngIsolationRule(Rule):
    """Scheduler decision code consuming the fault injector's RNG."""

    id = "RPR602"
    slug = "fault-rng-isolation"
    rationale = (
        "The failure stream is policy-independent only because no "
        "scheduler can consume FaultInjector's private generator; any "
        "such path would let the policy perturb when and where faults "
        "strike, invalidating cross-scheduler comparisons."
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield fault-RNG consumptions reachable from scheduler code."""
        model = effects_for_project(project)
        roots = _scheduler_roots(model, project)
        for root, effect in _reachable_effects(model, roots):
            if effect.kind != KIND_RNG:
                continue
            if not effect.detail.startswith("attr:"):
                continue
            owner = effect.detail[len("attr:"):].rsplit(".", 1)[0]
            if owner.rsplit(".", 1)[-1] != FAULT_INJECTOR_CLASS:
                continue
            yield Finding(
                effect.path, effect.line, effect.col,
                f"scheduler entry point {root} reaches {effect.origin}, "
                f"which consumes {effect.detail[5:]} — the failure stream "
                "must stay policy-independent",
            )


@register
class ImpureDigestInputRule(Rule):
    """Side effects beneath digest/manifest/trace serialization."""

    id = "RPR603"
    slug = "impure-digest-input"
    rationale = (
        "stable_digest and the manifest/trace serializers must be pure "
        "functions of their arguments; any RNG, clock, environment or "
        "I/O beneath them makes equal runs hash unequal."
    )

    _IMPURE_KINDS = (KIND_RNG, KIND_CLOCK, KIND_ENV, KIND_IO)

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield impure effects beneath purity roots."""
        model = effects_for_project(project)
        roots = [q for q in model.index
                 if q.rsplit(".", 1)[-1] in PURITY_ROOT_NAMES]
        for root, effect in _reachable_effects(model, roots):
            if effect.kind not in self._IMPURE_KINDS:
                continue
            yield Finding(
                effect.path, effect.line, effect.col,
                f"{effect.kind} effect ({effect.detail}) in {effect.origin} "
                f"taints purity root {root}; digest inputs must be pure",
            )


@register
class SimWallClockRule(Rule):
    """Wall-clock reads on simulate/train paths."""

    id = "RPR605"
    slug = "sim-wall-clock"
    rationale = (
        "time.time()/datetime.now() on a simulate/train path leaks the "
        "calendar into results; use the engine clock for simulated time "
        "and monotonic counters for durations."
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield wall-clock effects on seed-determined paths."""
        model = effects_for_project(project)
        roots = _sim_train_roots(model, project)
        for root, effect in _reachable_effects(model, roots):
            if effect.kind not in (KIND_CLOCK,) \
                    or effect.detail not in WALL_CLOCK_DETAILS:
                continue
            yield Finding(
                effect.path, effect.line, effect.col,
                f"wall-clock read {effect.detail} in {effect.origin} is "
                f"reachable from entry point {root}",
            )


@register
class AmbientEnvReadRule(Rule):
    """``os.environ`` consultation on simulate/train paths."""

    id = "RPR606"
    slug = "ambient-env-read"
    rationale = (
        "A run whose behaviour depends on os.environ is not determined "
        "by its explicit config; pass settings through config objects, "
        "or suppress at sanctioned observability feature gates."
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield environment reads/writes on seed-determined paths."""
        model = effects_for_project(project)
        roots = _sim_train_roots(model, project)
        for root, effect in _reachable_effects(model, roots):
            if effect.kind != KIND_ENV:
                continue
            yield Finding(
                effect.path, effect.line, effect.col,
                f"environment access ({effect.detail}) in {effect.origin} "
                f"is reachable from entry point {root}",
            )


#: the method name that marks a live-view sink class (the sink protocol
#: of :mod:`repro.obs.live`) — the only classes allowed wall-clock reads
#: inside a live-telemetry module
LIVE_SINK_METHOD = "on_snapshot"


def _live_modules(project: ProjectModel) -> list[str]:
    """Live-telemetry modules: ``*.obs.live`` wherever the tree roots."""
    return sorted(
        name for name in project.modules
        if name.split(".")[-2:] == ["obs", "live"]
    )


def _sink_classes(project: ProjectModel, module: str) -> frozenset[str]:
    """Classes in ``module`` implementing the sink protocol."""
    info = project.module(module)
    if info is None:
        return frozenset()
    sinks = set()
    for name in info.classes:
        entry = project.class_def(f"{module}.{name}")
        if entry is None:
            continue
        _, cls = entry
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and item.name == LIVE_SINK_METHOD:
                sinks.add(name)
                break
    return frozenset(sinks)


@register
class LiveClockConfinementRule(Rule):
    """Wall-clock reads outside sink classes in the live-telemetry module."""

    id = "RPR607"
    slug = "live-clock-confinement"
    rationale = (
        "Snapshot emitters run on seed-determined simulate/train paths; "
        "only live-view *sinks* (classes implementing on_snapshot) may "
        "read the wall clock, so publishing a snapshot can never leak "
        "the calendar into a run."
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield wall-clock effects of non-sink live-module functions."""
        model = effects_for_project(project)
        for module in _live_modules(project):
            sinks = _sink_classes(project, module)
            flagged: set[Effect] = set()
            for qual, fi in sorted(model.index.items()):
                if fi.module.name != module or fi.cls in sinks:
                    continue
                for effect in model.effects_of(qual):
                    if effect.kind not in (KIND_CLOCK,) \
                            or effect.detail not in WALL_CLOCK_DETAILS:
                        continue
                    origin_fi = model.index.get(effect.origin)
                    if origin_fi is not None \
                            and origin_fi.module.name == module \
                            and origin_fi.cls in sinks:
                        continue  # reached a sink's clock: sanctioned
                    if effect in flagged:
                        continue
                    flagged.add(effect)
                    yield Finding(
                        effect.path, effect.line, effect.col,
                        f"wall-clock read {effect.detail} in "
                        f"{effect.origin} is reachable from non-sink "
                        f"{qual}; wall-clock reads in {module} must stay "
                        "confined to sink classes (on_snapshot "
                        "implementors)",
                    )


# -- RPR608: sweep-pool worker hermeticity -------------------------------------

#: function names that are pool worker entry points wherever a
#: ``*.experiments.pool`` module defines them — the code that runs
#: inside sweep worker processes
POOL_WORKER_ROOT_NAMES = frozenset({"_worker_main", "_execute_cell"})

#: noqa slugs that sanction an effect at its origin line, per effect
#: kind: a site individually justified under the base rule (e.g. an
#: observability feature gate suppressed as ``ambient-env-read``) is
#: equally justified when a sweep worker reaches it, so RPR608 does
#: not demand a second suppression on the same line
_SANCTIONED_BASE_SLUGS = {
    KIND_RNG: ("ambient-rng-path",),
    KIND_CLOCK: ("wall-clock", "sim-wall-clock", "live-clock-confinement"),
    KIND_ENV: ("ambient-env-read",),
}


def _pool_modules(project: ProjectModel) -> list[str]:
    """Sweep-pool modules: ``*.experiments.pool`` wherever the tree roots."""
    return sorted(
        name for name in project.modules
        if name.split(".")[-2:] == ["experiments", "pool"]
    )


def _pool_worker_roots(model: EffectModel,
                       project: ProjectModel) -> list[str]:
    """Worker entry points defined by the project's pool modules."""
    modules = set(_pool_modules(project))
    return sorted(
        qual for qual, fi in model.index.items()
        if fi.module.name in modules
        and qual.rsplit(".", 1)[-1] in POOL_WORKER_ROOT_NAMES
    )


@register
class PoolWorkerHermeticRule(Rule):
    """Ambient state reachable from a sweep-pool worker entry point."""

    id = "RPR608"
    slug = "pool-worker-hermetic"
    rationale = (
        "Sweep workers must be pure functions of (spec, cell, derived "
        "seed): any ambient RNG draw, wall-clock read or environment "
        "access they can reach would let a cell's payload vary across "
        "retries, workers or resumes, breaking the pool's byte-identical "
        "rollup contract."
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield ambient-state effects reachable from worker entry points."""
        model = effects_for_project(project)
        roots = _pool_worker_roots(model, project)
        if not roots:
            return
        modules = {info.path: info for info in project.modules.values()}
        for root, effect in _reachable_effects(model, roots):
            if effect.kind == KIND_RNG:
                if effect.detail not in AMBIENT_RNG_DETAILS:
                    continue
                what = f"ambient randomness ({effect.detail})"
            elif effect.kind in (KIND_CLOCK,):
                if effect.detail not in WALL_CLOCK_DETAILS:
                    continue
                what = f"wall-clock read {effect.detail}"
            elif effect.kind == KIND_ENV:
                what = f"environment access ({effect.detail})"
            else:
                continue
            info = modules.get(effect.path)
            if info is not None and info.suppressions.suppressed(
                    effect.line, *_SANCTIONED_BASE_SLUGS[effect.kind]):
                continue
            yield Finding(
                effect.path, effect.line, effect.col,
                f"{what} in {effect.origin} is reachable from pool worker "
                f"entry point {root}; sweep workers must consume only the "
                "derived per-cell seed and no ambient state",
            )


# -- RPR604: fork/pickle-safety ------------------------------------------------

def _checkpoint_modules(project: ProjectModel) -> list[ModuleInfo]:
    return [info for name, info in sorted(project.modules.items())
            if name.rsplit(".", 1)[-1] == "checkpoint"]


def _referenced_classes(project: ProjectModel,
                        info: ModuleInfo) -> set[str]:
    """Classes a module references: names, imports (incl. nested),
    and dict-literal registries in the project modules it imports."""
    classes: set[str] = set()

    def note(dotted: str | None) -> None:
        if dotted is None:
            return
        resolved = project.resolve(dotted)
        if resolved is not None and isinstance(resolved[1], ast.ClassDef):
            classes.add(f"{resolved[0].name}.{resolved[1].name}")

    imported_modules: set[str] = set()
    for node in ast.walk(info.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            base = node.module
            if node.level:  # relative: resolve against the package
                parts = info.package.split(".") if info.package else []
                if node.level > 1:
                    parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts + [node.module])
            imported_modules.add(base)
            for alias in node.names:
                if alias.name != "*":
                    note(f"{base}.{alias.name}")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            note(project.qualify(info, node))
    for name in info.classes:
        classes.add(f"{info.name}.{name}")
    # dict-literal class registries (e.g. persistence._KINDS) in the
    # project modules this module imports: the dispatch is dynamic, so
    # the registry values are treated as referenced classes
    for target in sorted(imported_modules | set(info.imports.values())):
        dep = project.module(target) or project.module(
            target.rpartition(".")[0])
        if dep is None:
            continue
        for value in dep.constants.values():
            if not isinstance(value, ast.Dict):
                continue
            for entry in value.values:
                if isinstance(entry, (ast.Name, ast.Attribute)):
                    note(project.qualify(dep, entry))
    return classes


def _unpicklable_reason(project: ProjectModel, info: ModuleInfo,
                        value: ast.expr) -> str | None:
    """Why ``value`` cannot cross a pickle/fork boundary (None if it can)."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.GeneratorExp):
        return "a generator iterator"
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        if func.id == "open" and project.resolve_local(info, func.id) is None:
            return "an open file handle"
        if func.id == "iter" and project.resolve_local(info, func.id) is None:
            return "a live iterator"
    dotted = project.qualify(info, func)
    if dotted in LOCK_CTORS:
        return f"a synchronization primitive ({dotted})"
    if isinstance(func, ast.Attribute) and func.attr == "open":
        return "an open file handle"
    return None


@register
class UnpicklableCaptureRule(Rule):
    """Unpicklable state captured by checkpoint-crossing objects."""

    id = "RPR604"
    slug = "unpicklable-capture"
    rationale = (
        "Objects reachable from repro.rl.checkpoint cross process and "
        "serialization boundaries (crash-safe checkpoints today, the "
        "multiprocessing sweep pool next); an open file handle, lock or "
        "generator iterator in an instance attribute breaks that at "
        "fork/pickle time."
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Yield unpicklable instance-attribute captures."""
        model = effects_for_project(project)
        closure: set[str] = set()
        for info in _checkpoint_modules(project):
            closure |= _referenced_classes(project, info)
        if not closure:
            return
        # expand: classes instantiated inside methods of closure classes
        # also cross the boundary (they become attribute values)
        changed = True
        while changed:
            changed = False
            for cls_qual in sorted(closure):
                for qual, fi in model.index.items():
                    if fi.cls is None or not qual.startswith(cls_qual + "."):
                        continue
                    for inst in model.graph.instantiated.get(qual, ()):
                        if inst not in closure:
                            closure.add(inst)
                            changed = True
        for cls_qual in sorted(closure):
            entry = project.class_def(cls_qual)
            if entry is None:
                continue
            info, cls = entry
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(item):
                    if not isinstance(node, ast.Assign):
                        continue
                    reason = _unpicklable_reason(project, info, node.value)
                    if reason is None:
                        continue
                    for target in node.targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            yield Finding(
                                info.path, node.lineno, node.col_offset,
                                f"{cls_qual}.{target.attr} captures {reason}; "
                                "instances cross checkpoint/multiprocessing "
                                "boundaries and must stay picklable",
                            )
