"""RPR4xx — API-contract rules for schedulers, observers and spans.

The simulator dispatches to schedulers and observers dynamically
(hooks are looked up by name), so a misspelt hook or a drifted
signature fails *silently*: the engine simply never calls it.  These
rules pin the three duck-typed contracts down statically:

* **RPR401** ``scheduler-override`` — every concrete subclass of
  :class:`repro.schedulers.base.BaseScheduler` implements (or inherits
  from an intermediate class) a ``schedule(self, view)`` with a
  compatible signature; extra parameters must carry defaults.
* **RPR402** ``lifecycle-hook`` — ``on_simulation_start`` /
  ``on_simulation_end`` overrides keep the ``(self, engine)`` shape the
  engine calls them with.
* **RPR403** ``observer-hook`` — any class defining a hook of the
  :class:`repro.sim.observers.Observer` protocol (:data:`OBSERVER_HOOKS`:
  ``on_start(self, job, now)``, ``on_instance(self, view, started)``,
  ``on_reserve(self, job, now, reservation)``, ...) matches its
  signature exactly, since the engine invokes whatever attribute
  happens to exist; a method named ``on_*`` that is *not* a hook
  there is flagged too when the class implements a real hook
  beside it (a misspelt hook is never called).
* **RPR404** ``span-registry`` — every string-literal span/event name
  passed to ``.span(...)`` / ``.begin(...)`` / ``.event(...)`` is in
  :data:`SPAN_NAMES`, the documented registry (docs/observability.md);
  ad-hoc names fragment trace analysis tooling.

RPR401 is anchored to the real project layout and yields nothing when
``BaseScheduler`` is absent (scratch trees); the other three check
whatever classes and calls a tree has.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.project import ModuleInfo, ProjectModel
from repro.check.rules import Finding, Rule, register

BASE_SCHEDULER = "repro.schedulers.base.BaseScheduler"

#: observer hooks the engine resolves by name, once per run
OBSERVER_HOOKS: dict[str, tuple[str, ...]] = {
    "on_run_begin": ("self", "engine"),
    "on_run_end": ("self", "engine", "completed"),
    "on_instance_begin": ("self", "now", "n_events"),
    "on_abandon": ("self", "job", "now", "parent"),
    "on_finish": ("self", "job", "now"),
    "on_kill": ("self", "job", "now"),
    "on_node_fail": ("self", "now", "nodes", "killed"),
    "on_node_repair": ("self", "now", "node"),
    "on_schedule_begin": ("self", "view"),
    "on_start": ("self", "job", "now"),
    "on_reserve": ("self", "job", "now", "reservation"),
    "on_schedule_end": ("self", "view"),
    "on_instance": ("self", "view", "started"),
}

#: scheduler lifecycle hooks called around every simulation run
LIFECYCLE_HOOKS: dict[str, tuple[str, ...]] = {
    "on_simulation_start": ("self", "engine"),
    "on_simulation_end": ("self", "engine"),
}

#: the documented span/event name registry (docs/observability.md);
#: RPR404 keeps call sites from inventing names outside it
SPAN_NAMES = frozenset({
    "engine.instance",
    "engine.allocate",
    "engine.release",
    "engine.backfill_reserve",
    "engine.node_fail",
    "engine.node_repair",
    "engine.job_kill",
    "engine.job_abandon",
    "nn.forward",
    "nn.backward",
    "nn.adam_step",
    "train.episode",
    "train.validate",
    "train.checkpoint",
})


def _positional_names(fn: ast.FunctionDef) -> tuple[list[str], int]:
    """Positional parameter names and how many of them are required."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    return names, len(names) - len(args.defaults)


def signature_error(fn: ast.FunctionDef, expected: tuple[str, ...]) -> str | None:
    """Why ``fn`` is incompatible with ``expected`` (None when it fits).

    Compatible means: the leading positional parameters are exactly
    ``expected`` (same names, same order) and anything beyond them has a
    default, so the engine's positional call still binds.
    """
    names, n_required = _positional_names(fn)
    if names[: len(expected)] != list(expected):
        return (
            f"signature ({', '.join(names)}) is incompatible with the "
            f"engine's call ({', '.join(expected)})"
        )
    if n_required > len(expected):
        extra = names[len(expected):n_required]
        return (
            f"extra required parameter(s) {', '.join(extra)} break the "
            f"engine's ({', '.join(expected)}) call"
        )
    return None


def _find_method(
    project: ProjectModel, qualname: str, method: str,
    stop_at: str | None = None, _depth: int = 0,
) -> tuple[ModuleInfo, ast.FunctionDef] | None:
    """Find ``method`` on a class or its project-resolvable ancestors.

    ``stop_at`` excludes one ancestor (and everything above it) from
    the search — used to ignore BaseScheduler's own raising stub.
    """
    if _depth > 10 or qualname == stop_at:
        return None
    entry = project.class_def(qualname)
    if entry is None:
        return None
    info, node = entry
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == method:
            return info, stmt
    for base in node.bases:
        resolved = project._resolve_base(info, base)
        if resolved is not None and resolved != qualname:
            found = _find_method(project, resolved, method, stop_at, _depth + 1)
            if found is not None:
                return found
    return None


@register
class SchedulerOverrideRule(Rule):
    """Every BaseScheduler subclass implements ``schedule(self, view)``."""

    id = "RPR401"
    slug = "scheduler-override"
    rationale = (
        "BaseScheduler.schedule only raises at runtime; a subclass that "
        "forgets the override (or drifts its signature) passes import and "
        "fails mid-simulation"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Walk the scheduler hierarchy, checking each concrete class."""
        if project.class_def(BASE_SCHEDULER) is None:
            return
        for qualname in project.subclasses_of(BASE_SCHEDULER):
            entry = project.class_def(qualname)
            if entry is None:
                continue
            info, node = entry
            found = _find_method(project, qualname, "schedule",
                                 stop_at=BASE_SCHEDULER)
            if found is None:
                yield Finding(info.path, node.lineno, node.col_offset, (
                    f"{node.name} subclasses BaseScheduler but neither it nor "
                    "an intermediate base implements schedule(self, view)"
                ))
                continue
            fn_info, fn = found
            error = signature_error(fn, ("self", "view"))
            if error is not None:
                yield Finding(fn_info.path, fn.lineno, fn.col_offset,
                              f"{node.name}.schedule: {error}")


@register
class LifecycleHookRule(Rule):
    """``on_simulation_start``/``_end`` overrides keep ``(self, engine)``."""

    id = "RPR402"
    slug = "lifecycle-hook"
    rationale = (
        "the engine calls lifecycle hooks positionally with itself as the "
        "only argument; a drifted override raises TypeError mid-run"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Check every class that defines a lifecycle hook."""
        for info, node in project.iter_classes():
            for stmt in node.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                expected = LIFECYCLE_HOOKS.get(stmt.name)
                if expected is None:
                    continue
                error = signature_error(stmt, expected)
                if error is not None:
                    yield Finding(info.path, stmt.lineno, stmt.col_offset,
                                  f"{node.name}.{stmt.name}: {error}")


@register
class ObserverHookRule(Rule):
    """Observer hook definitions match the engine's dispatch signature."""

    id = "RPR403"
    slug = "observer-hook"
    rationale = (
        "observer hooks are resolved by name, so a hook with the wrong "
        "name or shape is either never called or explodes with TypeError "
        "at the first event"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Check every class that defines an observer hook."""
        for info, node in project.iter_classes():
            methods = [stmt for stmt in node.body
                       if isinstance(stmt, ast.FunctionDef)]
            is_observer = any(m.name in OBSERVER_HOOKS for m in methods)
            for stmt in methods:
                expected = OBSERVER_HOOKS.get(stmt.name)
                if expected is not None:
                    error = signature_error(stmt, expected)
                elif is_observer and stmt.name.startswith("on_") \
                        and stmt.name not in LIFECYCLE_HOOKS:
                    error = ("is not a hook of the Observer protocol "
                             "(misspelt?); the engine never calls it")
                else:
                    continue
                if error is not None:
                    yield Finding(info.path, stmt.lineno, stmt.col_offset,
                                  f"{node.name}.{stmt.name}: {error}")


@register
class SpanRegistryRule(Rule):
    """Literal span/event names must come from the documented registry."""

    id = "RPR404"
    slug = "span-registry"
    rationale = (
        "trace analysis (repro.obs.analyze, repro.obs.report) keys on span "
        "names; an undocumented name silently falls out of every report"
    )

    def check(self, project: ProjectModel) -> Iterator[Finding]:
        """Scan every ``.span/.begin/.event`` call with a literal name."""
        for info in project.modules.values():
            for node in ast.walk(info.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("span", "begin", "event")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    continue
                name = node.args[0].value
                if name not in SPAN_NAMES:
                    yield Finding(
                        info.path, node.lineno, node.col_offset, (
                            f"span name {name!r} is not in the documented "
                            "registry (repro.check.contracts.SPAN_NAMES / "
                            "docs/observability.md)"
                        ))
