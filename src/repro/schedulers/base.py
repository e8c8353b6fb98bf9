"""Common scaffolding for scheduling policies."""

from __future__ import annotations

from repro.sim.engine import SchedulingView


class BaseScheduler:
    """Base class for all policies.

    Subclasses implement :meth:`schedule`; the engine calls it once per
    scheduling instance with a :class:`~repro.sim.engine.SchedulingView`
    through which the policy takes its actions.  A policy keeps no run
    statistics of its own: counts and timings per instance come from
    the engine's observers (:mod:`repro.sim.observers`, the profiler).
    """

    #: human-readable policy name, used in experiment reports
    name: str = "base"

    def schedule(self, view: SchedulingView) -> None:
        """Take scheduling actions for one instance via ``view``.

        Determinism contract (statically enforced by the RPR6xx taint
        rules): any randomness here must come from a generator derived
        from an explicit seed (RPR601), and no code reachable from
        ``schedule`` may consume the fault injector's private RNG
        (RPR602) — the failure stream stays policy-independent.
        """
        raise NotImplementedError

    # Optional lifecycle hooks --------------------------------------------
    def on_simulation_start(self, engine) -> None:  # noqa: ANN001
        """Called by the engine before the first event is processed."""

    def on_simulation_end(self, engine) -> None:  # noqa: ANN001
        """Called by the engine after the last event is processed."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
