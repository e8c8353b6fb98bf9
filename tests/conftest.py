"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from repro.check.sanitize import sanitizing
from repro.core import dras_dql, dras_pg
from repro.nn.network import build_dras_network
from repro.sim.cluster import Cluster
from repro.sim.job import Job


def float64_agent(agent_cls, config, **kwargs):
    """``agent_cls(config)`` with a float64 network: the oracle twin.

    Agents build their network in the paper's float32.  Goldens pinned
    before that, and any comparison tighter than float32 rounding, need
    the twin the same generator draws *without* the rounding (it leaves
    the generator at the same position, so action sampling continues
    identically).  Precision has no knob on ``DRASConfig`` or the agent
    constructors, so the builder name each agent module resolves is
    swapped for the duration of the constructor — the optimizer and
    every buffer then follow the network.  A bare network needs no
    helper: pass ``dtype=np.float64`` to ``Network`` /
    ``build_dras_network``.
    """
    wide = functools.partial(build_dras_network, dtype=np.float64)
    with mock.patch.object(dras_pg, "build_dras_network", wide), \
            mock.patch.object(dras_dql, "build_dras_network", wide):
        return agent_cls(config, **kwargs)


def make_job(
    size: int = 1,
    walltime: float = 100.0,
    runtime: float | None = None,
    submit: float = 0.0,
    priority: int = 0,
    deps: tuple[int, ...] = (),
    job_id: int | None = None,
) -> Job:
    """Compact job constructor for tests."""
    kwargs = dict(
        size=size,
        walltime=walltime,
        runtime=runtime if runtime is not None else walltime,
        submit_time=submit,
        priority=priority,
        dependencies=deps,
    )
    if job_id is not None:
        kwargs["job_id"] = job_id
    return Job(**kwargs)


def with_node_rows(heads: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The ``[B, k + N, 2]`` input a two-input forward stands for."""
    return np.concatenate(
        [heads, np.broadcast_to(block, (len(heads),) + block.shape)], axis=1)


def alloc_bytes(cluster: Cluster) -> int:
    """Bytes the allocation table keeps alive: a view counts its base.

    Places the cluster's start/finish log first.
    """
    cluster._place()
    return sum((nodes if nodes.base is None else nodes.base).nbytes
               for nodes in cluster._alloc.values())


class LoggedEvent(NamedTuple):
    """One start, reservation, finish or kill, as :class:`EventLog` records it."""

    time: float
    kind: str           #: "start" | "reserve" | "finish" | "kill"
    job_id: int
    size: int
    mode: str | None = None


class EventLog:
    """Engine observer that probes the hooks: every start (with its
    execution mode) and reservation, plus every finish and fault kill,
    in engine order."""

    def __init__(self) -> None:
        self.events: list[LoggedEvent] = []

    def on_start(self, job: Job, now: float) -> None:
        self.events.append(LoggedEvent(now, "start", job.job_id, job.size,
                                       job.mode.value if job.mode else None))

    def on_reserve(self, job: Job, now: float, reservation) -> None:
        self.events.append(LoggedEvent(now, "reserve", job.job_id, job.size))

    def on_finish(self, job: Job, now: float) -> None:
        self.events.append(LoggedEvent(now, "finish", job.job_id, job.size))

    def on_kill(self, job: Job, now: float) -> None:
        self.events.append(LoggedEvent(now, "kill", job.job_id, job.size))

    def starts(self) -> list[LoggedEvent]:
        return [e for e in self.events if e.kind == "start"]

    def finishes(self) -> list[LoggedEvent]:
        return [e for e in self.events if e.kind == "finish"]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(8)


@pytest.fixture
def sanitizer_on():
    """The sanitizer is on for the test, whatever ``REPRO_SANITIZE`` says."""
    with sanitizing(True):
        yield


@pytest.fixture
def sanitizer_off():
    """The sanitizer is off for the test, so it also passes under an
    ambient ``REPRO_SANITIZE=1``."""
    with sanitizing(False):
        yield


@pytest.fixture(autouse=True)
def _deterministic_job_ids():
    """Keep auto-assigned job ids deterministic per test."""
    from repro.sim.job import reset_job_id_counter

    reset_job_id_counter(1000)
    yield
