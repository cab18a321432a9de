"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    GpuConfig,
    LinkConfig,
    MemoryConfig,
    RdcConfig,
    SystemConfig,
)
from repro.gpu.cta import KernelTrace, WorkloadTrace


def small_config(**changes) -> SystemConfig:
    """A tiny, fast system: 4 GPUs, 16-line pages, 64-line caches.

    Uses the production defaults but can be overridden per test.  The
    default scale (1024) already shrinks everything; tests mostly tweak
    policies rather than geometry.
    """
    cfg = SystemConfig()
    return cfg.replace(**changes) if changes else cfg


def tiny_rdc_config(rdc_bytes: int = 2 * 2**30, **rdc_kw) -> SystemConfig:
    return small_config().with_rdc(rdc_bytes, **rdc_kw)


def make_kernel(
    lines,
    writes=None,
    n_ctas: int = 4,
    cta_ids=None,
    kernel_id: int = 0,
    **kw,
) -> KernelTrace:
    """Build a kernel trace from plain lists."""
    lines = np.asarray(lines, dtype=np.int64)
    if writes is None:
        writes = np.zeros(len(lines), dtype=bool)
    else:
        writes = np.asarray(writes, dtype=bool)
    if cta_ids is None:
        cta_ids = np.arange(len(lines), dtype=np.int32) % n_ctas
    else:
        cta_ids = np.asarray(cta_ids, dtype=np.int32)
    return KernelTrace(
        kernel_id=kernel_id,
        n_ctas=n_ctas,
        cta_ids=cta_ids,
        lines=lines,
        is_write=writes,
        **kw,
    )


def make_trace(kernels, name: str = "test") -> WorkloadTrace:
    return WorkloadTrace(name=name, kernels=list(kernels))


@pytest.fixture
def config() -> SystemConfig:
    return small_config()


@pytest.fixture
def carve_cfg() -> SystemConfig:
    return tiny_rdc_config()


@pytest.fixture(autouse=True)
def _no_sim_cache(monkeypatch):
    """Tests never read or write the on-disk simulation cache."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


@pytest.fixture(autouse=True)
def _fresh_store_warnings(monkeypatch):
    """The blob store warns once per namespace and process; every test
    starts with no namespace warned yet."""
    from repro.sim import cas

    monkeypatch.setattr(cas, "_warned", set())


class ChaosArm:
    """Arms :class:`repro.sim.chaos.ChaosPlan` s through the environment.

    ``arm(*events)`` saves a plan, points ``REPRO_CHAOS_PLAN`` and
    ``REPRO_CHAOS_STATE`` at it through monkeypatch (so forked pool
    workers inherit it) and returns the state directory, which holds
    the audit records.  Every call starts a fresh plan and state;
    ``disarm()`` turns chaos off again.
    """

    def __init__(self, root, monkeypatch) -> None:
        self._root = root
        self._monkeypatch = monkeypatch
        self._plans = 0

    def arm(self, *events):
        from repro.sim.chaos import PLAN_ENV, STATE_ENV, ChaosPlan

        self._plans += 1
        plan_path = self._root / f"plan-{self._plans}.json"
        state_dir = self._root / f"state-{self._plans}"
        ChaosPlan(seed=0, events=tuple(events)).save(plan_path)
        self._monkeypatch.setenv(PLAN_ENV, str(plan_path))
        self._monkeypatch.setenv(STATE_ENV, str(state_dir))
        return state_dir

    def disarm(self) -> None:
        from repro.sim.chaos import PLAN_ENV, STATE_ENV

        self._monkeypatch.delenv(PLAN_ENV, raising=False)
        self._monkeypatch.delenv(STATE_ENV, raising=False)


@pytest.fixture
def chaos_env(tmp_path_factory, monkeypatch):
    """A :class:`ChaosArm` whose plans live in their own temp directory."""
    from repro.sim import chaos

    yield ChaosArm(tmp_path_factory.mktemp("chaos"), monkeypatch)
    chaos.uninstall()  # drop this process's memoized engine


__all__ = [
    "GpuConfig",
    "LinkConfig",
    "MemoryConfig",
    "RdcConfig",
    "small_config",
    "tiny_rdc_config",
    "make_kernel",
    "make_trace",
]
