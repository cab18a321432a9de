"""Regression tests for kernel-boundary / migration accounting fixes.

Three historical bugs are pinned down here:

1. Write-back RDC flush traffic (link bytes, home DRAM writes, the
   ``remote_writes`` bump) was snapshotted *before* the kernel boundary
   ran, so it leaked into the next kernel's stats — and vanished
   entirely for the last kernel of a trace.
2. Page migration invalidated the *peers'* cached copies but left the
   requester's own RDC entries for the migrated page in place, letting a
   stale remote-cache copy shadow the now-local page.
3. The on-disk simulation cache wrote through a fixed ``.tmp`` name, so
   two processes storing the same key could rename each other's
   half-written files into place.
"""

from __future__ import annotations

import os

import pytest

from repro.config import (
    COHERENCE_NONE,
    COHERENCE_SOFTWARE,
    LINE_BYTES,
    LINK_HEADER_BYTES,
    WRITE_BACK,
)
from repro.numa.system import ENGINE_REFERENCE, ENGINE_VECTORIZED, MultiGpuSystem

from tests.conftest import make_kernel, make_trace, small_config, tiny_rdc_config

ENGINES = [ENGINE_VECTORIZED, ENGINE_REFERENCE]


# ---------------------------------------------------------------------------
# Bug 1: write-back flush traffic belongs to the kernel that just ended.
# ---------------------------------------------------------------------------

def _write_back_cfg():
    return tiny_rdc_config(
        coherence=COHERENCE_SOFTWARE, write_policy=WRITE_BACK
    )


def _dirtying_kernels(system):
    """Kernels that leave GPU 0's RDC with one dirty line homed at GPU 1.

    Kernel 0: CTA 1 (-> GPU 1 under contiguous scheduling) first-touches
    line L, homing its page at GPU 1.  Kernel 1: CTA 0 (-> GPU 0) reads L
    (remote miss, RDC fill) then writes it (RDC hit; under write-back the
    home write is deferred to the kernel boundary).
    """
    lpp = system.amap.lines_per_page
    line = 7 * lpp
    k0 = make_kernel([line], cta_ids=[1], kernel_id=0)
    k1 = make_kernel(
        [line, line], writes=[False, True], cta_ids=[0, 0], kernel_id=1
    )
    return line, k0, k1


@pytest.mark.parametrize("engine", ENGINES)
def test_last_kernel_flush_is_not_dropped(engine):
    cfg = _write_back_cfg()
    system = MultiGpuSystem(cfg, engine=engine)
    _, k0, k1 = _dirtying_kernels(system)
    result = system.run(make_trace([k0, k1]))
    ks0, ks1 = result.kernels

    # Kernel 0 is purely local: no link traffic at all.
    assert all(b == 0 for row in ks0.link_bytes for b in row)
    assert ks0.gpus[0].remote_writes == 0

    # Kernel 1 (the LAST kernel): the read request header plus the
    # boundary flush of the dirty line, all attributed to this kernel.
    flush_bytes = LINK_HEADER_BYTES + LINE_BYTES
    assert ks1.link_bytes[0][1] == LINK_HEADER_BYTES + flush_bytes
    assert ks1.link_bytes[1][0] == flush_bytes  # read reply
    # One in-kernel remote write (deferred) + one flush write-back.
    assert ks1.gpus[0].remote_writes == 2
    # The flushed line lands in the home node's DRAM within kernel 1.
    assert ks1.gpus[1].dram_writes == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_flush_traffic_does_not_leak_into_next_kernel(engine):
    cfg = _write_back_cfg()
    system = MultiGpuSystem(cfg, engine=engine)
    line, k0, k1 = _dirtying_kernels(system)
    lpp = system.amap.lines_per_page
    # Kernel 2 only does a local read on GPU 1; with the flush correctly
    # attributed to kernel 1, kernel 2 must show zero link traffic.
    k2 = make_kernel([3 * lpp], cta_ids=[1], kernel_id=2)
    result = system.run(make_trace([k0, k1, k2]))
    ks1, ks2 = result.kernels[1], result.kernels[2]

    flush_bytes = LINK_HEADER_BYTES + LINE_BYTES
    assert ks1.link_bytes[0][1] == LINK_HEADER_BYTES + flush_bytes
    assert all(b == 0 for row in ks2.link_bytes for b in row)
    assert ks2.gpus[0].remote_writes == 0
    assert ks2.gpus[1].dram_writes == 0


# ---------------------------------------------------------------------------
# Bug 2: migration must invalidate the requester's RDC lines of the page.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_migration_invalidates_requester_rdc(engine):
    cfg = small_config(migration=True, migration_threshold=2).with_rdc(
        2 * 2**30, coherence=COHERENCE_NONE
    )
    system = MultiGpuSystem(cfg, engine=engine)
    lpp = system.amap.lines_per_page
    page = 5
    l0, l1 = page * lpp, page * lpp + 1

    # GPU 1 first-touches the page; GPU 0 then reads two of its lines
    # remotely, tripping the threshold on the second access.
    system.access(1, l0, False)
    system.access(0, l0, False)  # remote read #1: RDC fill at GPU 0
    rdc = system.nodes[0].carve.rdc
    assert rdc.contains(l0)
    system.access(0, l1, False)  # remote read #2: migrate to GPU 0

    assert system.pagetable.peek_home(page) == 0
    assert system.migration.stats.migrations == 1
    # The page is local to GPU 0 now; stale RDC copies must be gone.
    assert not rdc.contains(l0)
    assert not rdc.contains(l1)


# ---------------------------------------------------------------------------
# Bug 3: simulation-cache stores must not share a tmp file name.
# ---------------------------------------------------------------------------

@pytest.fixture
def sim_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    return tmp_path


def _spec_and_result():
    from repro.perf.stats import RunResult
    from repro.workloads.suite import get

    spec = get("Lulesh")
    return spec, RunResult(workload="t", config_label="c", n_gpus=4)


def test_store_round_trips_and_leaves_no_tmp(sim_cache_dir):
    from repro.sim import cache

    spec, result = _spec_and_result()
    cfg = small_config()
    cache.store(spec, cfg, result)
    assert list(sim_cache_dir.glob("*.pkl"))
    assert not list(sim_cache_dir.glob("*.tmp"))
    loaded = cache.load(spec, cfg)
    assert loaded == result


def test_interrupted_store_cleans_its_tmp(sim_cache_dir, monkeypatch):
    from repro.sim import cache

    spec, result = _spec_and_result()
    cfg = small_config()

    def boom(*a, **kw):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        cache.store(spec, cfg, result)
    # The uniquely named tmp file was removed; no entry was published.
    assert not list(sim_cache_dir.glob("*"))


def test_concurrent_stores_use_distinct_tmp_names(sim_cache_dir, monkeypatch):
    """Two stores of the same key must never write the same tmp path."""
    from repro.sim import cache

    spec, result = _spec_and_result()
    cfg = small_config()
    seen = []
    real_open = type(sim_cache_dir).open

    def spying_open(self, *a, **kw):
        if self.suffix == ".tmp":
            seen.append(self.name)
        return real_open(self, *a, **kw)

    monkeypatch.setattr(type(sim_cache_dir), "open", spying_open)
    cache.store(spec, cfg, result)
    cache.store(spec, cfg, result)
    assert len(seen) == 2 and seen[0] != seen[1]


def test_clear_sweeps_orphaned_tmp_files(sim_cache_dir):
    from repro.sim import cache

    spec, result = _spec_and_result()
    cache.store(spec, small_config(), result)
    orphan = sim_cache_dir / "deadbeef.1234.abcd1234.tmp"
    orphan.write_bytes(b"half-written")
    removed = cache.clear()
    assert removed == 2
    assert not list(sim_cache_dir.glob("*"))
