"""Tests for sim-cache corruption handling (quarantine, not silent miss)."""

from __future__ import annotations

import pickle

import pytest

from repro.perf.stats import RunResult
from repro.sim import cache as simcache
from repro.workloads.base import WorkloadSpec


def cache_spec():
    return WorkloadSpec(
        name="cache", abbr="cache", suite="HPC",
        footprint_bytes=2**20 * 512,
        n_kernels=1, warmup_kernels=0, n_ctas=4,
        coverage=0.5, min_accesses=100, max_accesses=200,
        shared_page_frac=0.5, shared_access_frac=0.5,
        rw_page_frac=0.5, instr_per_access=5.0,
    )


@pytest.fixture
def live_cache(monkeypatch, tmp_path):
    """Point the cache at a tmp dir and re-enable it (conftest disables)."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _entry_path(spec, config):
    return simcache.cache_dir() / f"{simcache._key(spec, config)}.pkl"


def _result(spec, config):
    return RunResult(
        workload=spec.abbr, config_label="test", n_gpus=config.n_gpus
    )


class TestQuarantine:
    def test_roundtrip_still_works(self, live_cache, config):
        spec = cache_spec()
        simcache.store(spec, config, _result(spec, config))
        hit = simcache.load(spec, config)
        assert isinstance(hit, RunResult)
        assert hit.workload == spec.abbr

    def test_corrupt_entry_quarantined_with_warning(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle at all")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert simcache.load(spec, config) is None  # a miss, not a crash
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_truncated_pickle_quarantined(self, live_cache, config):
        spec = cache_spec()
        simcache.store(spec, config, _result(spec, config))
        path = _entry_path(spec, config)
        path.write_bytes(path.read_bytes()[:10])  # torn write
        assert simcache.load(spec, config) is None
        assert path.with_suffix(".corrupt").exists()

    def test_wrong_type_quarantined(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        # a verified blob whose payload is not a RunResult
        simcache._blobs().put(simcache._key(spec, config),
                              pickle.dumps({"not": "a RunResult"}))
        assert simcache.load(spec, config) is None
        assert path.with_suffix(".corrupt").exists()

    def test_recompute_after_quarantine(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        calls = []

        def compute():
            calls.append(1)
            return _result(spec, config)

        out = simcache.cached(spec, config, compute)
        assert len(calls) == 1  # quarantine produced a miss -> recompute
        assert isinstance(out, RunResult)
        # The fresh result replaced the entry; the next call is a hit.
        simcache.cached(spec, config, compute)
        assert len(calls) == 1

    def test_clear_sweeps_quarantine_files(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        simcache.load(spec, config)
        assert path.with_suffix(".corrupt").exists()
        assert simcache.clear() >= 1
        assert not path.with_suffix(".corrupt").exists()


class TestDisabled:
    def test_no_cache_env_short_circuits(self, monkeypatch, tmp_path, config):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = cache_spec()
        simcache.store(spec, config, _result(spec, config))
        assert not list(tmp_path.iterdir())
        assert simcache.load(spec, config) is None
