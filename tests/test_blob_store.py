"""The one verified blob store (sim/cas.py) behind its three namespaces.

Every stored blob is verified on read.  A flipped bit anywhere in an
entry, header included, must read as a miss, move the file aside to
``*.corrupt`` and count once on ``blob.quarantined{namespace}`` — for
the sim-cache, the journal sidecars and the serve result store alike.
Before the store existed, about half of all single-bit flips in a
sim-cache entry unpickled without error into different numbers.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import warnings

import pytest

from repro.obs.metrics import spec_for
from repro.obs.registry import MetricsRegistry
from repro.serve.store import ResultStore
from repro.sim import cache, cas
from repro.sim.driver import run_workload
from repro.sim.journal import Journal
from repro.workloads.base import WorkloadSpec
from tests.conftest import small_config

FLIPS = 64


def _spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="blob", abbr="blob", suite="HPC",
        footprint_bytes=2**20 * 512,
        n_kernels=2, warmup_kernels=1, n_ctas=4,
        coverage=0.5, min_accesses=300, max_accesses=600,
        shared_page_frac=0.4, shared_access_frac=0.4,
    )


@pytest.fixture(scope="module")
def result():
    """A real simulated RunResult: a payload full of numbers."""
    return run_workload(_spec(), small_config(), use_cache=False)


@pytest.fixture
def live_cache(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    return tmp_path / "simcache"


def _quarantined(registry, namespace: str) -> int:
    return registry.register(spec_for(cas.QUARANTINE_METRIC)).value(
        namespace=namespace)


def _simcache(tmp_path, result):
    config = small_config()
    cache.store(_spec(), config, result)
    (path,) = cache.cache_dir().glob("*.pkl")
    return path, lambda: cache.load(_spec(), config), cas.process_registry()


def _sidecar(tmp_path, result):
    registry = MetricsRegistry()
    journal = Journal(tmp_path / "j.jsonl", registry=registry)
    journal.store_result("numa-gpu/blob", result)
    (path,) = journal.results_dir.glob("*.pkl")
    return path, lambda: journal.load_result("numa-gpu/blob"), registry


def _serve(tmp_path, result):
    registry = MetricsRegistry()
    store = ResultStore(tmp_path / "store", registry=registry)
    key = "ab" * 16
    store.save(key, {
        "system": "numa-gpu",
        "results": {"blob": {"time_s": 1.25e-3, "remote_fraction": 0.375,
                             "accesses": int(result.total().accesses)}},
    })
    return store.result_path(key), lambda: store.load(key), registry


NAMESPACES = {"simcache": _simcache, "sidecar": _sidecar, "serve": _serve}


@pytest.mark.filterwarnings("ignore:quarantined:RuntimeWarning")
@pytest.mark.parametrize("namespace", sorted(NAMESPACES))
def test_every_single_bit_flip_is_a_counted_quarantined_miss(
        namespace, tmp_path, live_cache, result):
    path, load, registry = NAMESPACES[namespace](tmp_path, result)
    assert load() is not None
    original = path.read_bytes()
    corrupt = path.with_suffix(".corrupt")
    n_bits = len(original) * 8
    header_bits = cas.HEADER_LEN * 8
    rng = random.Random(f"flips:{namespace}")
    bits = (rng.sample(range(header_bits), FLIPS // 8)
            + rng.sample(range(header_bits, n_bits), FLIPS - FLIPS // 8))
    for bit in bits:
        flipped = bytearray(original)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        before = _quarantined(registry, namespace)
        assert load() is None, f"bit {bit} loaded"
        assert not path.exists() and corrupt.exists(), f"bit {bit}"
        assert _quarantined(registry, namespace) == before + 1, f"bit {bit}"
        corrupt.unlink()
    path.write_bytes(original)
    assert load() is not None


def test_pre_envelope_sim_cache_entry_is_a_plain_miss(live_cache, result):
    spec, config = _spec(), small_config()
    old_key = hashlib.sha256(
        f"v{cache.CODE_VERSION}|{spec!r}|{config!r}".encode()
    ).hexdigest()[:32]
    live_cache.mkdir(parents=True)
    old_entry = live_cache / f"{old_key}.pkl"
    old_entry.write_bytes(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    before = _quarantined(cas.process_registry(), "simcache")
    assert cache.load(spec, config) is None
    assert old_entry.exists()
    assert not list(live_cache.glob("*.corrupt"))
    assert _quarantined(cas.process_registry(), "simcache") == before


def test_blob_filed_under_another_key_is_quarantined(tmp_path):
    store = cas.BlobStore(tmp_path, "test", ".blob")
    store.put("a", b"payload")
    store.path("a").rename(store.path("b"))
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert store.get("b") is None
    assert (tmp_path / "b.corrupt").exists()


def test_warns_once_per_namespace(tmp_path):
    first = cas.BlobStore(tmp_path / "1", "one", ".blob")
    second = cas.BlobStore(tmp_path / "2", "two", ".blob")
    for store in (first, second):
        store.root.mkdir()
        store.path("a").write_bytes(b"junk")
        store.path("b").write_bytes(b"junk")
        with pytest.warns(RuntimeWarning, match=store.namespace):
            assert store.get("a") is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert first.get("b") is None  # counted, not warned again
    assert _quarantined(cas.process_registry(), "one") >= 2


def test_sweep_and_clear(tmp_path):
    store = cas.BlobStore(tmp_path, "test", ".blob")
    store.put("a", b"x")
    (tmp_path / "a.123.deadbeef.tmp").write_bytes(b"half")
    (tmp_path / "b.corrupt").write_bytes(b"evidence")
    assert store.sweep_tmp() == 1
    assert store.get("a") == b"x"
    assert store.clear() == 2
    assert not list(tmp_path.iterdir())
