"""On-disk memoisation of simulation runs.

A full-suite figure needs ~8 configurations x 20 workloads; benchmarks
live in separate processes, so results are cached on disk keyed by the
exact (workload spec, system config) pair plus a code-version stamp.
Bump :data:`CODE_VERSION` whenever simulator semantics change — stale
cache entries are then ignored.  Entries are verified blobs of
:mod:`repro.sim.cas`, so a damaged one is re-simulated, never read.

Set the environment variable ``REPRO_NO_CACHE=1`` to disable caching.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Callable, Optional

from repro.config import SystemConfig
from repro.perf.stats import RunResult
from repro.sim import cas, chaos
from repro.workloads.base import WorkloadSpec

#: Bump on any change that alters simulation results (or the shape of
#: the pickled RunResult) — and, per the VER001 lint gate, on any
#: change under the result-affecting packages, however innocuous
#: (v11: import reordering in numa/system.py for the style gate).
CODE_VERSION = 11

_DEFAULT_DIR = Path(__file__).resolve().parents[3] / ".simcache"


def cache_dir() -> Path:
    # Cache *location* never changes result values: entries are keyed
    # on CODE_VERSION+spec+config and replay bit-identical payloads.
    override = os.environ.get("REPRO_CACHE_DIR")  # lint: disable=DET004 - cache location is result-invariant
    return Path(override) if override else _DEFAULT_DIR


def cache_enabled() -> bool:
    # Cache on/off is result-invariant by the engine-equivalence
    # contract: a cache hit replays the exact bytes a miss recomputes.
    return os.environ.get("REPRO_NO_CACHE", "") != "1"  # lint: disable=DET004 - cache on/off is result-invariant


def _key(spec: WorkloadSpec, config: SystemConfig) -> str:
    # The envelope magic is part of the basis: an entry written in an
    # older envelope format is a plain miss, not a quarantine.
    payload = (f"v{CODE_VERSION}|{cas.MAGIC.decode()}|{spec!r}|{config!r}"
               .encode())
    return hashlib.sha256(payload).hexdigest()[:32]


def _blobs() -> cas.BlobStore:
    return cas.BlobStore(cache_dir(), "simcache", ".pkl")


def _decode(payload: bytes) -> RunResult:
    obj = pickle.loads(payload)
    if not isinstance(obj, RunResult):
        raise TypeError(f"cached object is {type(obj).__name__}, "
                        f"not RunResult")
    return obj


def load(spec: WorkloadSpec, config: SystemConfig) -> Optional[RunResult]:
    """Return a cached result, or None when absent/disabled/damaged.

    A damaged entry (failed digest, unpicklable payload, wrong type) is
    quarantined to ``<key>.corrupt``: the evidence stays, the slot frees.
    """
    if not cache_enabled():
        return None
    return _blobs().get(_key(spec, config), _decode)


def store(spec: WorkloadSpec, config: SystemConfig, result: RunResult) -> None:
    if not cache_enabled():
        return
    path = _blobs().put(
        _key(spec, config),
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
    )
    # Chaos drill hook (docs/chaos.md): a simcache_corrupt event rots
    # the entry at rest, which the verified read in load() must turn
    # back into a clean re-simulated miss.
    chaos.fire(chaos.SITE_SIMCACHE_STORE, getattr(spec, "name", ""),
               path=path)


def cached(
    spec: WorkloadSpec,
    config: SystemConfig,
    compute: Callable[[], RunResult],
) -> RunResult:
    """Memoise *compute* under the (spec, config) key."""
    hit = load(spec, config)
    if hit is not None:
        return hit
    result = compute()
    store(spec, config, result)
    return result


def clear() -> int:
    """Delete every cache entry; returns how many files were removed.

    Also sweeps ``*.tmp`` leftovers of stores interrupted mid-write and
    ``*.corrupt`` quarantine files.
    """
    return _blobs().clear()
