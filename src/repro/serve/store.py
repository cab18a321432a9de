"""Content-addressed result store for ``repro serve``.

A job's identity is its *configuration*, not its submission: the store
key is a truncated sha256 over the canonical JSON of

    {code_version, config_hash, system, workloads}

so two submissions of the same suite config — from different clients,
hours apart — address the same result, and a simulator change
(``CODE_VERSION`` bump) invalidates every stored result at once, the
same rule the sim-cache and baseline fingerprints already follow.

On disk every result is a verified blob of :mod:`repro.sim.cas`
(namespace ``serve``) whose payload is the canonical JSON of the result:
writes are atomic, and a file that fails its digest or does not decode
is **quarantined** (moved aside to ``<key>.corrupt``), counted on
``blob.quarantined{namespace}`` and treated as a miss — corruption
costs a re-run, never a crash or a silently wrong cache hit.

The store can be **bounded** (``max_bytes``): when the total footprint
exceeds the bound, whole entries — result envelope plus journal plus
span spills — are evicted least-recently-*used* first (``load`` touches
the result file's mtime), at startup and after every write.  Evictions
count on ``serve.store_evicted``; the CAS re-runs an evicted config on
its next submission, so eviction costs time, never correctness.

Layout under the store root::

    store/
      results/<key>.json       verified result blobs (the CAS)
      journals/<key>.jsonl     execution journal per job (report source)
      journals/<key>-spans/    span spills of the job's trace
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Optional

from repro.obs.trace import spans_dir_for
from repro.sim import cas

#: hex digits kept of the sha256 key — same truncation as the sim cache.
KEY_LEN = 32


def cas_key(*, config_hash: str, code_version: int, system: str,
            workloads) -> str:
    """The content address of one suite request.

    ``config_hash`` covers every physical parameter of the simulated
    system; ``code_version`` covers the simulator implementation;
    ``system``/``workloads`` cover what the suite actually runs.
    Together they are exactly the inputs that determine the result.
    """
    basis = json.dumps(
        {
            "code_version": code_version,
            "config_hash": config_hash,
            "system": system,
            "workloads": sorted(workloads),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:KEY_LEN]


class ResultStore:
    """On-disk CAS of completed job results, keyed by :func:`cas_key`."""

    def __init__(self, root, registry=None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.journals_dir = self.root / "journals"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.journals_dir.mkdir(parents=True, exist_ok=True)
        self._registry = registry
        self._blobs = cas.BlobStore(self.results_dir, "serve", ".json",
                                    registry=registry)
        self.max_bytes = max_bytes
        # Startup GC: a restarted service honours a newly-lowered bound
        # (or one it crashed past) before serving anything.
        self._evict()

    # -- paths -----------------------------------------------------------

    def result_path(self, key: str) -> Path:
        return self._blobs.path(key)

    def journal_path(self, key: str) -> Path:
        return self.journals_dir / f"{key}.jsonl"

    # -- CAS operations --------------------------------------------------

    def save(self, key: str, payload: dict) -> Path:
        """Store *payload* under *key*, atomically and verifiably."""
        target = self._blobs.put(key, json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode())
        self._evict(protect=key)
        return target

    def load(self, key: str) -> Optional[dict]:
        """The stored payload for *key*; ``None`` when absent or
        damaged (then quarantined, so the re-run job can store afresh)."""
        payload = self._blobs.get(key, json.loads)
        if payload is None:
            return None
        try:
            os.utime(self.result_path(key))  # LRU touch: a hit is a use
        except OSError:
            pass
        return payload

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.results_dir.glob("*.json"))

    # -- bounded-store GC ------------------------------------------------

    def _entry_paths(self, key: str) -> list[Path]:
        """Everything one CAS entry owns on disk."""
        return [
            self.result_path(key),
            self.journal_path(key),
            spans_dir_for(self.journal_path(key)),
        ]

    def _entry_bytes(self, key: str) -> int:
        total = 0
        for path in self._entry_paths(key):
            try:
                if path.is_dir():
                    total += sum(
                        f.stat().st_size
                        for f in path.rglob("*") if f.is_file()
                    )
                elif path.exists():
                    total += path.stat().st_size
            except OSError:
                continue
        return total

    def _evict(self, protect: Optional[str] = None) -> int:
        """LRU-evict whole entries until the footprint fits the bound.

        *protect* names a key never evicted (the one just written — a
        bound smaller than a single result must not eat the result it
        was asked to store).  Returns the number of entries evicted.
        """
        if self.max_bytes is None:
            return 0
        entries = []  # (last-use mtime, key, bytes)
        for path in self.results_dir.glob("*.json"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, path.stem, self._entry_bytes(path.stem)))
        entries.sort()
        total = sum(size for _, _, size in entries)
        evicted = 0
        for _, key, size in entries:
            if total <= self.max_bytes:
                break
            if key == protect:
                continue
            for path in self._entry_paths(key):
                try:
                    if path.is_dir():
                        shutil.rmtree(path, ignore_errors=True)
                    elif path.exists():
                        path.unlink()
                except OSError:
                    continue
            total -= size
            evicted += 1
            if self._registry is not None:
                from repro.obs.metrics import spec_for

                self._registry.register(
                    spec_for("serve.store_evicted")
                ).inc()
        return evicted


__all__ = [
    "KEY_LEN",
    "ResultStore",
    "cas_key",
]
