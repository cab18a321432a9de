"""The one verified blob store behind every result the repo keeps on disk.

Its callers are namespaces that only convert their payload to bytes and
back: the sim-cache (``simcache``, pickled ``RunResult``), the journal
sidecars (``sidecar``, pickled point results) and the serve result
store (``serve``, canonical JSON).  A blob is

    MAGIC | sha256(namespace, key, payload) | payload

written through a uniquely named ``<key>.<pid>.<rand>.tmp`` and an
atomic rename, so writers of one key race benignly.  Every read checks
the digest before the payload is decoded.  A blob that fails, or whose
payload the caller cannot decode, is renamed to ``<key>.corrupt``,
counted on ``blob.quarantined{namespace}``, warned about once per
namespace and process, and read as a miss: damage costs a recompute,
never a crash or a wrong number.
"""

from __future__ import annotations

import hashlib
import os
import uuid
import warnings
from pathlib import Path
from typing import Any, Callable, Optional, Union

#: Envelope magic.  The sim-cache key includes it, so a new envelope
#: format (with a new magic) makes older entries plain misses.
MAGIC = b"RCA1"
HEADER_LEN = len(MAGIC) + 32
QUARANTINE_METRIC = "blob.quarantined"

# Namespaces already warned about in this process.
_warned: set = set()
_process_registry = None


def process_registry():
    """Where stores built without a registry (the sim-cache) count."""
    global _process_registry
    if _process_registry is None:
        from repro.obs.registry import MetricsRegistry

        _process_registry = MetricsRegistry()
    return _process_registry


class BlobStore:
    """One namespace of verified blobs, stored as ``<root>/<key><suffix>``."""

    def __init__(self, root: Union[str, Path], namespace: str, suffix: str,
                 registry=None, fsync: bool = False) -> None:
        self.root = Path(root)
        self.namespace = namespace
        self.suffix = suffix
        self.registry = registry
        self.fsync = fsync

    def path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def _digest(self, key: str, payload: bytes) -> bytes:
        h = hashlib.sha256(f"{self.namespace}\0{key}\0".encode())
        h.update(payload)
        return h.digest()

    def put(self, key: str, payload: bytes) -> Path:
        """Store *payload* under *key* atomically; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        tmp = self.root / f"{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            with tmp.open("wb") as f:
                f.write(MAGIC + self._digest(key, payload))
                f.write(payload)
                if self.fsync:
                    f.flush()
                    os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def get(self, key: str,
            decode: Callable[[bytes], Any] = bytes) -> Optional[Any]:
        """The decoded payload under *key*; None when absent or damaged.

        *decode* raises on a payload the caller would not trust, which
        is then quarantined like a failed digest.
        """
        path = self.path(key)
        try:
            data = path.read_bytes()
            payload = data[HEADER_LEN:]
            if data[:HEADER_LEN] != MAGIC + self._digest(key, payload):
                raise ValueError("bad magic or digest mismatch")
            return decode(payload)
        except FileNotFoundError:
            return None  # a plain miss, or a race with clear()
        except Exception as exc:
            # A bad payload can make decoding raise nearly anything.
            self._quarantine(path, exc)
            return None

    def _quarantine(self, path: Path, exc: Exception) -> None:
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return  # another process already moved or removed it
        from repro.obs.metrics import spec_for

        registry = (self.registry if self.registry is not None
                    else process_registry())
        registry.register(spec_for(QUARANTINE_METRIC)).inc(
            namespace=self.namespace)
        if self.namespace not in _warned:
            _warned.add(self.namespace)
            warnings.warn(
                f"quarantined damaged {self.namespace} entry {path.name} "
                f"-> {target.name} ({type(exc).__name__}: {exc}); it will "
                f"be recomputed.  Further ones are counted silently on "
                f"{QUARANTINE_METRIC}{{namespace={self.namespace}}}.",
                RuntimeWarning,
                stacklevel=3,
            )

    def sweep_tmp(self) -> int:
        """Remove tmp files of writers killed mid-write (no live writer
        may share the directory: its tmp could vanish before its rename)."""
        return self._remove("*.tmp")

    def clear(self) -> int:
        """Remove every blob, tmp and quarantined file; returns how many."""
        return sum(self._remove(pattern)
                   for pattern in (f"*{self.suffix}", "*.tmp", "*.corrupt"))

    def _remove(self, pattern: str) -> int:
        removed = 0
        for p in self.root.glob(pattern):
            try:
                p.unlink()
            except OSError:
                continue
            removed += 1
        return removed


__all__ = ["BlobStore", "HEADER_LEN", "MAGIC", "QUARANTINE_METRIC",
           "process_registry"]
