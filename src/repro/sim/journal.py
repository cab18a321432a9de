"""Crash-consistent append-only JSONL execution journal (schema v2).

The runner (:mod:`repro.sim.runner`) records one JSON object per line as
points start, retry, fail, or complete.  A journal makes an interrupted
sweep resumable: ``--resume`` replays the journal, skips every point
whose latest terminal event is ``done`` (reloading its pickled result
from the sidecar results directory), and re-runs everything else.

Record schema (all events carry ``event``, ``key``, ``ts`` and — since
schema v2 — a ``sum`` integrity checksum):

``meta``    {fingerprint, schema} — batch environment (simulator
            CODE_VERSION, git sha, python); ``key`` is empty
``start``   {attempt}
``retry``   {attempt, kind, exception_type, message, backoff_s}
``failed``  {kind, exception_type, message, traceback, config_hash,
             attempts, elapsed_s}
``done``    {attempt, elapsed_s, config_hash, metrics?}

The ``meta`` fingerprint is what lets ``python -m repro report`` and the
baseline/regression tooling (``docs/regression.md``) attribute every
digest in a journal to the code revision that produced it.

Durability model (drilled end to end by ``python -m repro chaos``, see
``docs/chaos.md``):

* **Per-record checksums.**  Every line carries ``sum`` — a truncated
  sha256 over the record's canonical JSON without the ``sum`` field.  A
  record that decodes but fails its checksum is dropped and counted,
  never trusted: resume then re-runs the point, which is always safe.
* **Torn tail vs interior corruption.**  A crash mid-append tears at
  most the *final* line; that is expected damage, silently truncated
  away before the next append (counted once per journal instance).  A
  broken line anywhere *else* — or a complete line failing its
  checksum — means something other than a crash touched the file, so it
  is skipped **loudly**: a one-shot ``RuntimeWarning`` plus counters.
* **Verified sidecars.**  Results are pickled to
  ``<journal-stem>-results/<sha256(key)[:24]>.pkl`` as blobs of
  :mod:`repro.sim.cas` (namespace ``sidecar``).  ``load_result``
  verifies every read and quarantines any unreadable or tampered
  sidecar to ``*.corrupt`` (one-shot warning, counted on
  ``blob.quarantined{namespace}``), so resume re-runs the point
  instead of resuming from garbage.
* **Opt-in fsync.**  ``Journal(..., fsync=True)`` — or
  ``REPRO_JOURNAL_FSYNC=1`` — fsyncs every append and sidecar store,
  trading throughput for power-loss durability.  The default (flush
  only) already survives process crashes, which is what the drill
  attacks.

A line without a ``sum`` field is damaged like one whose checksum
fails: every writer stamps one, so its absence means the line was not
written by this journal.

Reads are **scan-cached**: :meth:`Journal.records`, :meth:`Journal.meta`
and :meth:`Journal.completed_keys` share one parsed snapshot keyed on
the file's (size, mtime_ns), so a resume consults the disk once, not
once per accessor.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.sim import cas, chaos

#: Stamped into ``meta`` records; bump on incompatible record changes.
JOURNAL_SCHEMA_VERSION = 2

#: Record field carrying the integrity checksum (short: it is on every line).
CHECKSUM_FIELD = "sum"

#: Set to ``1`` to fsync appends and sidecar stores (power-loss safety).
FSYNC_ENV = "REPRO_JOURNAL_FSYNC"

# One-shot warning latch (process-wide: the first incident is loud, the
# rest are counted).
_warned_corrupt_records = False


def _key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:24]


def record_checksum(record: dict) -> str:
    """Truncated sha256 over the record's canonical JSON minus ``sum``."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_FIELD}
    payload = json.dumps(body, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _intact_record(line: str) -> Optional[tuple[dict, Optional[str]]]:
    """Parse one journal line.

    Returns ``(record, None)`` for an intact record, ``(None, why)``
    for a damaged line (``why`` in ``undecodable`` / ``malformed`` /
    ``checksum``).  A record without a checksum field fails its
    checksum.
    """
    try:
        parsed = json.loads(line)
    except json.JSONDecodeError:
        return (None, "undecodable")
    if not (isinstance(parsed, dict) and "event" in parsed
            and "key" in parsed):
        return (None, "malformed")
    if parsed.get(CHECKSUM_FIELD) != record_checksum(parsed):
        return (None, "checksum")
    return (parsed, None)


@dataclass
class JournalScan:
    """One parsed pass over a journal file."""

    #: Every intact record, in file order.
    records: list = field(default_factory=list)
    #: Half-written final line (crash mid-append): expected, repairable.
    torn_tail: int = 0
    #: Broken non-tail lines (undecodable or malformed): not crash
    #: damage — warned about and skipped.
    corrupt_records: int = 0
    #: Complete lines whose ``sum`` did not verify: dropped, warned.
    checksum_failures: int = 0


class Journal:
    """One JSONL journal file plus its sidecar results directory."""

    def __init__(
        self,
        path: Union[str, Path],
        fsync: Optional[bool] = None,
        registry=None,
    ) -> None:
        self.path = Path(path)
        self.results_dir = self.path.parent / f"{self.path.stem}-results"
        #: Optional MetricsRegistry for the journal.* damage counters.
        self.registry = registry
        self._fsync = (
            fsync if fsync is not None
            else os.environ.get(FSYNC_ENV, "") == "1"
        )
        self._sidecars = cas.BlobStore(self.results_dir, "sidecar", ".pkl",
                                       registry=registry, fsync=self._fsync)
        self._scan_cache: Optional[tuple[tuple[int, int], JournalScan]] = None
        self._tail_checked = False
        self._torn_counted = False
        self._counted_corrupt = 0
        self._counted_checksum = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, event: str, key: str, **fields: Any) -> None:
        """Append one checksummed record (flushed; fsynced if opted in).

        The first append of this instance also repairs a torn tail left
        by a crashed predecessor, so a half-written line can never get
        buried under new records (where it would read as interior
        corruption instead of expected crash damage).
        """
        # Journal timestamps are observability metadata; nothing
        # deterministic is derived from them.
        # lint: disable=DET001
        record = {"event": event, "key": key, "ts": time.time(), **fields}
        if event == "meta":
            record.setdefault("schema", JOURNAL_SCHEMA_VERSION)
        record[CHECKSUM_FIELD] = record_checksum(record)
        line = json.dumps(record, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.repair_tail()
        chaos.fire(chaos.SITE_JOURNAL_APPEND, key, path=self.path, line=line)
        with self.path.open("a", encoding="utf-8") as f:
            f.write(line + "\n")
            f.flush()
            if self._fsync:
                os.fsync(f.fileno())

    def repair_tail(self) -> bool:
        """Truncate a half-written final line; True when one was cut.

        Only a crash mid-append produces one, only on the last line,
        and its content is by definition an event that never completed
        — so removal is always safe and done silently (counted in the
        ``journal.torn_records`` metric, once per incident).  Checked
        once per instance: after the first append this process owns the
        tail.
        """
        if self._tail_checked:
            return False
        self._tail_checked = True
        try:
            data = self.path.read_bytes()
        except OSError:
            return False
        if not data or data.endswith(b"\n"):
            return False
        cut = data.rfind(b"\n") + 1
        tail = data[cut:]
        try:
            intact = _intact_record(tail.decode("utf-8").strip())[0] is not None
        except UnicodeDecodeError:
            intact = False
        if intact:
            # Only the newline was lost; finish the line instead of
            # discarding a complete, checksum-verified record.
            with self.path.open("ab") as f:
                f.write(b"\n")
            return False
        with self.path.open("rb+") as f:
            f.truncate(cut)
        self._note_torn()
        return True

    def store_result(self, key: str, result: Any) -> None:
        """Pickle a completed point's result for later resumption.

        A SIGKILL mid-write orphans at most a tmp file, which
        :meth:`sweep_orphans` removes at the next batch start.
        """
        target = self._sidecars.put(
            _key_digest(key),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )
        chaos.fire(chaos.SITE_SIDECAR_STORE, key, path=target)

    def sweep_orphans(self) -> int:
        """Remove ``*.tmp`` leftovers of stores killed mid-write.

        Call at batch start only: tmp names are unique per (pid, uuid),
        so a *live* concurrent batch's tmp could be swept mid-rename —
        harmless for correctness (its ``replace`` already happened or
        its write is re-run) but noisy.  The runner calls this before
        submitting work.
        """
        return self._sidecars.sweep_tmp()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def scan(self) -> JournalScan:
        """Parse the journal once, classifying every damaged line.

        The result is cached on the file's (size, mtime_ns): ``meta``,
        ``completed_keys`` and ``records`` in the same batch share one
        disk pass, and any append (ours or another process's) naturally
        invalidates the snapshot.
        """
        try:
            stat = os.stat(self.path)
        except OSError:
            return JournalScan()
        cache_key = (stat.st_size, stat.st_mtime_ns)
        if self._scan_cache is not None and self._scan_cache[0] == cache_key:
            return self._scan_cache[1]
        scan = self._parse()
        self._scan_cache = (cache_key, scan)
        self._publish(scan)
        return scan

    def _parse(self) -> JournalScan:
        scan = JournalScan()
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return scan
        lines = text.split("\n")
        ends_complete = text.endswith("\n") or not text
        occupied = [i for i, line in enumerate(lines) if line.strip()]
        last = occupied[-1] if occupied else -1
        for i in occupied:
            rec, problem = _intact_record(lines[i].strip())
            if rec is not None:
                scan.records.append(rec)
            elif i == last and not ends_complete:
                # Unterminated final line: crash mid-append, the one
                # damage shape normal operation produces.
                scan.torn_tail += 1
            elif problem == "checksum":
                scan.checksum_failures += 1
            else:
                scan.corrupt_records += 1
        return scan

    def _publish(self, scan: JournalScan) -> None:
        """Surface a scan's damage: one-shot warning + counters."""
        global _warned_corrupt_records
        bad = scan.corrupt_records + scan.checksum_failures
        if bad and not _warned_corrupt_records:
            _warned_corrupt_records = True
            warnings.warn(
                f"journal {self.path} carries damaged non-tail records "
                f"({scan.corrupt_records} unparsable, "
                f"{scan.checksum_failures} failing their checksum); they "
                f"were skipped and their points will re-run on resume, "
                f"but interior damage is not crash fallout — check the "
                f"storage.  Further incidents are counted silently.",
                RuntimeWarning,
                stacklevel=3,
            )
        if scan.torn_tail:
            self._note_torn()
        self._count(
            "journal.corrupt_records",
            scan.corrupt_records - self._counted_corrupt,
        )
        self._counted_corrupt = max(
            self._counted_corrupt, scan.corrupt_records
        )
        self._count(
            "journal.checksum_failures",
            scan.checksum_failures - self._counted_checksum,
        )
        self._counted_checksum = max(
            self._counted_checksum, scan.checksum_failures
        )

    def records(self) -> list[dict]:
        """All intact records (see :meth:`scan` for damage handling)."""
        return self.scan().records

    def meta(self) -> Optional[dict]:
        """The latest environment fingerprint stamped into the journal.

        A journal appended to by several batches (e.g. ``--resume``)
        carries one ``meta`` record per batch; the newest wins because
        it describes the code that produced the *latest* records.
        """
        fingerprint = None
        for rec in self.records():
            if rec["event"] == "meta" and isinstance(
                    rec.get("fingerprint"), dict):
                fingerprint = rec["fingerprint"]
        return fingerprint

    def completed_keys(self) -> set[str]:
        """Keys whose most recent terminal event is ``done``."""
        state: dict[str, str] = {}
        for rec in self.records():
            if rec["event"] in ("done", "failed"):
                state[rec["key"]] = rec["event"]
        return {k for k, ev in state.items() if ev == "done"}

    def load_result_bytes(self, key: str) -> Optional[bytes]:
        """Verified pickled payload bytes; None when absent or
        quarantined.  The byte form is what the chaos drill compares
        across runs — equality here is the bit-identity contract."""
        return self._sidecars.get(_key_digest(key))

    def load_result(self, key: str) -> Optional[Any]:
        """Unpickle a stored result; None when absent or quarantined.

        Any unreadable sidecar — bad envelope, digest mismatch,
        unpicklable payload — is moved to ``*.corrupt`` (evidence
        preserved, the point re-runs on resume) with a one-shot warning
        and a counted metric.
        """
        return self._sidecars.get(_key_digest(key), pickle.loads)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _count(self, name: str, delta: int) -> None:
        if self.registry is None or delta <= 0:
            return
        from repro.obs.metrics import spec_for

        self.registry.register(spec_for(name)).inc(delta)

    def _note_torn(self) -> None:
        # A file tail can be torn at most once per crash, and one
        # instance observes at most one crash's fallout (scan and
        # repair both see the same tear) — count it once.
        if self._torn_counted:
            return
        self._torn_counted = True
        self._count("journal.torn_records", 1)


__all__ = [
    "CHECKSUM_FIELD",
    "FSYNC_ENV",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "JournalScan",
    "record_checksum",
]
