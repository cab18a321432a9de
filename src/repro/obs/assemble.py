"""Assemble one Perfetto timeline from a traced batch's artifacts.

A traced batch (docs/tracing.md) leaves three kinds of evidence behind:

* the execution **journal** (``<name>.jsonl``) — start/retry/done/failed
  records, plus the ``meta`` record carrying the trace id;
* the **span spills** (``<name>-spans/``) — the runner's attempt spans
  (``runner.jsonl``) and each worker's ``task`` spans
  (``worker-NN.jsonl``), every record flushed before the work it
  describes, so even a SIGKILLed worker's final span survives;
* optionally the **serve event log** — the job lifecycle events the
  service streamed over ``GET /jobs/<id>/events``.

:func:`assemble_trace` merges them into a single Chrome ``trace_event``
document loadable in Perfetto (https://ui.perfetto.dev): the runner is
one process row with one track per worker slot, every worker is its own
process row labeled with its slot and NUMA node, journal transitions
and serve events render as instants, and spans whose end edge never
made it to disk (the crash victims) render to the end of the timeline
flagged ``unfinished`` — the flight-recorder view.

This module only *reads* artifacts; it can run long after the batch
(or the service) that produced them is gone.  The document is built
from the same ``trace_event`` helpers as the modelled-time kernel
timeline (:mod:`repro.obs.export`) and written by the same
:func:`~repro.obs.export.write_trace`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.obs.export import (
    instant_event,
    metadata_event,
    slice_event,
    trace_document,
)
from repro.obs.trace import read_spans_dir, spans_dir_for
from repro.sim.journal import Journal

#: pid of the synthetic "serve" process row (job lifecycle instants).
PID_SERVE = 1
#: pid of the runner process row (attempt spans + journal instants).
PID_RUNNER = 2
#: Worker slot N renders as process row ``PID_WORKER_BASE + N``.
PID_WORKER_BASE = 10


def _us(ts: float, t0: float) -> int:
    """Seconds-since-epoch to integer µs relative to the trace start."""
    return max(0, int(round((ts - t0) * 1_000_000)))


def _pair_spans(records: list[dict]) -> tuple[list[dict], list[dict]]:
    """Match begin/end edges; returns ``(closed, open)`` span dicts.

    A closed span carries ``ts_begin``/``ts_end``/``status``; an open
    one (end edge never written — the process died first) only
    ``ts_begin``.  Pairing is by span id; duplicate begins (a retried
    dispatch) keep the earliest begin and latest end.
    """
    begins: dict[str, dict] = {}
    closed: list[dict] = []
    for record in records:
        span_id = record.get("span", "")
        if record.get("ph") == "B":
            if span_id not in begins:
                begins[span_id] = record
        elif record.get("ph") == "E":
            begin = begins.pop(span_id, None)
            if begin is None:
                continue  # end without a begin: skip rather than guess
            closed.append({
                "begin": begin,
                "ts_begin": begin.get("ts", 0.0),
                "ts_end": record.get("ts", begin.get("ts", 0.0)),
                "status": record.get("status", "ok"),
            })
    open_spans = [
        {"begin": begin, "ts_begin": begin.get("ts", 0.0)}
        for begin in begins.values()
    ]
    return closed, open_spans


def open_spans(records: list[dict]) -> list[dict]:
    """Begin records whose end edge never hit the disk.

    On a healthy run this is empty; after a worker SIGKILL it is the
    victim's final timeline — what the chaos flight recorder reports.
    """
    _, unfinished = _pair_spans(records)
    return sorted(
        (span["begin"] for span in unfinished),
        key=lambda r: (r.get("ts", 0.0), r.get("span", "")),
    )


def _row_for(record: dict) -> tuple[int, int]:
    """``(pid, tid)`` placement of one span record."""
    name = record.get("name", "")
    slot = record.get("slot", -1)
    if name == "attempt":
        # Runner-side spans: one runner process, one track per slot so
        # concurrent attempts never overlap on a row.
        return PID_RUNNER, slot + 2 if isinstance(slot, int) else 1
    if isinstance(slot, int) and slot >= 0:
        return PID_WORKER_BASE + slot, 1
    return PID_RUNNER, 1


def _span_label(record: dict) -> str:
    name = record.get("name", "")
    key = record.get("key", "")
    if name == "attempt":
        return f"attempt {key} #{record.get('attempt', '?')}"
    if key and name == "task":
        return f"task {key}"
    return name or "span"


def assemble_trace(
    journal_path,
    *,
    title: Optional[str] = None,
    trace_id: Optional[str] = None,
    serve_events: Optional[list[dict]] = None,
) -> dict:
    """One Perfetto ``trace_event`` document for a traced batch.

    *journal_path* names the batch journal; the spans directory is
    found next to it.  *trace_id* filters spans to one trace (a journal
    reused across batches holds several); when omitted, the newest
    ``meta`` record's trace id is used, falling back to "everything".
    *serve_events* adds the job-service lifecycle row.
    """
    journal_path = Path(journal_path)
    journal_records: list[dict] = []
    if journal_path.exists():
        journal = Journal(journal_path)
        journal_records = journal.records()
        if trace_id is None:
            meta = journal.meta()  # the latest fingerprint dict
            if meta is not None:
                trace_id = meta.get("trace_id")
    span_records, damaged = read_spans_dir(spans_dir_for(journal_path))
    if trace_id:
        span_records = [
            r for r in span_records if r.get("trace") == trace_id
        ]

    timestamps = [r["ts"] for r in span_records if "ts" in r]
    timestamps += [r["ts"] for r in journal_records if "ts" in r]
    if serve_events:
        timestamps += [e["ts"] for e in serve_events if "ts" in e]
    t0 = min(timestamps) if timestamps else 0.0
    t_max = max(timestamps) if timestamps else 0.0

    events: list[dict] = []
    pids: dict[int, str] = {}

    closed, unfinished = _pair_spans(span_records)
    for span in closed + unfinished:
        begin = span["begin"]
        pid, tid = _row_for(begin)
        if pid >= PID_WORKER_BASE:
            slot = pid - PID_WORKER_BASE
            node = begin.get("node", -1)
            label = f"worker {slot:02d}"
            if isinstance(node, int) and node >= 0:
                label += f" (node {node})"
            pids.setdefault(pid, label)
        elif pid == PID_RUNNER:
            pids.setdefault(pid, "runner")
        finished = "ts_end" in span
        ts_end = span["ts_end"] if finished else t_max
        args = {
            "trace_id": begin.get("trace", ""),
            "span_id": begin.get("span", ""),
            "parent_id": begin.get("parent", ""),
            "key": begin.get("key", ""),
            "status": span.get("status", "unfinished"),
        }
        if "attempt" in begin:
            args["attempt"] = begin["attempt"]
        if not finished:
            args["unfinished"] = True
        events.append(slice_event(
            _span_label(begin), pid, tid, _us(span["ts_begin"], t0),
            max(1, _us(ts_end, t0) - _us(span["ts_begin"], t0)), args,
            cat="span" if finished else "span,unfinished",
        ))

    for record in journal_records:
        event = record.get("event", "")
        if event in ("span", "meta") or "ts" not in record:
            continue
        events.append(instant_event(
            f"{event} {record.get('key', '')}".strip(), PID_RUNNER, 1,
            _us(record["ts"], t0),
            {k: v for k, v in record.items()
             if k not in ("ts", "sum") and not isinstance(v, dict)},
            cat="journal",
        ))
        pids.setdefault(PID_RUNNER, "runner")

    for event in serve_events or ():
        if "ts" not in event:
            continue
        pids.setdefault(PID_SERVE, "serve")
        events.append(instant_event(
            event.get("kind", "event"), PID_SERVE, 1, _us(event["ts"], t0),
            {k: v for k, v in event.items() if k != "ts"},
            cat="serve",
        ))

    metadata: list[dict] = []
    for pid in sorted(pids):
        metadata.append(metadata_event("process_name", pid,
                                       name=pids[pid]))
        metadata.append(metadata_event("process_sort_index", pid,
                                       sort_index=pid))

    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    return trace_document(metadata + events, {
        "title": title or journal_path.stem,
        "trace_id": trace_id or "",
        "journal": journal_path.name,
        "spans": len(span_records),
        "unfinished_spans": len(unfinished),
        "damaged_span_records": damaged,
    })


__all__ = [
    "PID_RUNNER",
    "PID_SERVE",
    "PID_WORKER_BASE",
    "assemble_trace",
    "open_spans",
]
