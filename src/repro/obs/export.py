"""Trace and metric exporters: JSONL and Chrome ``trace_event``.

Two output formats:

* **JSONL** — one JSON object per line: a header, every trace event, and
  a final metrics snapshot.  Greppable, streamable, diff-friendly.
* **Chrome trace** — the ``trace_event`` JSON format consumed by
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Kernels
  become ``"X"`` (complete) slices on one track per GPU, per-kernel
  counter snapshots become ``"C"`` counter tracks, and discrete events
  (migrations, epoch flushes, link faults) become ``"i"`` instants.

The simulator itself is untimed — counters first, roofline pricing after
— so timestamps are synthesised here from
:class:`repro.perf.model.PerformanceModel`: kernel *k*'s slice starts
where kernel *k-1*'s ended, and its duration is the modelled kernel time.
That makes the Perfetto view show *modelled* time, which is exactly the
quantity the paper's figures are drawn in.

The ``trace_event`` building blocks below (process rows, slices,
instants, the document envelope) and :func:`write_trace` are shared
with :mod:`repro.obs.assemble`, which draws a traced batch on *wall*
time: both timelines are written by the same code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Optional

from repro.obs.events import (
    EVENT_IMST,
    EVENT_KERNEL,
    EVENT_RDC,
)

#: Bulk per-kernel summary kinds that would clutter the instant track —
#: their information is already on the counter tracks.
_SUMMARY_KINDS = frozenset({EVENT_KERNEL, EVENT_RDC, EVENT_IMST})

_US = 1e6  # seconds -> microseconds (trace_event timestamps are µs)


def metadata_event(kind: str, pid: int, **args) -> dict:
    """One metadata (``"M"``) record: *kind* ``process_name``,
    ``process_sort_index`` or ``thread_name`` (of tid 0) for *pid*."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": 0, "args": args}


def slice_event(name: str, pid: int, tid: int, ts, dur, args: dict, *,
                cat: Optional[str] = None) -> dict:
    """One complete (``"X"``) slice."""
    event = {"name": name, "ph": "X", "pid": pid, "tid": tid,
             "ts": ts, "dur": dur, "args": args}
    if cat is not None:
        event["cat"] = cat
    return event


def instant_event(name: str, pid: int, tid: int, ts, args: dict, *,
                  scope: str = "p", cat: Optional[str] = None) -> dict:
    """One instant (``"i"``) marker; *scope* ``"g"`` spans all rows."""
    event = {"name": name, "ph": "i", "s": scope, "pid": pid, "tid": tid,
             "ts": ts, "args": args}
    if cat is not None:
        event["cat"] = cat
    return event


def trace_document(events: list, other: dict) -> dict:
    """The ``trace_event`` envelope Perfetto loads."""
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def write_trace(path, doc: dict) -> Path:
    """Write a ``trace_event`` document as Perfetto-loadable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return path


def _counter_track_args(name: str, samples: dict) -> dict:
    """Chrome counter ``args``: one series per rendered label key."""
    return {key or "value": value for key, value in samples.items()}


def build_chrome_trace(result, config, obs) -> dict:
    """Assemble a Chrome ``trace_event`` document for one observed run.

    ``result`` is the :class:`~repro.perf.stats.RunResult`, ``config``
    the :class:`~repro.config.SystemConfig` it ran under (needed to price
    kernel durations), ``obs`` the :class:`~repro.obs.Observability` that
    watched the run (kernel snapshots + tracer ring).
    """
    from repro.perf.model import PerformanceModel

    model = PerformanceModel(config)
    # Price every kernel individually: run_time() covers only measured
    # (non-warmup) kernels, but the timeline must align index-for-index
    # with result.kernels so counter snapshots and instants land on the
    # kernel they were recorded in.
    kernel_times = [model.kernel_time(ks) for ks in result.kernels]
    n_gpus = result.n_gpus
    # Process/thread naming metadata: pid 1..n = GPUs, pid 0 = system.
    events = [metadata_event("process_name", 0,
                             name=f"system ({result.config_label})")]
    for gpu in range(n_gpus):
        events.append(metadata_event("process_name", gpu + 1,
                                     name=f"GPU {gpu}"))
        events.append(metadata_event("thread_name", gpu + 1,
                                     name="kernels"))

    # Kernel slices on modelled time.  kernel_starts[i] is the µs offset
    # of kernel i; the list is also the clock for counters and instants.
    kernel_starts: list[float] = []
    cursor = 0.0
    for i, kt in enumerate(kernel_times):
        kernel_starts.append(cursor)
        ks = result.kernels[i]
        for gpu in range(n_gpus):
            events.append(slice_event(
                f"kernel {kt.kernel_id}" + (" (warmup)" if ks.warmup else ""),
                gpu + 1, 0, cursor, kt.per_gpu[gpu] * _US,
                {
                    "kernel_id": kt.kernel_id,
                    "bottleneck": kt.bottlenecks[gpu],
                    "accesses": ks.gpus[gpu].accesses,
                    "rdc.hit": ks.gpus[gpu].rdc_hits,
                    "mem.remote.read": ks.gpus[gpu].remote_reads,
                    # Derived per-GPU egress total (sum of
                    # link.bytes{src,dst} over dst) — a Perfetto
                    # annotation, not a registry metric.
                    # lint: disable=OBS001
                    "link.out_bytes": ks.link_out_bytes(gpu),
                },
            ))
        cursor += kt.time * _US

    # Per-kernel counter tracks from the registry snapshots (the "C"
    # sample is stamped at the *end* of the kernel it summarises).
    snapshots = obs.registry.kernel_snapshots if obs is not None else []
    for snap in snapshots:
        if snap.index >= len(kernel_starts):
            continue
        end_ts = (
            kernel_starts[snap.index + 1]
            if snap.index + 1 < len(kernel_starts)
            else cursor
        )
        for name, samples in sorted(snap.counters.items()):
            events.append({
                "name": name, "ph": "C", "pid": 0, "tid": 0,
                "ts": end_ts,
                "args": _counter_track_args(name, samples),
            })

    # Discrete happenings as instant events, placed at the start of the
    # kernel they occurred in (the simulator has no finer clock).
    tracer = obs.tracer if obs is not None else None
    if tracer is not None:
        for ev in tracer.events():
            if ev.kind in _SUMMARY_KINDS:
                continue
            if 0 <= ev.kernel < len(kernel_starts):
                ts = kernel_starts[ev.kernel]
            else:
                ts = 0.0
            args = {"count": ev.count}
            args.update(ev.payload)
            events.append(instant_event(
                ev.kind, (ev.gpu + 1) if ev.gpu >= 0 else 0, 0, ts, args,
                scope="g" if ev.gpu < 0 else "p",
            ))

    return trace_document(events, {
        "workload": result.workload,
        "config": result.config_label,
        "n_gpus": n_gpus,
        # The paper's quantity: measured (non-warmup) kernels only.
        "modelled_total_s": model.run_time(result).total_s,
        # What the timeline spans: every kernel, warmup included.
        "timeline_total_s": cursor / _US,
    })


def write_jsonl(fh: IO[str], obs, result=None) -> int:
    """Stream the observed run as JSON Lines; returns lines written.

    Layout: one ``{"record": "header"}`` line, one ``{"record":
    "event"}`` line per retained trace event, one final ``{"record":
    "metrics"}`` line holding the full registry snapshot.
    """
    lines = 0
    header = {
        "record": "header",
        "events": len(obs.tracer) if obs.tracer is not None else 0,
        "dropped": obs.tracer.dropped if obs.tracer is not None else 0,
    }
    if result is not None:
        header["workload"] = result.workload
        header["config"] = result.config_label
        header["n_gpus"] = result.n_gpus
    fh.write(json.dumps(header) + "\n")
    lines += 1
    if obs.tracer is not None:
        for ev in obs.tracer.events():
            fh.write(json.dumps({"record": "event", **ev.to_dict()}) + "\n")
            lines += 1
    fh.write(json.dumps(
        {"record": "metrics", "metrics": obs.registry.snapshot()}
    ) + "\n")
    return lines + 1


def write_metrics_json(path, obs, extra: Optional[dict] = None) -> dict:
    """Dump the registry (totals + per-kernel snapshots) as one JSON file.

    ``obs`` may be an ``Observability`` or a bare ``MetricsRegistry``.
    """
    registry = getattr(obs, "registry", obs)
    doc = {
        "metrics": registry.snapshot(),
        "kernel_snapshots": [
            {
                "index": s.index,
                "kernel_id": s.kernel_id,
                "counters": s.counters,
                "gauges": s.gauges,
            }
            for s in registry.kernel_snapshots
        ],
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return doc


__all__ = [
    "build_chrome_trace",
    "instant_event",
    "metadata_event",
    "slice_event",
    "trace_document",
    "write_jsonl",
    "write_metrics_json",
    "write_trace",
]
