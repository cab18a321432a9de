"""Typed trace events and their kind vocabulary.

A :class:`TraceEvent` is one timestamped-by-kernel record in the tracer's
ring buffer.  ``kind`` comes from the ``EVENT_*`` vocabulary below — like
metric names, event kinds are a documented contract (``docs/metrics.md``
lists them and ``tools/check_docs.py`` enforces the mapping).

Events carry *kernel index* rather than wall-clock time: the simulator is
deterministic and untimed until the roofline model prices a result, so
the exporter assigns real timestamps only at export time (from
:class:`repro.perf.model.PerformanceModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Kernel begin/end markers (always recorded when tracing is on).
EVENT_KERNEL = "kernel"
#: Bulk RDC probe outcome summary for one kernel/GPU (hit/miss/evict).
EVENT_RDC = "rdc"
#: GPU-VI invalidation burst sent by one GPU in one kernel.
EVENT_INVALIDATE = "coh.invalidate"
#: IMST state-transition summary for one kernel (broadcast filtering).
EVENT_IMST = "imst"
#: Kernel-boundary epoch flush (software coherence write-back).
EVENT_EPOCH_FLUSH = "epoch.flush"
#: One page migrated between GPUs.
EVENT_MIGRATION = "mig.page"
#: Read-only replica(s) installed on first touch.
EVENT_REPLICATION = "repl.install"
#: A link-fault epoch was active during a kernel.
EVENT_LINK_FAULT = "link.fault"
#: The fault-tolerant runner retried a task.
EVENT_RUNNER_RETRY = "runner.retry"

#: Every contracted event kind (what docs may legally reference).
EVENT_KINDS = frozenset({
    EVENT_KERNEL,
    EVENT_RDC,
    EVENT_INVALIDATE,
    EVENT_IMST,
    EVENT_EPOCH_FLUSH,
    EVENT_MIGRATION,
    EVENT_REPLICATION,
    EVENT_LINK_FAULT,
    EVENT_RUNNER_RETRY,
})


@dataclass(slots=True)
class TraceEvent:
    """One record in the tracer ring.

    ``kind`` is an ``EVENT_*`` constant; ``kernel`` the zero-based kernel
    index it occurred in (-1 when outside any kernel, e.g. runner
    events); ``gpu`` the GPU it concerns (-1 for system-wide events);
    ``count`` how many underlying occurrences one record summarises
    (bulk ``record_many`` sets it > 1); ``payload`` kind-specific detail
    (page numbers, byte counts, fault scales...).
    """

    kind: str
    kernel: int = -1
    gpu: int = -1
    count: int = 1
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe form used by the JSONL exporter."""
        out = {"kind": self.kind, "kernel": self.kernel, "gpu": self.gpu,
               "count": self.count}
        if self.payload:
            out["payload"] = self.payload
        return out


__all__ = [
    "EVENT_EPOCH_FLUSH",
    "EVENT_IMST",
    "EVENT_INVALIDATE",
    "EVENT_KERNEL",
    "EVENT_KINDS",
    "EVENT_LINK_FAULT",
    "EVENT_MIGRATION",
    "EVENT_RDC",
    "EVENT_REPLICATION",
    "EVENT_RUNNER_RETRY",
    "TraceEvent",
]
