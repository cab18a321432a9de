"""The canonical metric contract of the CARVE reproduction.

Every metric the simulator can emit is declared here, once, as a
:class:`~repro.obs.registry.MetricSpec`.  ``docs/metrics.md`` is the
human-readable mirror of this table and ``tools/check_docs.py`` keeps the
two in lockstep: a metric added here without a doc row (or referenced in
docs without a spec here) fails CI.

Names are **stable contracts**.  Renaming one is a breaking change to
every experiment script, dashboard, and doc that refers to it; add a new
name and deprecate the old one instead.

Naming scheme: ``<subsystem>.<quantity>`` with dotted lowercase segments;
label sets are rendered in docs as ``name{label,label}`` (e.g.
``link.bytes{src,dst}``).  Paper references point at Young et al.,
MICRO 2018 ("Combining HW/SW Mechanisms to Improve NUMA Performance of
Multi-GPU Systems").
"""

from __future__ import annotations

from repro.obs.registry import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    MetricSpec,
    MetricsRegistry,
)

_G = ("gpu",)
_LINK = ("src", "dst")

#: Bucket bounds for per-kernel access counts (log-ish spacing).
ACCESS_BUCKETS = (1_000, 10_000, 100_000, 1_000_000, 10_000_000)
#: Bucket bounds for per-kernel accumulated latency in nanoseconds.
LATENCY_BUCKETS = (1e5, 1e6, 1e7, 1e8, 1e9, 1e10)
#: Bucket bounds for job service execution latency in seconds.
SERVE_LATENCY_BUCKETS = (0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)

#: The full, ordered metric contract.  docs/metrics.md mirrors this table.
SPECS: tuple = (
    # -- access stream ---------------------------------------------------
    MetricSpec("sim.accesses", KIND_COUNTER, "accesses", _G,
               "Memory accesses issued by each GPU (after coalescing).",
               "§6 methodology"),
    MetricSpec("sim.writes", KIND_COUNTER, "accesses", _G,
               "Write accesses issued by each GPU.",
               "§6 methodology"),
    MetricSpec("sim.instructions", KIND_COUNTER, "instructions", _G,
               "Instructions attributed to each GPU (instr_per_access "
               "scaled).", "§6 methodology"),
    # -- SM-side caches --------------------------------------------------
    MetricSpec("cache.l1.hit", KIND_COUNTER, "accesses", _G,
               "L1 hits; filtered before any NUMA traffic.", "Table III"),
    MetricSpec("cache.l2.hit", KIND_COUNTER, "accesses", _G,
               "L2 hits; last stop before local DRAM or the fabric.",
               "Table III"),
    # -- memory locality -------------------------------------------------
    MetricSpec("mem.local.read", KIND_COUNTER, "accesses", _G,
               "Reads served by the issuing GPU's own memory.", "§2.1"),
    MetricSpec("mem.local.write", KIND_COUNTER, "accesses", _G,
               "Writes absorbed by the issuing GPU's own memory.", "§2.1"),
    MetricSpec("mem.remote.read", KIND_COUNTER, "accesses", _G,
               "Reads whose home node is another GPU — the traffic CARVE "
               "exists to eliminate.", "§2.1, Fig. 2"),
    MetricSpec("mem.remote.write", KIND_COUNTER, "accesses", _G,
               "Writes whose home node is another GPU.", "§2.1, Fig. 2"),
    # -- DRAM behaviour --------------------------------------------------
    MetricSpec("dram.read", KIND_COUNTER, "accesses", _G,
               "DRAM read accesses at each GPU's memory controller.",
               "§6 methodology"),
    MetricSpec("dram.write", KIND_COUNTER, "accesses", _G,
               "DRAM write accesses at each GPU's memory controller.",
               "§6 methodology"),
    MetricSpec("dram.row_hit", KIND_COUNTER, "accesses", _G,
               "Row-buffer hits at the memory controller.", "§6"),
    MetricSpec("dram.row_miss", KIND_COUNTER, "accesses", _G,
               "Row-buffer misses (activate+precharge) at the controller.",
               "§6"),
    # -- Remote Data Cache (CARVE) ---------------------------------------
    MetricSpec("rdc.hit", KIND_COUNTER, "accesses", _G,
               "Remote accesses served from the GPU's carved-out Remote "
               "Data Cache instead of crossing the fabric.", "§3, Fig. 5"),
    MetricSpec("rdc.miss", KIND_COUNTER, "accesses", _G,
               "RDC probes that missed and went remote.", "§3, Fig. 5"),
    MetricSpec("rdc.insert", KIND_COUNTER, "lines", _G,
               "Lines filled into the RDC on a remote fetch.", "§3.2"),
    MetricSpec("rdc.bypass", KIND_COUNTER, "accesses", _G,
               "Remote accesses that bypassed the RDC (no allocation).",
               "§3.2"),
    MetricSpec("rdc.stale", KIND_COUNTER, "accesses", _G,
               "Probes that found a tag match with a stale epoch counter — "
               "the software-coherence invalidation mechanism at work.",
               "§4.2"),
    # -- coherence -------------------------------------------------------
    MetricSpec("coh.invalidate", KIND_COUNTER, "messages", _G,
               "Invalidation messages each GPU sent to remote sharers "
               "(GPU-VI write propagation).", "§4.3"),
    MetricSpec("coh.invalidate_recv", KIND_COUNTER, "messages", _G,
               "Invalidation messages received and applied to the local "
               "RDC.", "§4.3"),
    MetricSpec("epoch.flush_lines", KIND_COUNTER, "lines", _G,
               "Dirty RDC lines written back at kernel-boundary epoch "
               "flushes (software coherence).", "§4.2"),
    # -- In-Memory Sharing Tracker ---------------------------------------
    MetricSpec("imst.broadcast", KIND_COUNTER, "messages", _G,
               "Invalidation broadcasts the IMST could not filter.",
               "§4.3"),
    MetricSpec("imst.broadcast_avoided", KIND_COUNTER, "messages", _G,
               "Broadcasts suppressed because the IMST proved the line "
               "unshared.", "§4.3"),
    MetricSpec("imst.demotion", KIND_COUNTER, "transitions", _G,
               "IMST state demotions (RW-shared collapse on writes).",
               "§4.3"),
    # -- page placement --------------------------------------------------
    MetricSpec("mig.page_moves", KIND_COUNTER, "pages", _G,
               "Pages migrated *to* each GPU by the first-touch/counter "
               "migration engine.", "§2.2"),
    MetricSpec("repl.pages", KIND_COUNTER, "pages", _G,
               "Read-only page replicas installed on each GPU.", "§2.2"),
    # -- interconnect ----------------------------------------------------
    MetricSpec("link.bytes", KIND_COUNTER, "bytes", _LINK,
               "Bytes moved over each directed inter-GPU link.",
               "§2.1, Fig. 3"),
    # -- runner ----------------------------------------------------------
    MetricSpec("runner.attempts", KIND_COUNTER, "attempts", (),
               "Task attempts started by the fault-tolerant runner.",
               "repro infra"),
    MetricSpec("runner.retries", KIND_COUNTER, "attempts", (),
               "Attempts that were retries of a previously failed task.",
               "repro infra"),
    MetricSpec("runner.failures", KIND_COUNTER, "failures", ("kind",),
               "Task attempts that failed, by failure kind "
               "(exception/timeout/crash/crash_loop).", "repro infra"),
    # -- worker pool -----------------------------------------------------
    MetricSpec("pool.tasks", KIND_COUNTER, "tasks", ("worker",),
               "Tasks dispatched to each persistent pool worker slot "
               "(counts across respawns).", "repro infra"),
    # -- chaos engine, journal and blob-store durability (docs/chaos.md) -
    MetricSpec("chaos.injected", KIND_COUNTER, "faults", ("kind",),
               "Faults injected in this process by the seeded chaos "
               "engine, by fault kind; the drill state directory is the "
               "cross-process audit trail.", "repro infra"),
    MetricSpec("journal.torn_records", KIND_COUNTER, "records", (),
               "Half-written journal tail lines (crash mid-append) "
               "detected and silently truncated before the next append.",
               "repro infra"),
    MetricSpec("journal.corrupt_records", KIND_COUNTER, "records", (),
               "Damaged non-tail journal lines (unparsable or malformed) "
               "skipped with a one-shot warning — not crash fallout.",
               "repro infra"),
    MetricSpec("journal.checksum_failures", KIND_COUNTER, "records", (),
               "Complete journal records dropped because their "
               "per-record checksum did not verify.", "repro infra"),
    MetricSpec("blob.quarantined", KIND_COUNTER, "files", ("namespace",),
               "Damaged blobs (bad magic, digest mismatch or undecodable "
               "payload) quarantined to *.corrupt, by store namespace "
               "(simcache/sidecar/serve); the read is a miss and the "
               "result is recomputed.", "repro infra"),
    # -- job service (docs/serve.md) -------------------------------------
    MetricSpec("serve.submitted", KIND_COUNTER, "requests", (),
               "Job submissions accepted by the service, regardless of "
               "disposition (new, coalesced, or cached).", "repro infra"),
    MetricSpec("serve.deduped", KIND_COUNTER, "requests", (),
               "Submissions answered straight from the content-addressed "
               "result store (CAS hit — no execution).", "repro infra"),
    MetricSpec("serve.coalesced", KIND_COUNTER, "requests", (),
               "Submissions attached to an already-queued or running job "
               "with the same content address.", "repro infra"),
    MetricSpec("serve.rejected", KIND_COUNTER, "requests", (),
               "Submissions refused with 429 because the bounded "
               "submission queue was full.", "repro infra"),
    MetricSpec("serve.completed", KIND_COUNTER, "jobs", ("state",),
               "Jobs reaching a terminal lifecycle state, by state "
               "(done, failed, cancelled).", "repro infra"),
    MetricSpec("serve.store_evicted", KIND_COUNTER, "results", (),
               "CAS results (and their journals/sidecars/spans) evicted "
               "by the --store-max-bytes LRU sweep.", "repro infra"),
    # -- tracer self-accounting ------------------------------------------
    MetricSpec("trace.dropped", KIND_COUNTER, "events", (),
               "Events evicted from the tracer ring buffer (capacity "
               "overflow).", "repro infra"),
    # -- distributed tracing (docs/tracing.md) ---------------------------
    MetricSpec("trace.spans", KIND_COUNTER, "records", (),
               "Span records (begin/end edges each count once) written "
               "to the crash-safe spill files of a traced batch.",
               "repro infra"),
    MetricSpec("trace.spill_bytes", KIND_COUNTER, "bytes", (),
               "Bytes appended to span spill files by a traced batch "
               "(runner + all worker spills).", "repro infra"),
    MetricSpec("trace.dropped_spans", KIND_COUNTER, "records", (),
               "Span records lost to spill write failures (full disk, "
               "permissions) — tracing degrades, the run itself never "
               "fails.", "repro infra"),
    # -- obs self-accounting ---------------------------------------------
    MetricSpec("obs.digest_errors", KIND_COUNTER, "failures", (),
               "Result digest computations that raised and were skipped "
               "(summarize_result); the journal 'done' record then "
               "carries no metrics field.", "repro infra"),
    # -- gauges ----------------------------------------------------------
    MetricSpec("mem.pages_mapped", KIND_GAUGE, "pages", _G,
               "Pages homed on each GPU at end of run.", "§2.2"),
    MetricSpec("mem.pages_replicated", KIND_GAUGE, "pages", _G,
               "Replica pages resident on each GPU at end of run.",
               "§2.2"),
    MetricSpec("rdc.occupancy", KIND_GAUGE, "fraction", _G,
               "Fraction of RDC lines valid at end of run.", "§3.3"),
    MetricSpec("fault.link_scale", KIND_GAUGE, "fraction", _LINK,
               "Effective bandwidth scale of each faulted link during the "
               "most recent fault epoch (1.0 = healthy).", "repro infra"),
    MetricSpec("pool.workers", KIND_GAUGE, "processes", (),
               "Worker-pool processes alive at the last scheduling step "
               "(0 after shutdown).", "repro infra"),
    MetricSpec("pool.queue_depth", KIND_GAUGE, "tasks", (),
               "Tasks queued behind the pool (pending dispatch or "
               "backing off) at the last scheduling step.", "repro infra"),
    MetricSpec("serve.queue_depth", KIND_GAUGE, "jobs", (),
               "Jobs waiting in the service's bounded submission queue "
               "(excludes the one currently executing).", "repro infra"),
    MetricSpec("serve.stream_clients", KIND_GAUGE, "clients", (),
               "Long-poll clients currently parked on "
               "GET /jobs/<id>/events waiting for new job events.",
               "repro infra"),
    # -- histograms ------------------------------------------------------
    MetricSpec("kernel.accesses", KIND_HISTOGRAM, "accesses", (),
               "Distribution of access counts across kernels.",
               "§6 methodology", buckets=ACCESS_BUCKETS),
    MetricSpec("kernel.latency_ns", KIND_HISTOGRAM, "nanoseconds", _G,
               "Distribution of per-kernel accumulated access latency per "
               "GPU.", "§6 methodology", buckets=LATENCY_BUCKETS),
    MetricSpec("serve.latency_s", KIND_HISTOGRAM, "seconds", (),
               "Distribution of job execution wall time (running → "
               "terminal), excluding queue wait.", "repro infra",
               buckets=SERVE_LATENCY_BUCKETS),
)

#: Every contracted metric name (what docs may legally reference).
METRIC_NAMES = frozenset(spec.name for spec in SPECS)


def default_registry() -> MetricsRegistry:
    """A registry pre-populated with the full contract above."""
    registry = MetricsRegistry()
    for spec in SPECS:
        registry.register(spec)
    return registry


def spec_for(name: str) -> MetricSpec:
    """Look up one contracted spec by name (KeyError if unknown)."""
    for spec in SPECS:
        if spec.name == name:
            return spec
    raise KeyError(name)


__all__ = [
    "ACCESS_BUCKETS",
    "LATENCY_BUCKETS",
    "METRIC_NAMES",
    "SPECS",
    "default_registry",
    "spec_for",
]
