"""Wrap each layer's public entry points in spans (traced run only).

Nothing under ``src/`` changes: :func:`instrument` swaps module and
class attributes for timing wrappers and restores them on exit.  Pool
workers are forked while the wrappers are installed, so their cache
reads are traced too (see ``spans.py`` for how those spans come home).

Layer rows, in report order.  Every span carries one of these names, so
the self times of these rows plus ``unattributed_s`` equal the traced
wall time.
"""

from __future__ import annotations

import bisect
import functools
import os
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from spans import Span, Tracer, attribute

#: (span name, per-layer metric) — the rows of the self-time identity.
LAYERS = (
    ("workloads.generate", "workloads.generate_s"),
    ("analysis.profile", "analysis.profile_s"),
    ("numa.replication_plan", "numa.replication_plan_s"),
    ("numa.engine", "numa.engine_s"),
    ("perf.price", "perf.price_s"),
    ("sim.cache.load", "sim.cache.load_s"),
    ("sim.cache.store", "sim.cache.store_s"),
    ("sim.runner.batch", "sim.runner.batch_s"),
    ("sim.pool.start", "sim.pool.start_s"),
    ("sim.pool.task", "sim.pool.task_s"),
    ("sim.pool.unpickle", "sim.pool.unpickle_s"),
    ("sim.journal.append", "sim.journal.append_s"),
    ("sim.journal.store_result", "sim.journal.store_result_s"),
    ("obs.summarize", "obs.summarize_s"),
    ("serve.exec", "serve.exec_s"),
    ("serve.store.save", "serve.store.save_s"),
    ("serve.store.load", "serve.store.load_s"),
    ("serve.http", "serve.http_s"),
)

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {metric: "s" for _, metric in LAYERS}
PER_LAYER_UNITS.update({
    "workloads.accesses": "count",
    "numa.engine_ns_per_access": "ns",
    "perf.price_calls": "count",
    "sim.cache.loads": "count",
    "sim.cache.hit_ratio": "ratio",
    "sim.cache.store_bytes": "bytes",
    "sim.cache.quarantined": "count",
    "sim.runner.attempts": "count",
    "sim.runner.retries": "count",
    "sim.pool.result_bytes": "bytes",
    "sim.journal.appends": "count",
    "sim.journal.sidecar_bytes": "bytes",
    "serve.queue_wait_s": "s",
    "serve.dedup_hit_ratio": "ratio",
    "serve.rejected": "count",
    "loadgen.late_ms_p90": "ms",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
})


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """A traced stand-in for *fn*; *after(args, result, span_args)*
    attaches counts from the call to the span."""

    @functools.wraps(fn)
    def traced(*a, **kw):
        with tracer.span(name) as span_args:
            result = fn(*a, **kw)
            if after is not None:
                after(a, result, span_args)
            return result

    return traced


class _PoolTasks:
    """Parent-side ``sim.pool.task`` spans: dispatch until the reply.

    The pool has no per-task call to wrap, so the span opens when
    ``WorkerPool.dispatch`` succeeds and closes when ``events`` hands
    back that worker's result or death.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.open: dict[int, tuple] = {}  # worker index -> (t0, parent, pid, key)

    def wrap_dispatch(self, fn):
        @functools.wraps(fn)
        def dispatch(pool, worker, key, *a, **kw):
            t0 = time.perf_counter()
            ok = fn(pool, worker, key, *a, **kw)
            if ok:
                parent = self.tracer.current()
                self.tracer.count("sim.runner.attempts")
                # Keyed per batch: the same point recurs across batches.
                self.tracer.count(f"task:{parent}:{key}")
                self.open[worker.index] = (
                    t0, parent, worker.process.pid, key,
                )
            return ok

        return dispatch

    def wrap_events(self, fn):
        @functools.wraps(fn)
        def events(pool, *a, **kw):
            out = fn(pool, *a, **kw)
            t1 = time.perf_counter()
            for _kind, worker, _data in out:
                entry = self.open.pop(worker.index, None)
                if entry is None:
                    continue
                t0, parent, pid, key = entry
                self.tracer.add(Span(
                    "sim.pool.task", t0, t1, self.tracer.new_id(), parent,
                    pid=os.getpid(), tid=worker.index,
                    args={"slot": 1000 + worker.index, "worker_pid": pid,
                          "key": key},
                ))
            return out

        return events


@contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    from repro.analysis import sharing
    from repro.numa import system
    from repro.perf import model
    from repro.serve import jobs, store
    from repro.sim import cache, driver, experiments, journal, pool, runner
    from repro.sim import sweep

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def accesses_of_result(a, result, span_args):
        span_args["accesses"] = int(result.n_accesses)

    def accesses_of_arg(a, result, span_args):
        span_args["accesses"] = int(a[1].n_accesses)

    def cache_hit(a, result, span_args):
        span_args["hit"] = result is not None

    def payload_bytes(a, result, span_args):
        tracer.count("sim.pool.result_bytes", len(result))

    def w(owner, attr, name, after=None):
        patch(owner, attr, _wrap(tracer, name, getattr(owner, attr), after))

    w(driver, "generate_trace", "workloads.generate", accesses_of_result)
    w(driver, "profile_sharing", "analysis.profile")
    w(sharing.SharingProfile, "sorted_page_access_counts", "analysis.profile")
    w(driver, "build_replication_plan", "numa.replication_plan")
    w(system.MultiGpuSystem, "__init__", "numa.engine")
    w(system.MultiGpuSystem, "run", "numa.engine", accesses_of_arg)
    w(model.PerformanceModel, "total_time_s", "perf.price")
    w(cache, "load", "sim.cache.load", cache_hit)
    w(cache, "store", "sim.cache.store")
    w(experiments, "run_tasks", "sim.runner.batch")
    w(sweep, "run_tasks", "sim.runner.batch")
    w(pool.WorkerPool, "start", "sim.pool.start")
    tasks = _PoolTasks(tracer)
    patch(pool.WorkerPool, "dispatch",
          tasks.wrap_dispatch(pool.WorkerPool.dispatch))
    patch(pool.WorkerPool, "events",
          tasks.wrap_events(pool.WorkerPool.events))
    patch(runner, "result_payload",
          _wrap(tracer, "sim.pool.unpickle", runner.result_payload,
                payload_bytes))
    # The runner unpickles with ``pickle.loads`` from its own module
    # namespace; a stand-in module times just that call.
    shim = types.ModuleType("pickle")
    shim.__dict__.update(runner.pickle.__dict__)
    shim.loads = _wrap(tracer, "sim.pool.unpickle", runner.pickle.loads)
    patch(runner, "pickle", shim)
    w(journal.Journal, "append", "sim.journal.append")
    w(journal.Journal, "store_result", "sim.journal.store_result")
    w(runner, "summarize_result", "obs.summarize")
    w(jobs, "summarize_result", "obs.summarize")
    w(jobs, "execute_request", "serve.exec")
    w(store.ResultStore, "save", "serve.store.save")
    w(store.ResultStore, "load", "serve.store.load")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def link_worker_spans(spans: list[Span]) -> None:
    """Parent each root span recorded in a pool worker under the
    ``sim.pool.task`` span that was running on that worker then."""
    tasks: dict[int, list[Span]] = {}
    for s in spans:
        if s.name == "sim.pool.task":
            tasks.setdefault(s.args["worker_pid"], []).append(s)
    for lst in tasks.values():
        lst.sort(key=lambda s: s.start)
    starts = {pid: [s.start for s in lst] for pid, lst in tasks.items()}
    for s in spans:
        if s.parent is not None or s.pid not in tasks:
            continue
        lst = tasks[s.pid]
        i = bisect.bisect_right(starts[s.pid], s.start) - 1
        if i >= 0 and lst[i].end >= s.end:
            s.parent = lst[i].sid


def per_layer_metrics(tracer: Tracer, windows, extra: dict) -> dict:
    """Every per-layer metric of one traced segment.

    *extra* carries what the workload measured itself (cache and
    sidecar bytes, serve waits, generator lateness, overhead ratio).
    """
    spans = tracer.collect()
    link_worker_spans(spans)
    self_time, idle = attribute(spans, windows)
    wall = sum(b - a for a, b in windows)
    out = {metric: self_time.get(name, 0.0) for name, metric in LAYERS}
    unknown = set(self_time) - {name for name, _ in LAYERS}
    if unknown:
        raise RuntimeError(f"spans outside the layer table: {unknown}")

    def count(name, pred=lambda s: True):
        return sum(1 for s in spans if s.name == name and pred(s))

    accesses = sum(s.args.get("accesses", 0) for s in spans
                   if s.name == "workloads.generate")
    engine_accesses = sum(s.args.get("accesses", 0) for s in spans
                          if s.name == "numa.engine")
    loads = count("sim.cache.load")
    hits = count("sim.cache.load", lambda s: s.args.get("hit"))
    attempts = tracer.counters.get("sim.runner.attempts", 0)
    keys = sum(1 for k in tracer.counters if k.startswith("task:"))
    out.update({
        "workloads.accesses": accesses,
        "numa.engine_ns_per_access": (
            out["numa.engine_s"] / engine_accesses * 1e9
            if engine_accesses else 0.0),
        "perf.price_calls": count("perf.price"),
        "sim.cache.loads": loads,
        "sim.cache.hit_ratio": hits / loads if loads else 0.0,
        "sim.runner.attempts": attempts,
        "sim.runner.retries": attempts - keys,
        "sim.pool.result_bytes": tracer.counters.get(
            "sim.pool.result_bytes", 0),
        "sim.journal.appends": count("sim.journal.append"),
        "unattributed_s": idle,
        "trace.wall_s": wall,
    })
    out.update(extra)
    missing = set(PER_LAYER_UNITS) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name in PER_LAYER_UNITS}


def identity_error(metrics: dict) -> float:
    """|sum of layer self times + unattributed - wall|, in seconds."""
    total = sum(metrics[m] for _, m in LAYERS) + metrics["unattributed_s"]
    return abs(total - metrics["trace.wall_s"])


def dir_bytes(root: Optional[Path], pattern: str) -> int:
    """Total size of the files under *root* matching *pattern*."""
    if root is None or not Path(root).exists():
        return 0
    return sum(p.stat().st_size for p in Path(root).rglob(pattern)
               if p.is_file())
