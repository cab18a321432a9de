"""Tests for the persistent worker pool (sim/pool.py) and its runner
integration: NUMA planning, pipe transport, worker reuse, crash
containment, metric gauges, and bit-identical pooled execution.

Worker functions must be top-level so they survive pickling into
worker subprocesses.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.metrics import default_registry
from repro.sim.chaos import KIND_WORKER_EXCEPTION, KIND_WORKER_KILL, \
    FaultEvent
from repro.sim.journal import Journal
from repro.sim.pool import (
    ERR,
    OK,
    WorkerPool,
    numa_nodes,
    parse_cpulist,
    plan_placement,
)
from repro.sim.runner import RunnerPolicy, Task, run_tasks

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _ok(x):
    return x * 2


def _boom(_x):
    raise ValueError("deliberate test failure")


def _pid(_x):
    return os.getpid()


def _big(n):
    return b"\xab" * n


def _tasks(fn, keys, arg=1):
    return [Task(key=k, fn=fn, args=(arg,)) for k in keys]


# ---------------------------------------------------------------------------
# NUMA topology & affinity planning
# ---------------------------------------------------------------------------

class TestCpulist:
    def test_ranges_and_singletons(self):
        assert parse_cpulist("0-3,8,10-11") == [0, 1, 2, 3, 8, 10, 11]

    def test_single_cpu(self):
        assert parse_cpulist("0\n") == [0]

    def test_empty(self):
        assert parse_cpulist("") == []
        assert parse_cpulist(" , ") == []


class TestNumaNodes:
    def test_reads_sysfs_layout(self, tmp_path):
        for name, cpus in (("node0", "0-1"), ("node1", "2-3")):
            d = tmp_path / name
            d.mkdir()
            (d / "cpulist").write_text(cpus + "\n")
        (tmp_path / "node_junk").mkdir()  # not nodeN: ignored
        assert numa_nodes(tmp_path) == [[0, 1], [2, 3]]

    def test_missing_sysfs_falls_back_to_flat(self, tmp_path):
        nodes = numa_nodes(tmp_path / "does-not-exist")
        assert len(nodes) == 1
        assert nodes[0]  # every runnable CPU in one node

    def test_real_host_never_empty(self):
        nodes = numa_nodes()
        assert nodes and all(n for n in nodes)


class TestPlanAffinity:
    NODES = [[0, 1, 2, 3], [4, 5, 6, 7]]

    @staticmethod
    def _cpus(jobs, nodes):
        return [cpus for _, cpus in plan_placement(jobs, True, nodes)]

    def test_unpinned_inherits(self):
        assert plan_placement(3, pin=False) == [(-1, None)] * 3

    def test_round_robin_disjoint_slices(self):
        plan = self._cpus(4, self.NODES)
        # Workers 0/2 split node0, workers 1/3 split node1.
        assert plan == [(0, 1), (4, 5), (2, 3), (6, 7)]

    def test_one_worker_takes_whole_node(self):
        assert self._cpus(2, self.NODES) == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
        ]

    def test_oversubscribed_node_is_shared(self):
        assert self._cpus(3, [[0]]) == [(0,), (0,), (0,)]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            plan_placement(0, pin=True)

    def test_node_labels_follow_round_robin(self):
        nodes = [node for node, _ in plan_placement(5, True, self.NODES)]
        assert nodes == [0, 1, 0, 1, 0]
        # Each label names the node whose CPUs the slot was given.
        for node, cpus in plan_placement(5, True, self.NODES):
            assert set(cpus) <= set(self.NODES[node])

    def test_pool_reads_topology_once(self, monkeypatch):
        from repro.sim import pool as pool_mod

        reads = []
        monkeypatch.setattr(
            pool_mod, "numa_nodes", lambda: reads.append(1) or self.NODES
        )
        pool = WorkerPool(jobs=3, pin=True)
        assert len(reads) == 1
        assert [w.node for w in pool.workers] == [0, 1, 0]
        assert [w.affinity for w in pool.workers] == [
            (0, 1), (4, 5, 6, 7), (2, 3),
        ]


# ---------------------------------------------------------------------------
# Result transport
# ---------------------------------------------------------------------------

class TestPipeTransport:
    def test_large_result_round_trips_over_the_pipe(self):
        # 4 MiB is larger than any simulated point's pickled result by
        # two orders of magnitude and many times the pipe buffer.
        size = 4 << 20
        batch = run_tasks(
            [Task(key=k, fn=_big, args=(size,)) for k in ("big1", "big2")],
            RunnerPolicy(jobs=2),
        )
        assert batch.ok
        assert batch.results == {"big1": b"\xab" * size,
                                 "big2": b"\xab" * size}


# ---------------------------------------------------------------------------
# The pool itself
# ---------------------------------------------------------------------------

class TestWorkerPool:
    def test_workers_are_reused_across_tasks(self):
        # 8 tasks through 2 persistent workers must touch at most 2
        # processes; the old spawn-per-attempt fabric used 8.
        batch = run_tasks(_tasks(_pid, list("abcdefgh")), RunnerPolicy(jobs=2))
        assert batch.ok
        assert len(set(batch.results.values())) <= 2

    def test_crashed_worker_is_respawned_and_batch_completes(self,
                                                              chaos_env):
        # The victim kills its worker; with more tasks than workers the
        # batch can only complete if the dead slot is respawned.
        chaos_env.arm(FaultEvent(KIND_WORKER_KILL, "victim"))
        keys = ["victim"] + [f"ok{i}" for i in range(6)]
        batch = run_tasks(_tasks(_ok, keys), RunnerPolicy(jobs=2))
        assert set(batch.failures) == {"victim"}
        assert len(batch.results) == 6

    def test_dead_pipe_surfaces_exactly_one_death_event(self, chaos_env):
        chaos_env.arm(FaultEvent(KIND_WORKER_KILL, ""))
        pool = WorkerPool(jobs=1)
        pool.start()
        worker = pool.workers[0]
        assert pool.dispatch(worker, "doomed", _ok, (1,))
        deaths = []
        for _ in range(100):
            for kind, w, data in pool.events(timeout=0.2):
                assert kind == "died"
                deaths.append((w.index, data))
            if deaths:
                break
        assert len(deaths) == 1
        assert worker.conn_dead
        # The reaped slot is excluded from future waits: no busy events.
        pool.reap(worker)
        assert pool.events(timeout=0.05) == []
        assert pool.alive_count() == 0
        pool.shutdown(force=True)

    def test_shutdown_is_idempotent_and_kills_everything(self):
        pool = WorkerPool(jobs=2)
        pool.start()
        procs = [w.process for w in pool.workers]
        pool.shutdown()
        pool.shutdown(force=True)
        assert pool.alive_count() == 0
        assert all(not p.is_alive() for p in procs)

    def test_pinned_execution_still_correct(self):
        batch = run_tasks(
            _tasks(_ok, ["a", "b", "c"], arg=4),
            RunnerPolicy(jobs=2, pin=True),
        )
        assert batch.ok
        assert batch.results == {"a": 8, "b": 8, "c": 8}

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_workers_exit_when_their_owner_is_sigkilled(self):
        # Each forked worker holds copies of the parent-side pipe ends;
        # unless it closes them, its recv() never sees EOF once the
        # owner dies, and it lingers forever, parented to init.
        proc = subprocess.Popen(
            [sys.executable, "-c", _SELF_KILLING_OWNER],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        # One line, not EOF: lingering workers would hold stdout open.
        pids = [int(p) for p in proc.stdout.readline().split()]
        proc.stdout.close()
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


_SELF_KILLING_OWNER = """
import os, signal
from repro.sim.pool import WorkerPool

pool = WorkerPool(jobs=2)
pool.start()
print(*(w.process.pid for w in pool.workers), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ---------------------------------------------------------------------------
# Pool telemetry
# ---------------------------------------------------------------------------

class TestPoolMetrics:
    def test_gauges_and_per_worker_counters(self):
        registry = default_registry()
        batch = run_tasks(
            _tasks(_ok, ["a", "b", "c"]),
            RunnerPolicy(jobs=2),
            registry=registry,
        )
        assert batch.ok
        assert registry.get("runner.attempts").value() == 3
        # All dispatches accounted for, attributed to real slot indices.
        tasks_by_worker = registry.get("pool.tasks").values()
        assert sum(tasks_by_worker.values()) == 3
        # Samples are keyed by worker slot index (jobs=2 -> slots 0/1).
        assert set(tasks_by_worker) <= {(0,), (1,)}
        # Final state after shutdown: nothing alive, nothing queued.
        assert registry.get("pool.workers").value() == 0
        assert registry.get("pool.queue_depth").value() == 0


# ---------------------------------------------------------------------------
# Policy semantics through the pool
# ---------------------------------------------------------------------------

class TestPoolPolicyParity:
    def test_fail_fast_cancels_pending_and_inflight(self):
        tasks = _tasks(_boom, ["a"]) + _tasks(_ok, list("bcdef"))
        batch = run_tasks(tasks, RunnerPolicy(jobs=2, keep_going=False))
        assert "a" in batch.failures
        # Everything not finished by the time the failure landed was
        # cancelled; nothing was silently dropped.
        assert set(batch.cancelled) | set(batch.results) == set("bcdef")

    def test_resume_skips_completed_points(self, tmp_path, chaos_env):
        journal = tmp_path / "j.jsonl"
        chaos_env.arm(FaultEvent(KIND_WORKER_EXCEPTION, "c"))
        first = run_tasks(
            _tasks(_ok, ["a", "b", "c"]),
            RunnerPolicy(jobs=2, journal_path=journal),
        )
        assert set(first.failures) == {"c"}

        chaos_env.disarm()
        second = run_tasks(
            _tasks(_ok, ["a", "b", "c"], arg=7),
            RunnerPolicy(jobs=2, journal_path=journal, resume=True),
        )
        assert second.ok
        assert sorted(second.resumed) == ["a", "b"]
        assert second.results["a"] == 2  # first run's result, not 14
        assert second.results["c"] == 14

    def test_pool_results_bit_identical_to_serial(self):
        # The acceptance bar: identical pickled bytes per point, not
        # just equality — and identical key order despite the pool
        # completing tasks in scheduling order.
        serial = run_tasks(_tasks(_pickled, list("abcd")), RunnerPolicy())
        pooled = run_tasks(
            _tasks(_pickled, list("abcd")), RunnerPolicy(jobs=4)
        )
        assert serial.ok and pooled.ok
        assert list(serial.results) == list(pooled.results) == list("abcd")
        for key in serial.results:
            assert pickle.dumps(serial.results[key]) == pickle.dumps(
                pooled.results[key]
            )


def _pickled(x):
    """A structured, deterministic payload worth byte-comparing."""
    return {"x": x, "squares": [i * i for i in range(50)], "tag": ("t", x)}


# ---------------------------------------------------------------------------
# Sidecar store race (journal.store_result)
# ---------------------------------------------------------------------------

def _hammer_store(path, key, n):
    journal = Journal(path)
    for i in range(n):
        journal.store_result(key, {"writer": os.getpid(), "i": i})


class TestSidecarRace:
    def test_concurrent_batches_storing_same_key(self, tmp_path):
        # Two processes hammering the same key must never collide on a
        # tmp name: with the old fixed ".tmp" suffix one writer could
        # rename the other's half-written file into place (or crash on
        # a vanished tmp).  Unique names + atomic replace fix it.
        path = tmp_path / "j.jsonl"
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_hammer_store, args=(path, "shared", 200))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        journal = Journal(path)
        stray = list(journal.results_dir.glob("*.tmp"))
        assert stray == []
        result = journal.load_result("shared")
        assert result is not None and result["i"] == 199

    def test_store_failure_leaves_no_tmp(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(Exception):
            journal.store_result("k", lambda: None)  # unpicklable
        assert list(journal.results_dir.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# Wire protocol sanity
# ---------------------------------------------------------------------------

class TestWireProtocol:
    @staticmethod
    def _reply(pool, key, fn, span=None):
        """Run one task on slot 0 and return its reply message."""
        assert pool.dispatch(pool.workers[0], key, fn, (1,), span=span)
        for _ in range(100):
            events = pool.events(timeout=0.2)
            if events:
                kind, _, message = events[0]
                assert kind == "result"
                return message
        raise AssertionError("no reply from the worker")

    def test_ok_reply_shape(self):
        pool = WorkerPool(jobs=1)
        pool.start()
        try:
            tag, payload = self._reply(pool, "ok", _ok)
        finally:
            pool.shutdown()
        assert tag == OK
        assert pickle.loads(payload) == 2

    def test_exception_reply_shape(self):
        pool = WorkerPool(jobs=1)
        pool.start()
        try:
            tag, exc_type, text, tb = self._reply(pool, "boom", _boom)
        finally:
            pool.shutdown()
        assert tag == ERR
        assert exc_type == "ValueError"
        assert "deliberate" in text and "deliberate" in tb

    def test_traced_reply_carries_worker_drops(self, tmp_path):
        # A traced worker appends its spill's drop count to the reply;
        # the pool strips it, so callers see the same two shapes.
        from repro.obs.trace import TraceContext

        spans = tmp_path / "spans"
        spans.write_text("a file where the spans directory should be")
        pool = WorkerPool(jobs=1, trace_dir=spans)
        pool.start()
        wire = TraceContext.mint(seed="drops").to_wire()
        try:
            ok = self._reply(pool, "ok", _ok, span=wire)
            err = self._reply(pool, "boom", _boom, span=wire)
        finally:
            pool.shutdown()
        assert ok[0] == OK and len(ok) == 2
        assert err[0] == ERR and len(err) == 4
        assert pool.dropped_spans == 4  # begin and end edge of each task
