"""Tests for the JSONL / Chrome-trace exporters (repro.obs.export)."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.config import COHERENCE_HARDWARE
from repro.numa.system import MultiGpuSystem
from repro.obs import Observability
from repro.obs.export import (
    build_chrome_trace,
    write_jsonl,
    write_metrics_json,
    write_trace,
)
from repro.obs.metrics import METRIC_NAMES, default_registry
from repro.workloads.base import generate_trace
from repro.workloads.suite import get

from .conftest import tiny_rdc_config


@pytest.fixture(scope="module")
def observed_run():
    cfg = tiny_rdc_config(coherence=COHERENCE_HARDWARE)
    spec = dataclasses.replace(
        get("Lulesh"), n_kernels=3, warmup_kernels=1,
        max_accesses=3000, min_accesses=500,
    )
    trace = generate_trace(spec, cfg)
    obs = Observability(trace=True)
    result = MultiGpuSystem(cfg, obs=obs).run(trace)
    return result, cfg, obs


class TestChromeTrace:
    def test_document_is_json_serializable(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        json.loads(json.dumps(doc))

    def test_schema_essentials(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["n_gpus"] == result.n_gpus
        events = doc["traceEvents"]
        assert events, "empty trace"
        for ev in events:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev and ev["ts"] >= 0

    def test_kernel_slices_cover_every_kernel_and_gpu(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(result.kernels) * result.n_gpus
        assert all(e["dur"] >= 0 for e in slices)

    def test_counter_tracks_use_registered_names(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        counter_names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "C"
        }
        assert counter_names, "no counter tracks"
        assert counter_names <= METRIC_NAMES

    def test_slices_are_ordered_per_gpu(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        by_gpu: dict = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_gpu.setdefault(e["pid"], []).append(e["ts"])
        for starts in by_gpu.values():
            assert starts == sorted(starts)

    def test_write_trace_roundtrip(self, observed_run, tmp_path):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        path = write_trace(tmp_path / "out" / "t.trace.json", doc)
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))


class TestJsonl:
    def test_every_line_parses(self, observed_run):
        result, _cfg, obs = observed_run
        buf = io.StringIO()
        n = write_jsonl(buf, obs, result)
        lines = buf.getvalue().splitlines()
        assert len(lines) == n
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "header"
        assert records[0]["workload"] == result.workload
        assert records[-1]["record"] == "metrics"
        kinds = {r["record"] for r in records}
        assert kinds == {"header", "event", "metrics"}

    def test_event_count_matches_tracer(self, observed_run):
        _result, _cfg, obs = observed_run
        buf = io.StringIO()
        write_jsonl(buf, obs)
        events = [
            json.loads(line) for line in buf.getvalue().splitlines()
            if json.loads(line)["record"] == "event"
        ]
        assert len(events) == len(obs.tracer)


class TestMetricsJson:
    def test_accepts_observability(self, observed_run, tmp_path):
        _result, _cfg, obs = observed_run
        path = tmp_path / "m.json"
        write_metrics_json(path, obs, extra={"workload": "Lulesh"})
        doc = json.loads(path.read_text())
        assert doc["workload"] == "Lulesh"
        assert "sim.accesses" in doc["metrics"]
        assert len(doc["kernel_snapshots"]) \
            == len(obs.registry.kernel_snapshots)

    def test_accepts_bare_registry(self, tmp_path):
        r = default_registry()
        r.get("runner.attempts").inc(3)
        path = tmp_path / "m.json"
        doc = write_metrics_json(path, r)
        assert doc["metrics"]["runner.attempts"]["values"] == {"": 3}
