"""Tests for the ring-buffered event tracer (repro.obs.tracer/events)."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_MIGRATION,
    EVENT_RDC,
    TraceEvent,
)
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer


class TestTraceEvent:
    def test_to_dict_includes_payload(self):
        ev = TraceEvent(EVENT_MIGRATION, kernel=3, gpu=1, count=1,
                        payload={"page": 7, "src": 0})
        d = ev.to_dict()
        assert d["kind"] == EVENT_MIGRATION
        assert d["kernel"] == 3 and d["gpu"] == 1
        assert d["payload"] == {"page": 7, "src": 0}

    def test_to_dict_omits_empty_payload(self):
        assert "payload" not in TraceEvent(EVENT_RDC).to_dict()

    def test_event_kinds_catalogue(self):
        assert EVENT_MIGRATION in EVENT_KINDS
        assert all(isinstance(k, str) and k for k in EVENT_KINDS)


class TestRing:
    def test_capacity_evicts_oldest_and_counts_drops(self):
        t = Tracer(capacity=3)
        for i in range(5):
            t.record(EVENT_RDC, kernel=i)
        assert len(t) == 3
        assert t.dropped == 2
        assert [ev.kernel for ev in t.events()] == [2, 3, 4]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_default_capacity(self):
        assert Tracer().capacity == DEFAULT_CAPACITY

    def test_clear_resets_everything(self):
        t = Tracer(capacity=2)
        for i in range(4):
            t.record(EVENT_RDC)
        t.clear()
        assert len(t) == 0 and t.dropped == 0


class TestSampling:
    def test_stride_keeps_every_nth(self):
        t = Tracer(sample_every=3)
        for i in range(9):
            t.record(EVENT_RDC, kernel=i)
        assert [ev.kernel for ev in t.events()] == [0, 3, 6]

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_record_many_bypasses_sampling(self):
        t = Tracer(sample_every=100)
        t.record_many(EVENT_RDC, 5000, kernel=0, hits=4000, misses=1000)
        t.record_many(EVENT_RDC, 1234, kernel=1)
        assert len(t) == 2
        assert t.events()[0].count == 5000
        assert t.events()[0].payload == {"hits": 4000, "misses": 1000}

    def test_record_many_skips_zero_counts(self):
        t = Tracer()
        t.record_many(EVENT_RDC, 0, kernel=0)
        assert len(t) == 0


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.record(EVENT_RDC)
        t.record_many(EVENT_RDC, 99)
        assert len(t) == 0 and t.dropped == 0
