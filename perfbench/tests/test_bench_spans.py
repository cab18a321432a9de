"""Self-time arithmetic of the traced run."""

import pytest

from layers import LAYERS, identity_error, link_worker_spans
from spans import Span, Tracer, attribute


def span(name, start, end, sid, parent=None, pid=1, **args):
    return Span(name, start, end, sid, parent, pid, 0, args)


def test_nested_children_subtract_their_coverage():
    spans = [
        span("a", 0.0, 10.0, "p"),
        span("b", 2.0, 5.0, "c", parent="p"),
        span("c", 3.0, 4.0, "g", parent="c"),
    ]
    self_time, idle = attribute(spans, [(0.0, 10.0)])
    assert self_time == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})
    assert idle == 0.0


def test_overlapping_children_share_the_overlap():
    spans = [
        span("batch", 0.0, 10.0, "p"),
        span("task", 1.0, 6.0, "t1", parent="p"),
        span("task2", 4.0, 8.0, "t2", parent="p"),
    ]
    self_time, idle = attribute(spans, [(0.0, 10.0)])
    # The parent keeps only the time no child covers: 10 - |[1, 8]|.
    assert self_time["batch"] == pytest.approx(3.0)
    # [4, 6] is covered by both children; each gets half of it.
    assert self_time["task"] == pytest.approx(3.0 + 1.0)
    assert self_time["task2"] == pytest.approx(1.0 + 2.0)
    assert sum(self_time.values()) + idle == pytest.approx(10.0)


def test_time_outside_spans_and_windows():
    spans = [span("a", 1.0, 2.0, "x"), span("a", 5.0, 7.0, "y")]
    self_time, idle = attribute(spans, [(0.0, 3.0), (4.0, 6.0)])
    # Only time inside the windows counts: [1,2] and [5,6] are "a".
    assert self_time == pytest.approx({"a": 2.0})
    assert idle == pytest.approx(3.0)


def test_concurrent_roots_on_two_threads_never_exceed_wall():
    spans = [span("a", 0.0, 4.0, "x"), span("b", 2.0, 6.0, "y")]
    self_time, idle = attribute(spans, [(0.0, 6.0)])
    assert self_time == pytest.approx({"a": 3.0, "b": 3.0})
    assert idle == 0.0


def test_worker_spans_are_parented_under_their_pool_task():
    spans = [
        span("sim.runner.batch", 0.0, 10.0, "b", pid=1),
        span("sim.pool.task", 1.0, 5.0, "t1", parent="b", pid=1,
             worker_pid=7),
        span("sim.pool.task", 5.5, 9.0, "t2", parent="b", pid=1,
             worker_pid=7),
        span("sim.cache.load", 2.0, 3.0, "w1", pid=7),
        span("sim.cache.load", 6.0, 8.0, "w2", pid=7),
    ]
    link_worker_spans(spans)
    parents = {s.sid: s.parent for s in spans}
    assert parents["w1"] == "t1" and parents["w2"] == "t2"
    self_time, _ = attribute(spans, [(0.0, 10.0)])
    assert self_time["sim.pool.task"] == pytest.approx(3.0 + 1.5)
    assert self_time["sim.cache.load"] == pytest.approx(3.0)


def test_tracer_nests_by_thread_stack():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner") as args:
            args["n"] = 3
    inner, outer = tracer.collect()
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.args == {"n": 3}


def test_identity_error_sums_layer_rows():
    metrics = {m: 1.0 for _, m in LAYERS}
    metrics["unattributed_s"] = 2.0
    metrics["trace.wall_s"] = len(LAYERS) + 2.0
    assert identity_error(metrics) == pytest.approx(0.0)
    metrics["trace.wall_s"] += 0.5
    assert identity_error(metrics) == pytest.approx(0.5)
