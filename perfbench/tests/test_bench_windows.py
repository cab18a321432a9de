"""Windowed statistics, host-speed scaling, derived read-backs, SLO
classes and the alternating overhead measurement."""

import pytest

import workloads
from checks import point_id
from hostspeed import REF_PROBE_S, HostSpeed
from workloads import (
    COLD_MIX,
    MIN_WINDOW,
    SEED_P90_S,
    _served_e2e,
    alternate,
    figure_reads,
    latency_metrics,
    overhead_ratio,
    windows_of,
)


def test_samples_fall_into_consecutive_windows():
    samples = [(t * 0.1, t) for t in range(60)]   # 6 s, 10 per second
    groups = windows_of(samples, width=2.0)
    assert [len(g) for g in groups] == [20, 20, 20]
    assert groups[0] == list(range(20))


def test_small_windows_join_a_neighbour():
    # 3 samples in the first window, 10 in the second, 2 in the last.
    samples = ([(0.0 + i * 0.1, 1) for i in range(3)]
               + [(2.0 + i * 0.1, 2) for i in range(10)]
               + [(4.0, 3), (4.1, 3)])
    groups = windows_of(samples, width=2.0)
    assert len(groups) == 1
    assert sorted(groups[0]) == [1] * 3 + [2] * 10 + [3] * 2
    assert all(len(g) >= MIN_WINDOW for g in groups)


def test_a_slow_window_does_not_move_the_median():
    quiet = [[0.010] * 9 + [0.020]] * 4
    slow = [[0.100] * 10]
    m = latency_metrics("hit", quiet + slow)
    assert m["hit_ms_p50"] == pytest.approx(10.0)
    assert m["hit_ms_p90"] == pytest.approx(11.0)


def test_cold_read_backs_come_from_the_figures():
    reads = figure_reads()
    # figure2/8/9/11/13/14 and table5a/5b all read numa-gpu; nothing
    # reads the migration arm.
    assert reads == {
        "single-gpu": 3, "numa-gpu": 8, "numa-gpu+migration": 0,
        "numa-gpu+repl-ro": 4, "ideal": 5, "carve-no-coherence": 2,
        "carve-swc": 1, "carve-hwc": 5,
    }


def test_every_request_class_has_a_limit():
    cold = {point_id(abbr, system) for abbr, system in COLD_MIX}
    assert set(SEED_P90_S["cold-sim"]) == cold | {"hit"}
    for workload in ("warm-sweep", "served-jobs"):
        assert set(SEED_P90_S[workload]) == {"hit", "fresh"}
    assert all(v > 0 for limits in SEED_P90_S.values()
               for v in limits.values())


def test_traced_and_untraced_units_alternate():
    calls = []

    def unit(on):
        calls.append(on)
        return {"s": 1.2 if on else 1.0}

    on, off = alternate(4.0, unit)
    assert calls == [True, False, True, False]
    assert overhead_ratio(on, off) == pytest.approx(1.2)
    calls.clear()
    alternate(0.1, unit)
    assert calls == [True, False]


def served_segment(exec_s: float) -> dict:
    """Twenty executed one-point jobs, one sent every 0.1 s, each
    followed by a CAS hit answered in 1 ms."""
    sent, finals, executed = [], {}, []
    request = {"system": "numa-gpu", "workloads": ["Euler"]}
    for i in range(20):
        sent_at = 100.0 + i * 0.1
        final = {"state": "done", "dedup": "new", "started_at": sent_at,
                 "finished_at": sent_at + exec_s, "submitted_at": sent_at,
                 "request": request}
        finals[f"j{i}"] = final
        executed.append(final)
        sent.append({"status": 201, "body": {"id": f"j{i}", "dedup": "new"},
                     "sent_wall": sent_at, "resp_wall": sent_at + 0.001})
        hit_at = sent_at + 0.05
        finals[f"h{i}"] = {"state": "done", "dedup": "cached",
                           "started_at": None, "finished_at": hit_at + 0.001,
                           "request": request}
        sent.append({"status": 200, "body": {"id": f"h{i}",
                                             "dedup": "cached"},
                     "sent_wall": hit_at, "resp_wall": hit_at + 0.001})
    return {"sent": sent, "finals": finals, "executed": executed,
            "wall_offset": 0.0}


def host(probe_s: float) -> HostSpeed:
    """A host whose probe read *probe_s* over the whole segment."""
    speed = HostSpeed()
    speed.samples = [(99.0, probe_s), (103.0, probe_s)]
    return speed


EXPECTED = {("Euler", "numa-gpu"): {"metrics": {"sim.accesses": 100}}}


def test_served_throughput_is_what_the_executor_achieves():
    expected = EXPECTED
    fast = _served_e2e(1.0, served_segment(0.02), expected,
                       host(REF_PROBE_S))
    slow = _served_e2e(1.0, served_segment(0.04), expected,
                       host(REF_PROBE_S))
    # The loop sent the same requests at the same times; only the
    # service's speed differs, and the throughput follows it.
    assert fast["points_per_s"] == pytest.approx(50.0)
    assert slow["points_per_s"] == pytest.approx(25.0)
    assert slow["accesses_per_s"] == pytest.approx(2500.0)
    assert slow["fresh_ms_p50"] == pytest.approx(40.0)


def test_slo_limit_is_the_seed_p90_plus_the_margin():
    assert workloads.slo_limit("served-jobs", "hit") == pytest.approx(
        SEED_P90_S["served-jobs"]["hit"] * (1 + workloads.SLO_MARGIN))


def test_a_slow_host_reads_as_the_reference_host():
    # The same service on a host running at half speed: the probe and
    # the jobs both take twice as long, and the scaled figures agree.
    quiet = _served_e2e(1.0, served_segment(0.02), EXPECTED,
                        host(REF_PROBE_S))
    slow_host = _served_e2e(1.0, served_segment(0.04), EXPECTED,
                            host(2 * REF_PROBE_S))
    for name in ("fresh_ms_p50", "batch_ms_p90", "points_per_s"):
        assert slow_host[name] == pytest.approx(quiet[name])


def test_host_speed_scale_uses_the_probes_around_an_interval():
    speed = HostSpeed()
    speed.samples = [(0.0, REF_PROBE_S), (10.0, 2 * REF_PROBE_S),
                     (20.0, 2 * REF_PROBE_S), (30.0, 9 * REF_PROBE_S),
                     (40.0, 2 * REF_PROBE_S)]
    # No sample inside [12, 18]: the nearest one on each side.
    assert speed.scale(12.0, 18.0) == pytest.approx(0.5)
    # [5, 35] holds three, widened to five; one stalled probe does not
    # move their median.
    assert speed.scale(5.0, 35.0) == pytest.approx(0.5)
    assert speed.scale(-5.0, -1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        HostSpeed().scale(0.0, 1.0)


def test_host_speed_probe_samples_both_cpus_and_stops_its_helper():
    speed = HostSpeed()
    try:
        assert speed.sample() > 0
        assert len(speed.samples) == 1
    finally:
        speed.close()
    assert not speed._proc.is_alive()
