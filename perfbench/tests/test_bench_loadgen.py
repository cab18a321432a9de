"""The served-jobs plan depends on the seed and nothing else."""

import pytest

import loadgen
from workloads import (
    FRESH_SIZES,
    HIT_KEYS,
    HIT_SIZE,
    PLAN_RATE,
    SERVED_APPS,
    served_keys,
)

HITS = served_keys(SERVED_APPS, (HIT_SIZE,))[:HIT_KEYS]
FRESH = [k for k in served_keys(SERVED_APPS, FRESH_SIZES) if k not in HITS]


def plan(seed, ticks=1500):
    return loadgen.schedule(seed, ticks, HITS, FRESH)


def test_same_seed_same_schedule_and_mix():
    assert plan(3) == plan(3)
    assert plan(3) != plan(4)


def test_ticks_are_in_order_and_fresh_keys_unique():
    requests = plan(5)
    firsts = [r for r in requests if r.kind != loadgen.DUP]
    assert [r.tick for r in firsts] == list(range(len(firsts)))
    fresh = [(r.system, r.workloads) for r in requests
             if r.kind == loadgen.FRESH]
    assert len(fresh) == len(set(fresh))
    assert all(k in FRESH for k in fresh)
    assert all((r.system, r.workloads) in HITS for r in requests
               if r.kind == loadgen.HIT)


def test_duplicates_follow_their_fresh_request():
    requests = plan(6)
    for i, r in enumerate(requests):
        if r.kind == loadgen.DUP:
            prev = requests[i - 1]
            assert prev.kind == loadgen.FRESH
            assert (prev.system, prev.workloads, prev.tick) == \
                (r.system, r.workloads, r.tick)


def test_shares_of_each_kind_are_fixed():
    def counts(seed):
        kinds = [r.kind for r in plan(seed)]
        return {k: kinds.count(k) for k in set(kinds)}

    assert counts(7) == counts(8)
    assert set(counts(7)) == {loadgen.HIT, loadgen.FRESH, loadgen.DUP}


def test_running_out_of_fresh_keys_is_an_error():
    with pytest.raises(ValueError):
        loadgen.schedule(1, 1500, HITS, FRESH[:10])


def test_the_default_run_has_enough_fresh_keys():
    assert round(16 * PLAN_RATE * (1 - loadgen.P_HIT)) <= len(FRESH)


def test_segments_cut_the_plan_by_tick():
    requests = plan(7)
    segments = loadgen.segments(requests, 200)
    assert [r for seg in segments for r in seg] == requests
    for k, seg in enumerate(segments):
        assert all(k * 200 <= r.tick < (k + 1) * 200 for r in seg)
        assert seg[0].kind != loadgen.DUP
