"""Tests for the seeded chaos engine and drill (sim/chaos.py).

Kill-flavoured kinds (worker_kill, journal_torn_tail) SIGKILL the
injecting process, so their direct injection paths are exercised in
subprocesses (here and in test_journal_v2.py); everything else is
unit-tested in-process through :func:`repro.sim.chaos.install`.
"""

from __future__ import annotations

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim import chaos
from repro.sim.chaos import (
    DRILL_WORKLOADS,
    KIND_ENOSPC,
    KIND_SHM_FAIL,
    KIND_SIDECAR_CORRUPT,
    KIND_SIDECAR_TRUNCATE,
    KIND_SIMCACHE_CORRUPT,
    KIND_TO_SITE,
    KIND_WORKER_EXCEPTION,
    KIND_WORKER_SLOW,
    PLAN_ENV,
    REQUIRED_KINDS,
    SITE_SIDECAR_STORE,
    SITE_SIMCACHE_STORE,
    SITE_TASK,
    STATE_ENV,
    ChaosEngine,
    ChaosInjectedError,
    ChaosPlan,
    FaultEvent,
    _damage_file,
    run_drill,
)
from repro.sim.journal import Journal


@pytest.fixture(autouse=True)
def _no_leftover_engine(monkeypatch):
    """Each test starts and ends with chaos disarmed."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(STATE_ENV, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


def _engine(tmp_path, *events, registry=None):
    plan = ChaosPlan(seed=0, events=tuple(events))
    return ChaosEngine(plan, tmp_path / "state", registry=registry)


class TestPlan:
    def test_same_seed_same_schedule(self):
        keys = ["numa-gpu/Lulesh", "numa-gpu/Euler"]
        assert ChaosPlan.generate(7, keys=keys) == ChaosPlan.generate(
            7, keys=keys
        )

    def test_different_seeds_differ(self):
        # Not guaranteed in principle, but these two do — a seed that
        # does not influence the schedule would break drill coverage.
        assert ChaosPlan.generate(1) != ChaosPlan.generate(2)

    def test_required_trio_always_scheduled(self):
        for seed in range(20):
            plan = ChaosPlan.generate(seed)
            kinds = [e.kind for e in plan.events]
            for required in REQUIRED_KINDS:
                assert required in kinds

    def test_save_load_round_trip(self, tmp_path):
        plan = ChaosPlan.generate(42, keys=["a", "b"])
        path = tmp_path / "plan.json"
        plan.save(path)
        assert ChaosPlan.load(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent.from_payload({"kind": "meteor_strike"})

    def test_every_kind_has_a_site(self):
        for kind, site in KIND_TO_SITE.items():
            assert isinstance(kind, str) and isinstance(site, str)


class TestEngineSemantics:
    def test_nth_counts_matching_calls(self, tmp_path):
        eng = _engine(
            tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=2)
        )
        eng.fire(SITE_TASK, "k1")  # tick 1 < nth: no injection
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "k2")  # tick 2: fires

    def test_fires_at_most_once(self, tmp_path):
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "k")
        eng.fire(SITE_TASK, "k")  # already injected: no-op

    def test_once_only_across_engine_instances(self, tmp_path):
        # Two engines sharing a state directory model two processes of
        # the same batch: the second must observe the first's injection.
        ev = FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1)
        first = _engine(tmp_path, ev)
        with pytest.raises(ChaosInjectedError):
            first.fire(SITE_TASK, "k")
        second = ChaosEngine(first.plan, first.state_dir)
        second.fire(SITE_TASK, "k")  # no re-injection

    def test_fires_late_if_claimer_died(self, tmp_path):
        # A process that claims tick nth and dies before injecting must
        # not lose the event: the next matching call (tick > nth) fires.
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        eng.state_dir.mkdir(parents=True)
        (eng.state_dir / "ev0.tick1").touch()  # the dead claimer's tick
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "k")

    def test_match_scopes_to_key_substring(self, tmp_path):
        eng = _engine(
            tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "victim", nth=1)
        )
        eng.fire(SITE_TASK, "bystander")  # no match: not even a tick
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "numa-gpu/victim")

    def test_site_mismatch_ignored(self, tmp_path):
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        eng.fire(SITE_SIDECAR_STORE, "k")  # wrong site entirely
        assert ChaosEngine.injected(eng.state_dir) == []

    def test_audit_record_written_with_metrics(self, tmp_path):
        registry = MetricsRegistry()
        eng = _engine(
            tmp_path,
            FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1),
            registry=registry,
        )
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "numa-gpu/Lulesh")
        (rec,) = ChaosEngine.injected(eng.state_dir)
        assert rec["kind"] == KIND_WORKER_EXCEPTION
        assert rec["site"] == SITE_TASK
        assert rec["key"] == "numa-gpu/Lulesh"
        assert rec["pid"] == os.getpid()
        assert rec["tick"] == 1
        counter = registry.get("chaos.injected")
        assert counter.value(kind=KIND_WORKER_EXCEPTION) == 1


class TestFaultKinds:
    def test_slow_returns_after_sleeping(self, tmp_path):
        eng = _engine(
            tmp_path, FaultEvent(KIND_WORKER_SLOW, "", nth=1, param=0.01)
        )
        eng.fire(SITE_TASK, "k")  # must not raise
        (rec,) = ChaosEngine.injected(eng.state_dir)
        assert rec["kind"] == KIND_WORKER_SLOW

    def test_enospc_surfaces_through_journal_append(self, tmp_path):
        chaos.install(_engine(tmp_path, FaultEvent(KIND_ENOSPC, "", nth=1)))
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(OSError) as exc_info:
            journal.append("start", "numa-gpu/Lulesh", attempt=1)
        assert exc_info.value.errno == errno.ENOSPC
        # The append never happened: injection precedes the write.
        assert journal.records() == []

    def test_shm_fail_falls_back_to_pipe(self, tmp_path):
        from repro.sim.pool import OK_INLINE, _export_payload

        chaos.install(_engine(tmp_path, FaultEvent(KIND_SHM_FAIL, "", nth=1)))
        payload = b"x" * 64
        message = _export_payload(payload, shm_min=0, key="k")
        assert message == (OK_INLINE, payload)  # fell back, data intact

    @pytest.mark.parametrize(
        "kind", [KIND_SIDECAR_CORRUPT, KIND_SIDECAR_TRUNCATE]
    )
    def test_sidecar_damage_is_quarantined_on_load(self, tmp_path, kind,
                                                   monkeypatch):
        registry = MetricsRegistry()
        chaos.install(
            _engine(tmp_path, FaultEvent(kind, "", nth=1),
                    registry=registry)
        )
        journal = Journal(tmp_path / "j.jsonl", registry=registry)
        journal.store_result("k", {"payload": list(range(100))})
        chaos.uninstall()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert journal.load_result("k") is None
        assert list(journal.results_dir.glob("*.corrupt"))
        assert not list(journal.results_dir.glob("*.pkl"))
        assert registry.get("blob.quarantined").value(
            namespace="sidecar") == 1

    def test_simcache_corrupt_rots_the_entry(self, tmp_path):
        entry = tmp_path / "entry.pkl"
        original = b"\x80\x04" + b"payload" * 20
        entry.write_bytes(original)
        eng = _engine(
            tmp_path, FaultEvent(KIND_SIMCACHE_CORRUPT, "", nth=1)
        )
        eng.fire(SITE_SIMCACHE_STORE, "k", path=entry)
        assert entry.read_bytes() != original
        assert len(entry.read_bytes()) == len(original)

    def test_damage_file_truncate_and_corrupt(self, tmp_path):
        target = tmp_path / "f"
        data = bytes(range(256))
        target.write_bytes(data)
        _damage_file(target, truncate=True, seed=0)
        assert target.read_bytes() == data[:128]
        target.write_bytes(data)
        _damage_file(target, truncate=False, seed=0)
        rotten = target.read_bytes()
        assert rotten != data and len(rotten) == len(data)


class TestHookPlumbing:
    def test_fire_is_noop_when_disarmed(self, tmp_path):
        chaos.fire(SITE_TASK, "k")  # must not raise or create state

    def test_env_bootstrap_arms_and_memoizes(self, tmp_path, monkeypatch):
        plan = ChaosPlan(
            seed=0, events=(FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1),)
        )
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        monkeypatch.setenv(PLAN_ENV, str(plan_path))
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        engine = chaos.active()
        assert engine is not None and engine.plan == plan
        assert chaos.active() is engine  # memoized on the env values
        with pytest.raises(ChaosInjectedError):
            chaos.fire_task("k")

    def test_unreadable_plan_leaves_chaos_off(self, tmp_path, monkeypatch):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json", encoding="utf-8")
        monkeypatch.setenv(PLAN_ENV, str(bad))
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        assert chaos.active() is None
        chaos.fire_task("k")  # still a no-op

    def test_attach_registry_fills_missing_only(self, tmp_path):
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        chaos.install(eng)
        registry = MetricsRegistry()
        chaos.attach_registry(registry)
        assert eng.registry is registry
        chaos.attach_registry(MetricsRegistry())
        assert eng.registry is registry  # first one sticks

    def test_legacy_env_fault_fail_and_flaky(self, tmp_path, monkeypatch):
        monkeypatch.setenv(chaos.FAULT_ENV, "fail:victim")
        chaos.maybe_inject_env_fault("bystander")
        with pytest.raises(RuntimeError):
            chaos.maybe_inject_env_fault("the-victim-key")
        monkeypatch.setenv(chaos.FAULT_ENV, "flaky:")
        monkeypatch.setenv(chaos.FAULT_STATE_ENV, str(tmp_path))
        with pytest.raises(RuntimeError):
            chaos.maybe_inject_env_fault("k")
        chaos.maybe_inject_env_fault("k")  # second attempt passes


_KILL_CHILD = """
import os, sys
from repro.sim import chaos
from repro.sim.chaos import ChaosEngine, ChaosPlan, FaultEvent, SITE_TASK

plan = ChaosPlan(seed=0, events=(FaultEvent("worker_kill", "", 1),))
chaos.install(ChaosEngine(plan, sys.argv[1]))
chaos.fire(SITE_TASK, "doomed")
print("survived")  # must be unreachable
"""


class TestKillKinds:
    def test_worker_kill_sigkills_and_is_audited(self, tmp_path):
        state = tmp_path / "state"
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_CHILD, str(state)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                                   / "src")},
        )
        assert proc.returncode == -9  # SIGKILL, not a clean exit
        assert "survived" not in proc.stdout
        (rec,) = ChaosEngine.injected(state)
        assert rec["kind"] == "worker_kill"  # recorded before dying


class TestDrill:
    def test_rejects_single_workload(self, tmp_path):
        with pytest.raises(ValueError):
            run_drill(tmp_path, workloads=("Lulesh",))

    def test_default_workloads_are_plausible(self):
        assert len(DRILL_WORKLOADS) >= 2

    @pytest.mark.slow
    def test_end_to_end_drill_passes(self, tmp_path):
        report = run_drill(
            tmp_path / "drill", seed=1, rounds=2, jobs=2,
            workloads=("Lulesh", "Euler"),
        )
        assert report.ok, report.render()
        assert report.injected  # something actually fired
        rendered = report.render()
        assert "PASS" in rendered and "byte-identical" in rendered
        # The audit trail on disk matches what the report carries.
        state_records = ChaosEngine.injected(
            Path(tmp_path / "drill" / "chaos-state")
        )
        assert state_records == report.injected


class TestCli:
    def test_chaos_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["chaos", "--seed", "9", "--rounds", "2", "--jobs", "4",
             "--pin", "--workloads", "Lulesh", "Euler"]
        )
        assert args.seed == 9
        assert args.rounds == 2
        assert args.jobs == 4
        assert args.pin is True
        assert args.workloads == ["Lulesh", "Euler"]
