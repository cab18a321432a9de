"""Tracing observes the layers without changing any result."""

from contextlib import nullcontext

import layers
from checks import digest
from spans import Tracer


def simulate(tmp_path, monkeypatch, name, tracer=None):
    from repro.sim.driver import run_workload
    from repro.sim.experiments import config_for, run_suite
    from repro.sim.runner import RunnerPolicy

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
    config = config_for("single-gpu")
    with layers.instrument(tracer) if tracer else nullcontext():
        cold = run_workload("Euler", config, label="single-gpu")
        pooled = run_suite("single-gpu", workloads=["Euler"],
                           runner=RunnerPolicy(
                               jobs=2, journal_path=tmp_path / f"{name}.jsonl"))
    return digest(cold, config), digest(pooled.results["Euler"], config)


def test_traced_and_untraced_runs_give_identical_digests(tmp_path,
                                                         monkeypatch):
    plain = simulate(tmp_path, monkeypatch, "plain")
    (tmp_path / "spans").mkdir()
    tracer = Tracer(spill_dir=tmp_path / "spans")
    traced = simulate(tmp_path, monkeypatch, "traced", tracer)
    assert traced == plain
    spans = tracer.collect()
    names = {s.name for s in spans}
    assert {"workloads.generate", "numa.engine", "sim.cache.store",
            "sim.runner.batch", "sim.pool.task"} <= names
    # The pooled point was a cache hit read inside a forked worker.
    layers.link_worker_spans(spans)
    worker_loads = [s for s in spans if s.name == "sim.cache.load"
                    and s.parent is not None and s.args.get("hit")]
    assert worker_loads


def test_instrument_restores_every_entry_point():
    from repro.sim import cache, driver
    from repro.sim.pool import WorkerPool

    before = (driver.generate_trace, cache.load, WorkerPool.dispatch)
    with layers.instrument(Tracer()):
        assert driver.generate_trace is not before[0]
    assert (driver.generate_trace, cache.load, WorkerPool.dispatch) == before
