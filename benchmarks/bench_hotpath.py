"""Hot-path microbenchmark: vectorized vs. reference execution engine.

Times both :class:`MultiGpuSystem` engines over suite workloads under the
paper's main configurations and records accesses/second (plus the
speedup of the vectorized engine over the reference per-access loop) to
``BENCH_hotpath.json`` at the repository root, so the perf trajectory of
the hot path is tracked from PR to PR.  The payload is stamped with a
provenance block (git sha, CODE_VERSION, timestamp) and carries a
run-over-run trend history — see ``_common.save_bench_json`` and
``docs/regression.md``.

Each (workload, config) cell is timed best-of-N (wall-clock noise between
otherwise identical runs is easily 20-30% on shared machines; the minimum
is the standard robust estimator for throughput benchmarks).  Both
engines run the *same* generated trace, and their ``RunResult`` counters
are asserted equal as a side-effect sanity check.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py             # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke     # CI gate
    PYTHONPATH=src python benchmarks/bench_hotpath.py --obs-check # obs gate

``--obs-check`` guards the observability layer's overhead contract
(docs/observability.md): a metrics-only ``Observability`` attached to
the vectorized engine must cost < 5% wall time and leave the
``RunResult`` bit-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from repro.config import (
    COHERENCE_HARDWARE,
    COHERENCE_SOFTWARE,
    WRITE_BACK,
    SystemConfig,
    baseline_config,
)
from repro.numa.system import ENGINE_REFERENCE, ENGINE_VECTORIZED, MultiGpuSystem
from repro.workloads.base import generate_trace
from repro.workloads.suite import get

from _common import save_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_hotpath.json"

WORKLOADS = ("Lulesh", "Euler", "SSSP")


def _configs() -> dict[str, SystemConfig]:
    base = baseline_config()
    return {
        "baseline": base,
        "carve-swc-wb": base.with_rdc(
            coherence=COHERENCE_SOFTWARE, write_policy=WRITE_BACK
        ),
        "carve-hwc": base.with_rdc(coherence=COHERENCE_HARDWARE),
    }


def _scaled_spec(abbr: str, max_accesses: int, n_kernels: int):
    return dataclasses.replace(
        get(abbr),
        n_kernels=n_kernels,
        warmup_kernels=1,
        max_accesses=max_accesses,
        min_accesses=max(1, max_accesses // 4),
    )


def _time_engine(cfg: SystemConfig, trace, engine: str, repeats: int):
    """Best-of-*repeats* wall time; returns (seconds, RunResult)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        system = MultiGpuSystem(cfg, engine=engine)
        t0 = time.perf_counter()
        r = system.run(trace)
        best = min(best, time.perf_counter() - t0)
        if result is None:
            result = r
    return best, result


def run_bench(max_accesses: int, n_kernels: int, repeats: int) -> dict:
    cells = []
    for workload in WORKLOADS:
        spec = _scaled_spec(workload, max_accesses, n_kernels)
        for label, cfg in _configs().items():
            trace = generate_trace(spec, cfg)
            n_acc = int(sum(len(k.lines) for k in trace.kernels))
            t_vec, r_vec = _time_engine(cfg, trace, ENGINE_VECTORIZED, repeats)
            t_ref, r_ref = _time_engine(cfg, trace, ENGINE_REFERENCE, repeats)
            if r_vec != r_ref:
                raise AssertionError(
                    f"engine divergence on {workload}/{label}: the "
                    "vectorized engine is not counter-identical"
                )
            cell = {
                "workload": workload,
                "config": label,
                "accesses": n_acc,
                "vectorized_acc_per_s": round(n_acc / t_vec, 1),
                "reference_acc_per_s": round(n_acc / t_ref, 1),
                "speedup": round(t_ref / t_vec, 3),
            }
            cells.append(cell)
            print(
                f"{workload:8s} {label:14s} "
                f"vec={cell['vectorized_acc_per_s']:>11,.0f}/s "
                f"ref={cell['reference_acc_per_s']:>11,.0f}/s "
                f"x{cell['speedup']:.2f}"
            )
    speedups = [c["speedup"] for c in cells]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "bench": "hotpath",
        "unit": "accesses_per_second",
        "repeats": repeats,
        "max_accesses_per_kernel": max_accesses,
        "n_kernels": n_kernels,
        "cells": cells,
        "speedup_min": round(min(speedups), 3),
        "speedup_geomean": round(geomean, 3),
    }


#: Overhead budget for a metrics-only Observability (docs/observability.md).
OBS_OVERHEAD_LIMIT = 0.05


def _measure_obs_cell(cfg, trace, repeats):
    """Interleaved best-of-*repeats* timings:
    ``(t_bare, t_obs, r_bare, r_obs)``.

    Bare and observed runs alternate within each repeat so a load
    spike on a shared machine hits both variants rather than biasing
    one.
    """
    from repro.obs import Observability

    t_bare = t_obs = math.inf
    r_bare = r_obs = None
    for _ in range(repeats):
        system = MultiGpuSystem(cfg, engine=ENGINE_VECTORIZED)
        t0 = time.perf_counter()
        r = system.run(trace)
        t_bare = min(t_bare, time.perf_counter() - t0)
        if r_bare is None:
            r_bare = r
        obs = Observability()  # metrics only, tracing off
        system = MultiGpuSystem(cfg, engine=ENGINE_VECTORIZED, obs=obs)
        t0 = time.perf_counter()
        r = system.run(trace)
        t_obs = min(t_obs, time.perf_counter() - t0)
        if r_obs is None:
            r_obs = r
    return t_bare, t_obs, r_bare, r_obs


def run_obs_check(max_accesses: int, n_kernels: int, repeats: int) -> int:
    """Assert the observability layer's overhead + fidelity contract.

    For each (workload, config) cell: run the vectorized engine bare
    and with a metrics-only :class:`repro.obs.Observability` attached,
    interleaved, best-of-*repeats* each.  Require a bit-identical
    ``RunResult`` and < 5% wall-time overhead on the best times.  A
    cell over budget is re-measured up to twice before it counts as a
    failure — single-shot wall clock on a shared machine is noisy, and
    only a *repeatable* overage means the contract is broken.
    """
    worst = 0.0
    failures = 0
    for workload in WORKLOADS:
        spec = _scaled_spec(workload, max_accesses, n_kernels)
        for label, cfg in _configs().items():
            trace = generate_trace(spec, cfg)
            overhead = math.inf
            for attempt in range(3):
                t_bare, t_obs, r_bare, r_obs = _measure_obs_cell(
                    cfg, trace, repeats
                )
                overhead = min(overhead, t_obs / t_bare - 1.0)
                if overhead < OBS_OVERHEAD_LIMIT:
                    break
            if r_obs != r_bare:
                print(f"{workload}/{label}: RunResult DIVERGES under obs")
                failures += 1
                continue
            worst = max(worst, overhead)
            verdict = "ok" if overhead < OBS_OVERHEAD_LIMIT else "FAIL"
            if verdict == "FAIL":
                failures += 1
            print(
                f"{workload:8s} {label:14s} bare={t_bare:.4f}s "
                f"obs={t_obs:.4f}s ({overhead:+.1%}) {verdict}"
            )
    print(
        f"worst observed overhead {worst:+.1%} "
        f"(budget {OBS_OVERHEAD_LIMIT:.0%}, metrics-only)"
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="small traces, fewer repeats: a fast CI engines-still-fast "
        "and engines-still-equal gate (does not write the JSON)",
    )
    ap.add_argument(
        "--obs-check",
        action="store_true",
        help="assert the observability layer costs < 5%% wall time and "
        "leaves RunResult bit-identical (does not write the JSON)",
    )
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument(
        "--output", type=Path, default=OUTPUT, help="result JSON path"
    )
    args = ap.parse_args(argv)

    if args.obs_check:
        return run_obs_check(
            max_accesses=80000, n_kernels=4, repeats=args.repeats or 5
        )

    if args.smoke:
        payload = run_bench(
            max_accesses=8000, n_kernels=2, repeats=args.repeats or 1
        )
        print(f"geomean x{payload['speedup_geomean']:.2f} (smoke: not recorded)")
        return 0

    payload = run_bench(
        max_accesses=80000, n_kernels=4, repeats=args.repeats or 5
    )
    save_bench_json(
        args.output, payload,
        trend_keys=("speedup_geomean", "speedup_min"),
    )
    print(
        f"geomean x{payload['speedup_geomean']:.2f}, "
        f"min x{payload['speedup_min']:.2f} -> {args.output}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
