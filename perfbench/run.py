"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-sim --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures
traced and untraced units of the same work and prints the per-layer
metrics.  The last line of standard output is the result object; the
line before it records the environment.  Both are also written to
``.perfbench-out/`` with, for traced runs, a Perfetto ``trace_event``
file.  The exit status is 0 only when every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
TMP_DIR = ROOT / ".perfbench-tmp"

#: End-to-end metrics, with units, printed by every workload.  The p90
#: latencies are measured too but only written to the run record: on the
#: 2-CPU shared host their spread across runs of unchanged code reached
#: 0.37, over the 0.25 a bound may be (README.md, "End-to-end metrics").
#: slo_ok_ratio, whose limits sit just above the seed p90s, gates the
#: tails instead.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accesses_per_s": "1/s",
    "points_per_s": "1/s",
    "batch_ms_p50": "ms",
    "submit_ms_p50": "ms",
    "hit_ms_p50": "ms",
    "fresh_ms_p50": "ms",
    "slo_ok_ratio": "ratio",
}

#: Largest tolerated |layer self times + unattributed - wall| as a
#: share of the traced wall time (float rounding only).
IDENTITY_TOLERANCE = 1e-6


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    from repro.obs.baseline import git_sha
    from repro.sim.cache import CODE_VERSION

    return {"nproc": nproc(), "python": platform.python_version(),
            "git_sha": git_sha(), "code_version": CODE_VERSION}


def hermetic_env(tmp: Path) -> None:
    """Point every store the program writes at this run's temp root and
    drop inherited settings (fault injection, cache switches)."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "simcache")
    os.environ["REPRO_JOURNAL_DIR"] = str(tmp / "journal")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def result_line(outcome, trace: bool) -> dict:
    import layers

    values = outcome.layers if trace else outcome.e2e
    units = layers.PER_LAYER_UNITS if trace else E2E_UNITS
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from workloads import CONNECTIONS, POOL_JOBS, WORKLOADS, Ctx

    if max(POOL_JOBS, CONNECTIONS) > nproc():
        print(f"perfbench: refusing to run: needs {POOL_JOBS} pool workers "
              f"and {CONNECTIONS} connection(s) but nproc is {nproc()}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    import layers
    from hostspeed import HostSpeed
    from spans import Tracer, perfetto

    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_DIR))
    speed = HostSpeed()
    try:
        hermetic_env(tmp)
        tracer = Tracer(spill_dir=tmp / "spans") if args.trace else None
        if tracer is not None:
            (tmp / "spans").mkdir()
        ctx = Ctx(seed=args.seed, seconds=args.seconds, root=tmp, src=SRC,
                  trace=bool(args.trace), tracer=tracer, speed=speed)
        outcome = WORKLOADS[args.workload](ctx)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        OUT_DIR.mkdir(exist_ok=True)
        if tracer is not None:
            error = layers.identity_error(outcome.layers)
            wall = outcome.layers["trace.wall_s"]
            if error > IDENTITY_TOLERANCE * wall:
                outcome.problems.append(
                    f"layer self times + unattributed miss the traced "
                    f"wall time by {error:.6f}s of {wall:.3f}s")
            spans = tracer.collect()
            layers.link_worker_spans(spans)
            (OUT_DIR / f"{stem}.trace.json").write_text(
                json.dumps(perfetto(spans, outcome.origin)))
        result = result_line(outcome, bool(args.trace))
        env = environment()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        speed.close()
        shutil.rmtree(tmp, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "problems": outcome.problems,
              "e2e": outcome.e2e, "detail": outcome.detail,
              "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for problem in outcome.problems:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
