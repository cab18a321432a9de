"""The three workloads: set-up, timed window and checks.

Each workload is a function ``(ctx) -> Outcome``.  ``ctx`` holds the
seed, the run length, the run's private temp root and, for a traced
run, the tracer.  A traced run measures traced and untraced units of
the same work, so it can report ``trace.overhead_ratio`` itself; only
the traced units' spans are attributed.

Why these three (see README.md for the layer table):

* ``cold-sim`` — suite points from an empty sim-cache.  Trace
  generation, the sharing profile and the engine do the work.
* ``warm-sweep`` — figure regeneration from a warm sim-cache through
  the worker pool.  The engine does nothing; pool start-up, cache
  reads, result transport, the journal and pricing do the work.
* ``served-jobs`` — a closed loop of job submissions against the HTTP
  service: CAS hits, coalesced duplicates and fresh keys whose points
  are cached.  The only workload that uses ``serve/``.

Every host time is scaled to a reference host speed by the probe of
``hostspeed.py``, sampled while the program is idle: between cold-sim
points, between warm-sweep iterations, between served-jobs segments
and around each set-up.  A slow phase of the shared host then moves the
probe and the work alike and drops out of the figures.  Latency percentiles and throughputs are taken per window
(a pass of cold-sim, :data:`WINDOW_S` seconds elsewhere) and the median
across windows is reported, so a shorter slow phase moves one window,
not the figure.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import layers
import loadgen
from checks import DEFAULT_SEED, Checker, digest, point_id
from hostspeed import HostSpeed
from spans import Tracer

#: Worker processes of every pooled batch and of the service.
POOL_JOBS = 2
#: Concurrent HTTP connections the load generator opens.
CONNECTIONS = 1
#: Set-ups per run; setup_s is their median.  cold-sim's set-up is an
#: interpreter start, so it repeats often.  The other two simulate a
#: pooled sim-cache pre-fill of about 8 s each time; more than two
#: would not fit the run budget on a slow host (README.md, "Running
#: it").
SETUP_REPEATS = {"cold-sim": 9, "warm-sweep": 2, "served-jobs": 2}

#: Width of the windows latency percentiles and throughputs are taken
#: in (warm-sweep and served-jobs), and the fewest samples a window may
#: hold; a smaller window is merged into its neighbour.
WINDOW_S = 2.0
MIN_WINDOW = 5

COLD_MIX = (
    ("RandAccess", "numa-gpu"),
    ("XSBench", "carve-hwc"),
    ("Lulesh", "carve-swc"),
    ("Lulesh", "numa-gpu+migration"),
    ("SSSP", "numa-gpu+repl-ro"),
    ("stream-triad", "ideal"),
    ("Euler", "single-gpu"),
)
#: Small apps, cheap to pre-fill many points of.  They are the same on
#: every seed (so the golden digests cover them); the seed varies the
#: order of the sweep and the served request plan.
WARM_APPS = ("Euler", "Nekbone", "OverFeat")
SERVED_APPS = ("Euler", "Nekbone", "OverFeat", "CoMD", "AlexNet",
               "GoogLeNet")
SERVED_SYSTEMS = ("single-gpu", "numa-gpu", "carve-swc", "carve-hwc")
#: Fig-14 link bandwidths (GB/s) the warm sweep re-prices at.
LINK_BWS = (32.0, 64.0, 128.0, 256.0)
#: CAS keys the served-jobs set-up completes before the loop starts,
#: each a subset of HIT_SIZE apps.  Fresh keys are subsets of
#: FRESH_SIZES apps; fixed sizes keep points per job steady across seeds.
HIT_KEYS = 6
HIT_SIZE = 3
FRESH_SIZES = (2, 3, 4)
#: Ticks of the served-jobs plan per second of ``--seconds``: about what
#: the closed loop sustains on the 2-CPU reference host, so a run sends
#: a fixed plan that takes about ``--seconds``.  Capped by the fresh keys
#: there are.
PLAN_RATE = 100.0
#: Ticks per served-jobs segment (about 0.5 s); the service is idle
#: between segments, where the host speed probe is sampled.
SEGMENT_TICKS = 50

#: slo_ok_ratio: a request meets its class's limit when its turnaround
#: is at most the class's p90 in the recorded seed runs times
#: 1 + SLO_MARGIN (the latency bound), so a slowdown of a class beyond
#: the bound pushes its tail past the limit.  Seconds; README.md,
#: "SLO limits", gives the runs they come from.  cold-sim's fresh
#: points differ a hundredfold in cost, so each point is its own class.
SLO_MARGIN = 0.25
SEED_P90_S = {
    "cold-sim": {
        "hit": 0.00095,
        "RandAccess@numa-gpu": 4.76,
        "XSBench@carve-hwc": 2.71,
        "Lulesh@carve-swc": 1.21,
        "Lulesh@numa-gpu+migration": 1.22,
        "SSSP@numa-gpu+repl-ro": 0.90,
        "stream-triad@ideal": 1.02,
        "Euler@single-gpu": 0.41,
    },
    "warm-sweep": {"hit": 0.0328, "fresh": 0.989},
    "served-jobs": {"hit": 0.00182, "fresh": 0.0890},
}

#: Modules a fresh interpreter imports before it can run any workload.
_IMPORTS = ("repro.sim.experiments", "repro.sim.sweep", "repro.serve.service",
            "repro.serve.client", "repro.numa.system")


@dataclass
class Ctx:
    """What one run of one workload is given."""

    seed: int
    seconds: float
    root: Path
    src: Path
    trace: bool = False
    tracer: Optional[Tracer] = None
    #: The run's host speed probe (its helper is stopped by the caller).
    speed: Optional[HostSpeed] = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: Traced spans' time origin (for the Perfetto export).
    origin: float = 0.0
    #: Extra figures for the run record (not printed).
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    """Linear-interpolated percentile *q* (0-100) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def windows_of(samples, width: float = WINDOW_S) -> list[list]:
    """Cut ``(t, value)`` samples into consecutive *width*-second windows
    of t; returns each window's values in time order.  A window with
    fewer than MIN_WINDOW values joins the window before it (the first
    joins the one after)."""
    samples = sorted(samples, key=lambda s: s[0])
    if not samples:
        raise ValueError("no samples to window")
    t0 = samples[0][0]
    bins: dict = {}
    for t, value in samples:
        bins.setdefault(int((t - t0) // width), []).append(value)
    out: list[list] = []
    for k in sorted(bins):
        if out and len(bins[k]) < MIN_WINDOW:
            out[-1].extend(bins[k])
        else:
            out.append(bins[k])
    if len(out) > 1 and len(out[0]) < MIN_WINDOW:
        first = out.pop(0)
        out[0][:0] = first
    return out


def latency_metrics(name: str, windows) -> dict:
    """p50 and p90 of each window of seconds; the medians across
    windows, in ms."""
    return {f"{name}_ms_p50": statistics.median(
                pct(w, 50) for w in windows) * 1e3,
            f"{name}_ms_p90": statistics.median(
                pct(w, 90) for w in windows) * 1e3}


def slo_limit(workload: str, cls: str) -> float:
    return SEED_P90_S[workload][cls] * (1 + SLO_MARGIN)


def slo_ratio(samples) -> float:
    """*samples*: ``(turnaround_s or None, limit_s)``; None = failed."""
    ok = sum(1 for t, limit in samples if t is not None and t <= limit)
    return ok / len(samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_probe(src: Path) -> None:
    """Import the simulator's layers in a fresh interpreter, as every
    command-line user does before the first point."""
    code = "import " + ", ".join(_IMPORTS)
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def fresh_dir(root: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=root))


def use_cache_dir(path: Path) -> None:
    os.environ["REPRO_CACHE_DIR"] = str(path)


def traced(ctx: Ctx, on: bool = True):
    """Context that installs the span wrappers in traced units."""
    return layers.instrument(ctx.tracer) if on and ctx.tracer \
        else nullcontext()


def timed_setup(ctx: Ctx, speed: HostSpeed, repeats: int, prepare,
                teardown):
    """Run ``prepare()`` *repeats* times; keep the last state.

    Returns ``(median reference seconds, state)``.  Earlier states are
    torn down before the next repetition, outside the timing; the probe
    is sampled before and after each, and any time ``prepare`` spent
    sampling it is left out.
    """
    times, state = [], None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
        speed.sample()
        spent = speed.spent_s
        t0 = time.perf_counter()
        import_probe(ctx.src)
        state = prepare()
        t1 = time.perf_counter()
        host_s = t1 - t0 - (speed.spent_s - spent)
        speed.sample()
        times.append(host_s * speed.scale(t0, t1))
    return statistics.median(times), state


def alternate(seconds: float, unit) -> tuple[list, list]:
    """Run ``unit(traced)`` alternately traced and untraced until the
    units have taken *seconds* (at least one of each); returns the
    traced and untraced units.  Alternating puts both sides in the same
    phases of the host, so their ratio is the cost of tracing."""
    on, off = [], []
    while not on or sum(u["s"] for u in on + off) < seconds:
        on.append(unit(True))
        off.append(unit(False))
    return on, off


def overhead_ratio(on: list, off: list) -> float:
    return (statistics.median(u["s"] for u in on)
            / statistics.median(u["s"] for u in off))


def figure_reads() -> dict:
    """How many figure and table functions of ``repro.sim.experiments``
    read each configuration, from their source.

    A figure reads every configuration whose name constant it mentions.
    The first to run simulates a point; the others read it back from the
    sim-cache, which gives cold-sim's read-backs per point.
    """
    from repro.sim import experiments

    names = set(experiments.experiment_configs())
    constants = {k: v for k, v in vars(experiments).items()
                 if k.isupper() and isinstance(v, str) and v in names}
    reads = dict.fromkeys(sorted(names), 0)
    tree = ast.parse(inspect.getsource(experiments))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and \
                node.name.startswith(("figure", "table")):
            used = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and n.id in constants}
            for const in used:
                reads[constants[const]] += 1
    return reads


def cold_specs(seed: int) -> list:
    """The cold-sim points; other seeds re-seed each trace generator."""
    from repro.workloads import suite

    out = []
    for abbr, system in COLD_MIX:
        spec = suite.get(abbr)
        if seed != DEFAULT_SEED:
            spec = spec.scaled(seed=spec.seed + 1000 * seed)
        out.append((abbr, system, spec))
    return out


def _measured_extras() -> dict:
    """The per-layer metrics a workload measures itself rather than
    from spans; each starts at 0, which is what a workload that does not
    exercise the layer reports."""
    return {"sim.cache.store_bytes": 0, "sim.cache.quarantined": 0,
            "sim.journal.sidecar_bytes": 0, "serve.queue_wait_s": 0.0,
            "serve.dedup_hit_ratio": 0.0, "serve.rejected": 0,
            "loadgen.late_ms_p90": 0.0}


# ---------------------------------------------------------------------------
# cold-sim
# ---------------------------------------------------------------------------

def cold_sim(ctx: Ctx) -> Outcome:
    from repro.sim.driver import run_workload, time_of
    from repro.sim.experiments import config_for

    checker = Checker(ctx.seed, golden=ctx.seed == DEFAULT_SEED)
    out = Outcome()
    speed = ctx.speed
    reads = figure_reads()

    def prepare():
        root = fresh_dir(ctx.root, "cold-")
        points = [(abbr, system, spec, config_for(system),
                   max(0, reads[system] - 1))
                  for abbr, system, spec in cold_specs(ctx.seed)]
        return root, points

    setup_s, (root, points) = timed_setup(
        ctx, speed, SETUP_REPEATS["cold-sim"], prepare,
        lambda state: shutil.rmtree(state[0], ignore_errors=True))
    extra = _measured_extras()

    def check(delivered) -> None:
        for abbr, system, config, result in delivered:
            out.attempted += 1
            if not checker.check(point_id(abbr, system),
                                 digest(result, config)):
                out.failed += 1

    def one_pass() -> dict:
        """Every point from an empty sim-cache, each read back as often
        as the figures that share it would read it.  The probe is
        sampled between points and the pass is scaled by its samples
        (a point's neighbours alone jitter too much for points of
        several seconds); the pass's time is the sum of its points'
        times, probes left out."""
        cache = fresh_dir(root, "simcache-")
        use_cache_dir(cache)
        delivered = []   # (abbr, system, config, result)
        timed = []       # (pid, t0, t1 fresh, t2 after read-backs, hits)
        accesses = 0
        t_pass = time.perf_counter()
        speed.sample()
        for abbr, system, spec, config, readbacks in points:
            t0 = time.perf_counter()
            result = run_workload(spec, config, label=system)
            time_of(result, config)
            t1 = time.perf_counter()
            delivered.append((abbr, system, config, result))
            accesses += result.total().accesses
            hits = []
            for _ in range(readbacks):
                a = time.perf_counter()
                again = run_workload(spec, config, label=system)
                time_of(again, config)
                hits.append(time.perf_counter() - a)
                delivered.append((abbr, system, config, again))
            t2 = time.perf_counter()
            speed.sample()
            timed.append((point_id(abbr, system), t0, t1, t2, hits))
        wall = time.perf_counter() - t_pass
        check(delivered)
        shutil.rmtree(cache, ignore_errors=True)
        k = speed.scale(t_pass, t_pass + wall)
        return {"s": k * sum(t2 - t0 for _, t0, _, t2, _ in timed),
                "wall": wall, "accesses": accesses,
                "fresh": [(pid, (t1 - t0) * k)
                          for pid, t0, t1, _, _ in timed],
                "hits": [h * k for *_, hits in timed for h in hits]}

    def paired_pass() -> tuple[list, list]:
        """Every point and its read-backs twice back to back, traced and
        untraced (which goes first alternates from point to point), each
        side into its own empty sim-cache.  Returns the traced and the
        untraced units, one per point: a pair sees one phase of the
        host, so its ratio is the cost of tracing."""
        caches = {on: fresh_dir(root, "paired-") for on in (True, False)}
        units: dict = {True: [], False: []}
        delivered = []
        for i, (abbr, system, spec, config, readbacks) in enumerate(points):
            for on in (True, False) if i % 2 == 0 else (False, True):
                use_cache_dir(caches[on])
                with traced(ctx, on):
                    t0 = time.perf_counter()
                    for _ in range(1 + readbacks):
                        result = run_workload(spec, config, label=system)
                        time_of(result, config)
                        delivered.append((abbr, system, config, result))
                    t1 = time.perf_counter()
                units[on].append({"s": t1 - t0, "window": (t0, t1)})
        extra["sim.cache.store_bytes"] += layers.dir_bytes(caches[True],
                                                           "*.pkl")
        extra["sim.cache.quarantined"] += len(list(
            caches[True].glob("*.corrupt")))
        check(delivered)
        for cache in caches.values():
            shutil.rmtree(cache, ignore_errors=True)
        return units[True], units[False]

    first = one_pass()
    if ctx.trace:
        # The first pass warms the process up; it is not compared.
        on, off = [], []
        while not on or sum(u["s"] for u in on + off) < ctx.seconds:
            traced_units, plain_units = paired_pass()
            on += traced_units
            off += plain_units
        extra["trace.overhead_ratio"] = statistics.median(
            a["s"] / b["s"] for a, b in zip(on, off))
        windows = [u["window"] for u in on]
        out.layers = layers.per_layer_metrics(ctx.tracer, windows, extra)
        out.origin = windows[0][0]
    else:
        # Whole passes until --seconds is spent; the last may overrun it.
        n = max(2, math.ceil(ctx.seconds / first["wall"]))
        passes = [first] + [one_pass() for _ in range(n - 1)]
        out.e2e = _cold_e2e(setup_s, passes)
        out.detail = {"fresh_s": {
            pid: [t for p in passes for q, t in p["fresh"] if q == pid]
            for pid, _ in first["fresh"]},
            "hit_s": [p["hits"] for p in passes],
            "probes": speed.samples}
    ref_points = {point_id(a, s): (spec, cfg, s)
                  for a, s, spec, cfg, _ in points
                  if a not in ("RandAccess", "XSBench")}
    out.failed += checker.check_reference(ref_points)
    out.problems = checker.problems
    return out


def _cold_e2e(setup_s: float, passes: list) -> dict:
    """One pass is a window; a pass's points are its fresh samples."""
    fresh = [p["fresh"] for p in passes]
    hits = [p["hits"] for p in passes]
    busy = [p["s"] for p in passes]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "accesses_per_s": statistics.median(p["accesses"] / s
                                            for p, s in zip(passes, busy)),
        "points_per_s": statistics.median(len(f) / s
                                          for f, s in zip(fresh, busy)),
        **latency_metrics("batch", [busy]),
        **latency_metrics("submit", [[f[0][1] for f in fresh]]),
        **latency_metrics("hit", hits),
        **latency_metrics("fresh", [[t for _, t in f] for f in fresh]),
        "slo_ok_ratio": slo_ratio(
            [(t, slo_limit("cold-sim", pid)) for f in fresh for pid, t in f]
            + [(t, slo_limit("cold-sim", "hit")) for h in hits for t in h]),
    }


# ---------------------------------------------------------------------------
# warm-sweep
# ---------------------------------------------------------------------------

def _prefill(systems, apps, on_point, speed: HostSpeed,
             pin: bool = False) -> dict:
    """Simulate every (system, app) point into the current sim-cache
    through pooled batches, sampling *speed* after each; returns each
    point's RunResult.  *on_point(t0, t1)* gets each point's batch
    start and arrival; *pin* pins each pool worker to its own CPU."""
    from repro.sim.experiments import run_suite
    from repro.sim.runner import RunnerPolicy

    results = {}
    for system in systems:
        t0 = time.perf_counter()
        run = run_suite(
            system, workloads=list(apps),
            runner=RunnerPolicy(jobs=POOL_JOBS, pin=pin),
            on_event=lambda e: on_point(t0, time.perf_counter()),
        )
        speed.sample()
        if not run.ok:
            raise RuntimeError(f"pre-fill failed: {run.failure_summary()}")
        for abbr, result in run.results.items():
            results[(abbr, system)] = (result, run.config)
    return results


def warm_sweep(ctx: Ctx) -> Outcome:
    from repro.sim.experiments import CARVE_HWC, config_for, \
        experiment_configs, run_suite
    from repro.sim.runner import RunnerPolicy
    from repro.sim.sweep import reprice_sweep

    checker = Checker(ctx.seed, golden=True)
    out = Outcome()
    speed = ctx.speed
    apps = WARM_APPS
    systems = list(experiment_configs())
    random.Random(f"systems:{ctx.seed}").shuffle(systems)
    base = config_for(CARVE_HWC)

    def price_factory(bw):
        return base.replace(link=base.link.__class__(
            inter_gpu_bytes_per_s=bw * 1e9,
            cpu_gpu_bytes_per_s=base.link.cpu_gpu_bytes_per_s,
            latency_ns=base.link.latency_ns,
        ))

    prefills: list = []   # each pre-filled point's (t0, t1)

    def prepare():
        root = fresh_dir(ctx.root, "warm-")
        use_cache_dir(root / "simcache")
        results = _prefill(systems, apps,
                           lambda t0, t1: prefills.append((t0, t1)), speed)
        return root, results

    setup_s, (root, results) = timed_setup(
        ctx, speed, SETUP_REPEATS["warm-sweep"], prepare,
        lambda state: shutil.rmtree(state[0], ignore_errors=True))
    for (abbr, system), (result, config) in results.items():
        checker.check(point_id(abbr, system), digest(result, config))
    expected_price = {
        (bw, abbr): digest(results[(abbr, CARVE_HWC)][0],
                           price_factory(bw))["time_s"]
        for bw in LINK_BWS for abbr in apps
    }
    journals = root / "journals"
    journals.mkdir()
    seq = itertools.count()
    extra = _measured_extras()

    def policy():
        return RunnerPolicy(jobs=POOL_JOBS,
                            journal_path=journals / f"b{next(seq)}.jsonl")

    def check(delivered, sweep) -> tuple:
        """Check one iteration; returns its (points, accesses)."""
        points = accesses = 0
        for system, run, times in delivered:
            out.attempted += len(apps)
            out.failed += len(run.failures) + len(run.cancelled)
            for abbr, result in run.results.items():
                d = digest(result, time_s=times[abbr])
                if not checker.check(point_id(abbr, system), d):
                    out.failed += 1
                accesses += d["metrics"]["sim.accesses"]
                points += 1
        out.attempted += len(LINK_BWS) * len(apps)
        for cell, point in sweep.points.items():
            if point.time_s != expected_price[cell]:
                checker.problems.append(f"re-price {cell} differs")
                out.failed += 1
        out.failed += len(sweep.failures) + len(sweep.cancelled)
        for path in journals.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        return points, accesses

    def iteration(trace_on: bool) -> dict:
        """One figure regeneration: a batch per system + one re-price.
        Latency samples are ``(end of batch, seconds)``."""
        it = {"batch": [], "submit": [], "hit": []}
        delivered = []
        with traced(ctx, trace_on):
            t_iter = time.perf_counter()
            for system in systems:
                arrivals = []
                t0 = time.perf_counter()
                run = run_suite(system, workloads=list(apps),
                                runner=policy(),
                                on_event=lambda e: arrivals.append(
                                    time.perf_counter()))
                t1 = time.perf_counter()
                times = {abbr: run.time_s(abbr) for abbr in run.results}
                it["batch"].append((t1, t1 - t0))
                if arrivals:
                    it["submit"].append((t1, arrivals[0] - t0))
                it["hit"].extend((t1, a - t0) for a in arrivals)
                delivered.append((system, run, times))
            t0 = time.perf_counter()
            sweep = reprice_sweep("link_bw", LINK_BWS, base, price_factory,
                                  list(apps), runner=policy())
            t1 = time.perf_counter()
            it["batch"].append((t1, t1 - t0))
        if trace_on:
            extra["sim.journal.sidecar_bytes"] += layers.dir_bytes(
                journals, "*.pkl")
        points, accesses = check(delivered, sweep)
        it.update(s=t1 - t_iter, window=(t_iter, t1), points=points,
                  accesses=accesses)
        return it

    if ctx.trace:
        on, off = alternate(ctx.seconds, iteration)
        extra["sim.cache.quarantined"] = len(list(
            (root / "simcache").glob("*.corrupt")))
        extra["trace.overhead_ratio"] = overhead_ratio(on, off)
        windows = [u["window"] for u in on]
        out.layers = layers.per_layer_metrics(ctx.tracer, windows, extra)
        out.origin = windows[0][0]
    else:
        # The probe runs between iterations, while no pool is up.
        its = []
        while sum(i["s"] for i in its) < ctx.seconds:
            speed.sample()
            its.append(iteration(False))
        speed.sample()

        def ref(kind):
            """(end, reference seconds) of every sample of *kind*."""
            return [(t, s * speed.scale(t - s, t))
                    for i in its for t, s in i[kind]]

        hits = ref("hit")
        fresh = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in prefills]
        rates = [(i["points"], i["accesses"],
                  i["s"] * speed.scale(*i["window"])) for i in its]
        out.detail = {kind: [s for i in its for s in i[kind]]
                      for kind in ("batch", "submit", "hit")}
        out.detail.update(prefill=prefills, probes=speed.samples)

        slo = "warm-sweep"
        out.e2e = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "accesses_per_s": statistics.median(a / s for _, a, s in rates),
            "points_per_s": statistics.median(p / s for p, _, s in rates),
            **latency_metrics("batch", windows_of(ref("batch"))),
            **latency_metrics("submit", windows_of(ref("submit"))),
            **latency_metrics("hit", windows_of(hits)),
            # Two set-ups are too few windows: one pool of samples.
            **latency_metrics("fresh", [fresh]),
            "slo_ok_ratio": slo_ratio(
                [(t, slo_limit(slo, "hit")) for _, t in hits]
                + [(t, slo_limit(slo, "fresh")) for t in fresh]),
        }
    out.problems = checker.problems
    return out


# ---------------------------------------------------------------------------
# served-jobs
# ---------------------------------------------------------------------------

def served_keys(apps, sizes) -> list:
    """Every (system, workload subset) of the given subset sizes."""
    return [(system, subset)
            for system in SERVED_SYSTEMS
            for k in sizes
            for subset in itertools.combinations(apps, k)]


def _start_service(store: Path, hit_keys):
    """Start a service on *store* and complete *hit_keys* on it, so
    they are in its CAS store; returns ``(server, client)``.  Its pool
    workers are pinned one to a CPU (see :func:`served_jobs`)."""
    from repro.obs.registry import MetricsRegistry
    from repro.serve.client import ServeClient
    from repro.serve.service import ThreadedServer

    server = ThreadedServer(store, pool_jobs=POOL_JOBS,
                            registry=MetricsRegistry(), pool_pin=True)
    server.start()
    try:
        client = ServeClient(port=server.port)
        for system, workloads in hit_keys:
            job = client.submit(system, list(workloads))["id"]
            _wait_terminal(client, job)
    except BaseException:
        server.stop()
        raise
    return server, client


def served_jobs(ctx: Ctx) -> Outcome:
    """The service's threads and the load generator share one CPU, and
    each of the two pool workers is pinned to its own.  Left to the
    scheduler, some whole runs came out 25-35% slower than the rest in
    every latency, with nothing in between (hit_ms_p50 2.1 against
    1.7 ms); pinned, that split went away (README.md, "Traffic
    mix")."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _served_jobs(ctx)
    finally:
        os.sched_setaffinity(0, cpus)


def _served_jobs(ctx: Ctx) -> Outcome:
    checker = Checker(ctx.seed, golden=True)
    out = Outcome()
    speed = ctx.speed
    apps = SERVED_APPS
    hit_keys = random.Random(f"hits:{ctx.seed}").sample(
        served_keys(apps, (HIT_SIZE,)), HIT_KEYS)
    fresh_keys = [k for k in served_keys(apps, FRESH_SIZES)
                  if k not in hit_keys]
    # A traced run sends the first half of the plan twice, untraced and
    # traced, each time to a service prepared the same way.
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    ticks = min(round(seconds * PLAN_RATE),
                int(len(fresh_keys) / (1 - loadgen.P_HIT)))
    plan = loadgen.schedule(ctx.seed, ticks, hit_keys, fresh_keys)

    def prepare():
        root = fresh_dir(ctx.root, "served-")
        use_cache_dir(root / "simcache")
        results = _prefill(SERVED_SYSTEMS, apps, lambda t0, t1: None,
                           speed, pin=True)
        server, client = _start_service(root / "store", hit_keys)
        return root, results, server, client

    def teardown(state):
        state[2].stop()
        shutil.rmtree(state[0], ignore_errors=True)

    setup_s, state = timed_setup(ctx, speed, SETUP_REPEATS["served-jobs"],
                                 prepare, teardown)
    root, results, server, client = state
    servers = [server]
    try:
        expected = {}
        for (abbr, system), (result, config) in results.items():
            d = digest(result, config)
            checker.check(point_id(abbr, system), d)
            expected[(abbr, system)] = d
        if ctx.trace:
            base = _drive(client, plan, None)
            server2, client2 = _start_service(root / "store-traced",
                                              hit_keys)
            servers.append(server2)
            with traced(ctx):
                timed = _drive(client2, plan, ctx.tracer)
            _check_served(client, base, expected, checker, out)
            _check_served(client2, timed, expected, checker, out)
            extra = {
                "sim.cache.store_bytes": 0,
                "sim.cache.quarantined": len(list(
                    (root / "simcache").glob("*.corrupt"))),
                "sim.journal.sidecar_bytes":
                    layers.dir_bytes(root / "store-traced", "*.pkl"),
                "serve.queue_wait_s": sum(
                    j["started_at"] - j["submitted_at"]
                    for j in timed["executed"]),
                "serve.dedup_hit_ratio": timed["dedup"] / len(timed["sent"]),
                "serve.rejected": timed["rejected"],
                "loadgen.late_ms_p90": pct(timed["late"], 90) * 1e3,
                # The same jobs ran on both sides: executor busy time.
                "trace.overhead_ratio": (sum(timed["exec"])
                                         / sum(base["exec"])),
            }
            out.layers = layers.per_layer_metrics(
                ctx.tracer, [timed["window"]], extra)
            out.origin = timed["window"][0]
        else:
            seg = _drive(client, plan, None, speed)
            _check_served(client, seg, expected, checker, out)
            out.e2e = _served_e2e(setup_s, seg, expected, speed, out.detail)
            out.detail["probes"] = speed.samples
    finally:
        for s in servers:
            s.stop()
    out.problems = checker.problems
    return out


def _wait_terminal(client, job_id: str, timeout: float = 120.0) -> dict:
    """Block on the job's long-poll event stream until it is terminal."""
    deadline = time.monotonic() + timeout
    since = 0
    while time.monotonic() < deadline:
        status = client.job(job_id).body
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        events = client.events(job_id, since=since, wait=5.0).body
        since = max([since] + [e["seq"] for e in events.get("events", [])])
    raise TimeoutError(f"job {job_id} not terminal after {timeout}s")


def _drive(client, plan, tracer, speed: Optional[HostSpeed] = None) -> dict:
    """Send *plan* from this thread in a closed loop, SEGMENT_TICKS ticks
    at a time: each request goes out as soon as the one before it is
    answered and, if it made a new job, that job has finished (a
    duplicate goes out at once, while its job is in flight).  *speed*,
    if given, is sampled between segments, while the service is idle.
    Job times are wall-clock (``time.time``) because the service stamps
    job status with it; ``wall_offset`` maps them to
    ``time.perf_counter``."""
    sent, finals = [], {}
    wall_offset = time.time() - time.perf_counter()
    t_start = time.perf_counter()
    for segment in loadgen.segments(plan, SEGMENT_TICKS):
        if speed is not None:
            speed.sample()
        t_free = time.perf_counter()   # when the previous request ended
        pending = []                   # job ids not yet waited for
        for i, req in enumerate(segment):
            t_send = time.perf_counter()
            ctx_span = tracer.span("serve.http") if tracer else nullcontext()
            with ctx_span:
                resp = client.submit(req.system, list(req.workloads))
            sent.append({"req": req, "status": resp.status,
                         "body": resp.body, "late": t_send - t_free,
                         "sent_wall": wall_offset + t_send,
                         "resp_wall": time.time()})
            if resp.status in (200, 201):
                pending.append(resp.body["id"])
            if i + 1 < len(segment) and segment[i + 1].kind == loadgen.DUP:
                continue
            for job_id in pending:
                if job_id not in finals:
                    finals[job_id] = _wait_terminal(client, job_id)
            pending.clear()
            t_free = time.perf_counter()
    if speed is not None:
        speed.sample()
    t_end = time.perf_counter()
    last_finish = max([f["finished_at"] for f in finals.values()]
                      + [s["resp_wall"] for s in sent])
    executed = [f for f in finals.values() if f["dedup"] == "new"
                and f["started_at"] is not None]
    return {
        "sent": sent,
        "finals": finals,
        "executed": executed,
        "exec": [f["finished_at"] - f["started_at"] for f in executed],
        "late": [s["late"] for s in sent],
        "window": (t_start, min(t_end, last_finish - wall_offset)),
        "wall_offset": wall_offset,
        "rejected": sum(1 for s in sent if s["status"] == 429),
        "dedup": sum(1 for s in sent if s["status"] == 200),
    }


def _check_served(client, seg, expected, checker, out) -> None:
    """Every request counts once; a refusal, a failed job or a result
    that differs from the pre-filled points counts as failed."""
    verified: dict = {}
    for s in seg["sent"]:
        out.attempted += 1
        if s["status"] not in (200, 201):
            out.failed += 1
            continue
        job_id = s["body"]["id"]
        final = seg["finals"][job_id]
        if final["state"] != "done":
            out.failed += 1
            continue
        if job_id not in verified:
            verified[job_id] = _result_matches(client, job_id, final,
                                               expected, checker)
        if not verified[job_id]:
            out.failed += 1


def _result_matches(client, job_id, final, expected, checker) -> bool:
    body = client.result(job_id).body
    system = final["request"]["system"]
    results = body.get("results", {})
    want = set(final["request"]["workloads"])
    if set(results) != want:
        checker.problems.append(f"{job_id}: wrong workloads in result")
        return False
    for abbr, entry in results.items():
        got = {"metrics": entry["metrics"], "time_s": entry["time_s"]}
        if got != expected[(abbr, system)] or not checker.check(
                point_id(abbr, system), got):
            checker.problems.append(f"{job_id}: {abbr}@{system} differs")
            return False
    return True


def _served_e2e(setup_s, seg, expected, speed: HostSpeed,
                detail=None) -> dict:
    """Latencies are windowed by send time.  Throughput is what the
    executor achieved while busy: points and accesses of the jobs it
    ran, per second of their ``started_at`` to ``finished_at``.  Every
    time is scaled to the reference host speed."""
    slo = "served-jobs"
    off = seg["wall_offset"]

    def ref(t0, t1):
        """(t0 as perf_counter, reference seconds of wall [t0, t1])."""
        return t0 - off, (t1 - t0) * speed.scale(t0 - off, t1 - off)

    submit, hit, fresh, samples = [], [], [], []
    for s in seg["sent"]:
        t_sent = s["sent_wall"]
        submit.append(ref(t_sent, s["resp_wall"]))
        if s["status"] not in (200, 201):
            samples.append((None, slo_limit(slo, "fresh")))
            continue
        final = seg["finals"][s["body"]["id"]]
        disposition = s["body"]["dedup"]
        cls = "hit" if disposition == "cached" else "fresh"
        if final["state"] != "done":
            samples.append((None, slo_limit(slo, cls)))
            continue
        t, turnaround = ref(t_sent, final["finished_at"])
        samples.append((turnaround, slo_limit(slo, cls)))
        if disposition == "cached":
            hit.append((t, turnaround))
        elif disposition == "new":
            fresh.append((t, turnaround))
    busy = []   # (started_at, (points, accesses, reference seconds))
    for f in seg["executed"]:
        system = f["request"]["system"]
        names = f["request"]["workloads"]
        t, seconds = ref(f["started_at"], f["finished_at"])
        busy.append((t, (
            len(names),
            sum(expected[(a, system)]["metrics"]["sim.accesses"]
                for a in names),
            seconds)))
    if detail is not None:
        detail.update(submit=submit, hit=hit, fresh=fresh, busy=busy)
    rates = [(sum(b[0] for b in w) / sum(b[2] for b in w),
              sum(b[1] for b in w) / sum(b[2] for b in w))
             for w in windows_of(busy)]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "accesses_per_s": statistics.median(r[1] for r in rates),
        "points_per_s": statistics.median(r[0] for r in rates),
        **latency_metrics("batch", windows_of(
            [(t, b[2]) for t, b in busy])),
        **latency_metrics("submit", windows_of(submit)),
        **latency_metrics("hit", windows_of(hit)),
        **latency_metrics("fresh", windows_of(fresh)),
        "slo_ok_ratio": slo_ratio(samples),
    }


WORKLOADS = {
    "cold-sim": cold_sim,
    "warm-sweep": warm_sweep,
    "served-jobs": served_jobs,
}
