"""Correctness: golden digests, the reference engine and baselines.

A point's *digest* is ``summarize_result`` of its ``RunResult`` plus its
modelled ``time_s``.  Simulated statistics are checked for identity,
never gated as speed:

* every point whose inputs are the suite's own must equal the committed
  ``golden.json``, which ``make_golden.py`` computed once with
  ``ENGINE_REFERENCE``.  That is every point of warm-sweep and
  served-jobs, and cold-sim's points on the default seed;
* cold-sim on any other seed re-seeds its traces, so a seeded subset of
  its points is re-simulated with ``ENGINE_REFERENCE`` after the timed
  window and must match;
* every delivery of a point must match the first one.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The seed on which cold-sim simulates the suite's own traces.
DEFAULT_SEED = 1

#: Keys of ``summarize_result`` that a committed baseline record holds
#: under ``deterministic`` (the rest name the run, not its counters).
_RUN_LABEL_KEYS = ("workload", "config")


def point_id(abbr: str, system: str) -> str:
    return f"{abbr}@{system}"


def digest(result, config=None, time_s=None) -> dict:
    """What must match: the counter summary and the modelled time
    (priced here under *config*, or as the caller already priced it)."""
    from repro.obs.summary import summarize_result
    from repro.sim.driver import time_of

    if time_s is None:
        time_s = time_of(result, config)
    return {"metrics": summarize_result(result), "time_s": time_s}


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def reference_digest(spec, config, label: str) -> dict:
    """Re-simulate one point with the reference engine (no cache)."""
    from repro.numa.system import ENGINE_REFERENCE
    from repro.sim.driver import run_workload

    result = run_workload(spec, config, label=label, use_cache=False,
                          engine=ENGINE_REFERENCE)
    return digest(result, config)


class Checker:
    """Counts and explains every mismatch seen during one run."""

    def __init__(self, seed: int, golden: bool) -> None:
        """*golden*: the run's points are the suite's own, so the
        committed golden digests apply to them."""
        self.seed = seed
        self.golden = load_golden()["points"] if golden else None
        self.first: dict[str, dict] = {}
        self.problems: list[str] = []

    def check(self, pid: str, got: dict) -> bool:
        """True when *got* matches the point's expected digest."""
        want = self.first.setdefault(pid, got)
        ok = got == want
        if ok and self.golden is not None:
            ok = got == self.golden.get(pid)
            if not ok:
                self.problems.append(f"{pid}: digest differs from golden")
                return False
        if not ok:
            self.problems.append(f"{pid}: digest differs between deliveries")
        return ok

    def check_reference(self, points: dict, k: int = 1) -> int:
        """Where no golden digest applies, re-run *k* seeded points with
        the reference engine; returns how many mismatched.

        *points* maps point id to ``(spec, config, label)``; each id
        must already have been checked once (its first delivery is the
        value compared).
        """
        if self.golden is not None:
            return 0
        rng = random.Random(f"reference:{self.seed}")
        bad = 0
        for pid in rng.sample(sorted(points), min(k, len(points))):
            spec, config, label = points[pid]
            if reference_digest(spec, config, label) != self.first.get(pid):
                self.problems.append(
                    f"{pid}: differs from ENGINE_REFERENCE")
                bad += 1
        return bad


def baseline_mismatches(golden: dict, baselines_dir: Path) -> list[str]:
    """Cells of *golden* that disagree with ``baselines/<system>/<app>``.

    Returns one message per disagreeing shared cell; a golden file that
    shares no cell with the baselines is itself reported.
    """
    problems = []
    shared = 0
    for pid, entry in sorted(golden["points"].items()):
        abbr, system = pid.split("@")
        path = baselines_dir / system / f"{abbr}.json"
        if not path.exists():
            continue
        shared += 1
        record = json.loads(path.read_text(encoding="utf-8"))
        want = record["deterministic"]
        got = {k: v for k, v in entry["metrics"].items()
               if k not in _RUN_LABEL_KEYS}
        if got != want:
            problems.append(f"{pid}: golden counters differ from {path}")
    if not shared:
        problems.append("golden file shares no cell with the baselines")
    return problems
