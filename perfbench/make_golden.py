"""Regenerate ``golden.json``: default-seed digests from the reference engine.

Usage (from the repository root; about two minutes)::

    python3 perfbench/make_golden.py

Every point any workload delivers on the default seed is simulated with
``ENGINE_REFERENCE`` and stored as ``summarize_result`` plus modelled
``time_s``.  The baseline cells (carve-hwc and numa-gpu x Lulesh and
Euler) are included and must agree with ``baselines/``; the script
refuses to write a file that does not.  Regenerate only when the
simulator's results change on purpose (a ``CODE_VERSION`` bump).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

#: The committed baseline cells, cross-checked against ``baselines/``.
BASELINE_CELLS = [(abbr, system) for abbr in ("Lulesh", "Euler")
                  for system in ("numa-gpu", "carve-hwc")]


def default_points() -> dict:
    """point id -> (spec, system) for every default-seed point."""
    from repro.sim.experiments import experiment_configs
    from repro.workloads import suite

    points = {}
    for abbr, system, spec in workloads.cold_specs(checks.DEFAULT_SEED):
        points[checks.point_id(abbr, system)] = (spec, system)
    cells = [(a, s) for a in workloads.WARM_APPS for s in experiment_configs()]
    cells += [(a, s) for a in workloads.SERVED_APPS
              for s in workloads.SERVED_SYSTEMS]
    cells += BASELINE_CELLS
    for abbr, system in cells:
        points[checks.point_id(abbr, system)] = (suite.get(abbr), system)
    return points


def main() -> int:
    from repro.sim.cache import CODE_VERSION
    from repro.sim.experiments import config_for

    golden = {"seed": checks.DEFAULT_SEED, "code_version": CODE_VERSION,
              "engine": "reference", "points": {}}
    for pid, (spec, system) in sorted(default_points().items()):
        golden["points"][pid] = checks.reference_digest(
            spec, config_for(system), system)
        print(pid, file=sys.stderr)
    problems = checks.baseline_mismatches(golden, ROOT / "baselines")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    checks.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
