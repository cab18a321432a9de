"""BENCHMARK.json, the metric tables and the golden file agree."""

import json
import re
from pathlib import Path

from checks import baseline_mismatches, load_golden
from layers import PER_LAYER_UNITS
from run import E2E_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_metric_name_is_well_formed():
    names = list(E2E_UNITS) + list(PER_LAYER_UNITS)
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert names and all(NAME.fullmatch(n) for n in names)
    assert len(set(E2E_UNITS) | set(PER_LAYER_UNITS)) == \
        len(E2E_UNITS) + len(PER_LAYER_UNITS)


def test_benchmark_json_lists_what_the_code_prints():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        PER_LAYER_UNITS


def test_golden_agrees_with_committed_baselines():
    assert baseline_mismatches(load_golden(), ROOT / "baselines") == []
