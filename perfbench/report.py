"""Per-layer report: self time per layer across traced runs.

Usage (from the repository root, after some ``--trace 1`` runs)::

    python3 perfbench/report.py [.perfbench-out]

Prints one Markdown table per workload: the median and quartiles,
across runs, of each layer's self time, its share of the traced wall
time, and the ``unattributed`` row.  The rows add up to the traced wall
time (see ``spans.py``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from layers import LAYERS


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_runs(out_dir: Path) -> dict:
    """workload -> list of per-layer metric dicts, one per traced run."""
    runs: dict = {}
    for path in sorted(out_dir.glob("*-trace1.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        metrics = {k: v["value"]
                   for k, v in record["result"]["metrics"].items()}
        runs.setdefault(record["workload"], []).append(metrics)
    return runs


def table(workload: str, runs: list) -> str:
    rows = [(name, metric) for name, metric in LAYERS]
    rows.append(("unattributed", "unattributed_s"))
    wall = statistics.median(r["trace.wall_s"] for r in runs)
    lines = [
        f"### {workload} ({len(runs)} traced runs, median traced wall "
        f"{wall:.3f} s)",
        "",
        "| layer | median s | q1 s | q3 s | share of wall |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, metric in rows:
        q1, med, q3 = quartiles([r[metric] for r in runs])
        lines.append(f"| {name} | {med:.4f} | {q1:.4f} | {q3:.4f} | "
                     f"{med / wall:.1%} |")
    q1, med, q3 = quartiles([r["trace.overhead_ratio"] for r in runs])
    lines.append("")
    lines.append(f"Tracing overhead (traced / untraced wall per unit of "
                 f"work): median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}.")
    return "\n".join(lines)


def main(argv: list) -> int:
    out_dir = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / ".perfbench-out"
    runs = load_runs(out_dir)
    if not runs:
        print(f"no traced runs in {out_dir}", file=sys.stderr)
        return 1
    print("\n\n".join(table(w, runs[w]) for w in sorted(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
