#!/usr/bin/env python
"""Graceful degradation: how well does CARVE mask a sick NUMA fabric?

The paper sells CARVE as insurance against slow inter-GPU links
(Fig. 14 sweeps healthy bandwidths).  This study asks the operational
variant of that question: what happens when links *fail* at runtime —
degraded to a fraction of their bandwidth, or knocked out entirely for
a stretch of kernels?  The fault schedule is deterministic and seeded
(see ``LinkFaultConfig``), so every system sees exactly the same sick
fabric and the comparison is apples-to-apples.

Two scenarios per system:

* **degraded** — every kernel, each link independently runs at reduced
  bandwidth with some probability (flaky cables, thermal throttling);
* **outage** — one directional link is dead for the whole run; its
  traffic is rerouted through an intermediate GPU (both detour hops pay
  the bytes).

Because CARVE caches remote data in local DRAM, it sends far fewer
bytes across the fabric — so the same fault costs it far less.

Run:  python examples/fabric_fault_study.py [workload ...]

With ``--trace-dir DIR`` the study additionally re-runs the first
workload's outage scenario on both systems with full tracing enabled
and writes one Chrome ``trace_event`` file per system into *DIR*.
Open them at https://ui.perfetto.dev to compare the two fabrics side
by side — see docs/observability.md for the guided tour.
"""

import argparse
import os

from repro import PerformanceModel, baseline_config, run_workload
from repro.analysis.report import format_table
from repro.config import LinkFaultConfig, LinkFaultEvent
from repro.obs import Observability
from repro.obs.export import build_chrome_trace, write_trace
from repro.perf.model import geometric_mean

DEFAULT_WORKLOADS = ["Lulesh", "HPGMG", "XSBench", "SSSP", "bfs-road"]

#: Flaky fabric: each link, each kernel, 25% chance of running somewhere
#: in [25%, 100%) of nominal bandwidth.
DEGRADED = LinkFaultConfig(seed=42, degrade_prob=0.25, min_scale=0.25)

#: Hard outage: the 0 -> 1 link is down for the entire run.
OUTAGE = LinkFaultConfig(
    events=(LinkFaultEvent(first_kernel=0, last_kernel=10_000,
                           scale=0.0, src=0, dst=1),),
)


def geomean_time(cfg, results):
    model = PerformanceModel(cfg)
    return geometric_mean([model.total_time_s(r) for r in results.values()])


def trace_outage(workload: str, systems: dict, trace_dir: str) -> None:
    """Re-run *workload*'s outage scenario with tracing; write traces."""
    os.makedirs(trace_dir, exist_ok=True)
    print()
    print(f"Tracing {workload} under the link outage "
          f"(0 -> 1 dead) on each system:")
    for sys_name, base in systems.items():
        cfg = base.replace(link_faults=OUTAGE)
        obs = Observability(trace=True)
        result = run_workload(workload, cfg, label=f"{sys_name}/outage",
                              use_cache=False, obs=obs)
        path = os.path.join(trace_dir, f"{workload}-{sys_name}-outage"
                                       ".trace.json")
        write_trace(path, build_chrome_trace(result, cfg, obs))
        total = result.total(include_warmup=True)
        link = obs.registry.get("link.bytes")
        bytes_total = sum(link.values().values())
        print(f"  {sys_name:10s} {len(obs.tracer)} events "
              f"({obs.tracer.dropped} dropped), "
              f"remote reads {total.remote_reads:,}, "
              f"fabric bytes {bytes_total:,} -> {path}")
    print("Open the trace files at https://ui.perfetto.dev "
          "(docs/observability.md walks through the comparison).")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=None,
                    help="Table II abbreviations (default: a fixed five)")
    ap.add_argument("--trace-dir", metavar="DIR",
                    help="also trace the first workload's outage run on "
                         "each system and write Chrome traces into DIR")
    args = ap.parse_args()
    workloads = args.workloads or DEFAULT_WORKLOADS
    systems = {
        "numa-gpu": baseline_config(),
        "carve-hwc": baseline_config().with_rdc(),
    }
    scenarios = {"healthy": None, "degraded": DEGRADED, "outage": OUTAGE}

    print(f"Simulating {len(workloads)} workloads x {len(systems)} systems "
          f"x {len(scenarios)} fabric scenarios ...")
    rows = []
    slowdowns = {}
    for sys_name, base in systems.items():
        times = {}
        for scen_name, faults in scenarios.items():
            cfg = base.replace(link_faults=faults)
            results = {
                w: run_workload(w, cfg, label=f"{sys_name}/{scen_name}")
                for w in workloads
            }
            times[scen_name] = geomean_time(cfg, results)
        slowdowns[sys_name] = {
            s: times[s] / times["healthy"] for s in scenarios
        }
        rows.append([
            sys_name,
            f"{slowdowns[sys_name]['degraded']:.2f}x",
            f"{slowdowns[sys_name]['outage']:.2f}x",
        ])

    print()
    print(format_table(
        ["system", "degraded fabric", "link outage"],
        rows,
        title="Geomean slowdown vs the same system on a healthy fabric",
    ))

    print()
    for scen in ("degraded", "outage"):
        numa = slowdowns["numa-gpu"][scen]
        carve = slowdowns["carve-hwc"][scen]
        masked = (numa - carve) / (numa - 1.0) if numa > 1.0 else 0.0
        print(f"{scen}: NUMA-GPU slows {numa:.2f}x, CARVE {carve:.2f}x "
              f"— the remote-data cache masks {masked:.0%} of the fault's "
              f"cost.")

    if args.trace_dir:
        trace_outage(workloads[0], systems, args.trace_dir)


if __name__ == "__main__":
    main()
