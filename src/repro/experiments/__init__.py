"""Experiment suite: one module per paper table/figure + ablations.

See DESIGN.md §4 for the experiment index.  Every experiment asserts
simulated-vs-interpreted equivalence before reporting a number.
"""

from . import (
    ablation_adaptive,
    ablation_multipair,
    ablation_queue_depth,
    ablation_throughput,
    chaos,
    chaos_serve,
    fig12_speedup,
    fig13_latency,
    fig14_speculation,
    imbalance,
    table1_hotloops,
    table2_apps,
    table3_stats,
)
from .common import (
    ExpConfig,
    KernelRun,
    amean,
    geomean,
    run_kernel,
    run_table1,
    run_table1_grid,
)

#: experiment id -> (module, paper artifact)
REGISTRY = {
    "E1": (table1_hotloops, "Table I + §IV taxonomy"),
    "E2": (fig12_speedup, "Figure 12"),
    "E3": (table2_apps, "Table II"),
    "E4": (table3_stats, "Table III"),
    "E5": (fig13_latency, "Figure 13"),
    "E6": (fig14_speculation, "Figure 14"),
    "E7": (ablation_throughput, "§III-B throughput heuristic"),
    "E8": (ablation_queue_depth, "queue-depth sweep (extension)"),
    "E9": (ablation_multipair, "§III-B multi-pair merge"),
    "E10": (ablation_adaptive, "latency-adaptive compilation (extension)"),
    "E11": (chaos, "fault-injection campaign (robustness extension)"),
    "E12": (chaos_serve, "chaos-serve campaign (crash-safety extension)"),
    "E13": (imbalance, "imbalance chaos campaign (adaptive extension)"),
}


def run_all(trip: int = 64) -> dict[str, str]:
    """Run every experiment and return formatted reports keyed by id."""
    out: dict[str, str] = {}
    for eid, (mod, _title) in REGISTRY.items():
        # E1 is trip-free by design; E12 sizes its own (tiny) cells
        res = mod.run() if eid in ("E1", "E12") else mod.run(trip=trip)
        out[eid] = mod.format_result(res)
    return out


__all__ = [
    "ExpConfig", "KernelRun", "REGISTRY", "amean", "geomean", "run_all",
    "run_kernel", "run_table1", "run_table1_grid",
]
