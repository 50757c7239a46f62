"""Figure 9s: the Fig. 9 speedup comparison, by representative sampling.

Same question as :mod:`.fig9` — Streamline vs. Triangel single-core
speedup over an IP-stride baseline — but answered from sampled
execution: each (workload, prefetcher) arm simulates only the
workload's clustered representative intervals (plus bounded warm-up)
and extrapolates whole-trace IPC (see :mod:`repro.sampling`).  The
table reports sampled speedups with the share of the trace actually
simulated, so the cost/fidelity trade is visible in the artifact.

This experiment always samples; for exact results run :mod:`.fig9`.
Speedups are ratios of *estimates*: per-metric error bounds apply to
each arm's IPC (``python -m repro.sampling validate`` checks them), so
ratio errors can reach roughly twice the per-arm bound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..sampling import run_sampled
from ..sim.stats import geomean
from .common import (PREFETCHER_SPECS, STRIDE_L1, ExperimentResult,
                     env_n, experiment_config, fmt, quick_mode,
                     serve_runner, workload_set)


def _quick_workloads() -> List[str]:
    """Quick set plus the server-class rows this PR adds — fig9s is the
    cheap sweep, so it always carries the new archetypes."""
    from ..workloads import suite
    base = workload_set("quick")
    return base + [wl for wl in suite("srv") if wl not in base]


def run(n: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None) -> ExperimentResult:
    n = n or env_n(240_000)
    if workloads is None:
        workloads = _quick_workloads() if quick_mode() \
            else workload_set("full")
    runner = serve_runner()
    cfg = experiment_config()
    headers = ["workload", "triangel", "streamline", "ipc ci95",
               "sim share"]
    rows = []
    speedups = {name: [] for name in PREFETCHER_SPECS}
    for wl in workloads:
        base = run_sampled(wl, n, cfg, l1=STRIDE_L1, l2=(),
                           runner=runner)
        base_ipc = base.metrics["ipc"].estimate
        row = [wl]
        for name, pf in PREFETCHER_SPECS.items():
            est = run_sampled(wl, n, cfg, l1=STRIDE_L1, l2=(pf,),
                              runner=runner)
            speedup = est.metrics["ipc"].estimate / base_ipc \
                if base_ipc else 1.0
            speedups[name].append(speedup)
            row.append(fmt(speedup))
        rel_ci = base.metrics["ipc"].ci95 / base_ipc if base_ipc else 0.0
        row.append(f"{rel_ci:.1%}")
        row.append(f"{base.simulated_accesses / n:.1%}")
        rows.append(row)
    rows.append(["GEOMEAN",
                 *(fmt(geomean(speedups[name]) if speedups[name] else 1.0)
                   for name in PREFETCHER_SPECS), "", ""])
    # perfbench's pinned rows digest covers this text: keep it
    # byte-identical until a benchmark change re-pins the digest.
    notes = (f"sampled execution (REPRO_SAMPLING): per-arm IPC is an "
             f"extrapolated estimate at n={n}; 'sim share' is the "
             f"fraction of the trace each arm simulates, 'ipc ci95' the "
             f"baseline estimate's relative confidence interval.  For "
             f"exact results run fig9 (or REPRO_SAMPLING=0).")
    return ExperimentResult("fig9s", headers, rows, notes)


def main() -> None:
    print(run().table())


if __name__ == "__main__":
    main()
