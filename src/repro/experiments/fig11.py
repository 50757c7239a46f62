"""Figure 11: interaction with aggressive regular prefetchers.

* 11a - single-core with Berti in the L1D: Streamline still beats both
  Triangel and Berti-alone (paper: 22% vs 20.1% vs 19.1%).
* 11b - multi-core with Berti: Triangel's benefit evaporates while
  Streamline keeps a 3.8-4.1 pp margin.
* 11c - with L2 regular prefetchers (IPCP / Bingo / SPP-PPF) alongside
  the temporal prefetcher.
* 11d - the added prefetch coverage over each regular baseline
  (paper: Streamline adds about twice Triangel's).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..runner import PrefetcherSpec, SimJob, spec
from ..sim.stats import geomean
from .common import (BERTI_L1, PREFETCHER_SPECS, STRIDE_L1,
                     ExperimentResult, env_n, experiment_config, fmt,
                     job_runner, quick_mode, run_mixes, workload_set)

L2_REGULARS: Dict[str, PrefetcherSpec] = {
    "ipcp": spec("ipcp"),
    "bingo": spec("bingo"),
    "spp-ppf": spec("spp-ppf"),
}


def run_fig11a(n: Optional[int] = None,
               workloads: Optional[Sequence[str]] = None
               ) -> ExperimentResult:
    """Single-core, Berti L1D baseline."""
    n = n or env_n()
    workloads = list(workloads or workload_set("full"))
    config = experiment_config()
    runner = job_runner()
    # Batch 1: stride baselines (the memory-intensity filter).
    stride_runs = runner.run([SimJob.single(wl, n, config, l1=STRIDE_L1)
                              for wl in workloads])
    intensive = [(wl, r.single) for wl, r in zip(workloads, stride_runs)
                 if r.single.llc_mpki > 1.0]
    # Batch 2: Berti alone + Berti+temporal for the survivors.
    jobs = []
    for wl, _ in intensive:
        jobs.append(SimJob.single(wl, n, config, l1=BERTI_L1))
        for s in PREFETCHER_SPECS.values():
            jobs.append(SimJob.single(wl, n, config, l1=BERTI_L1,
                                      l2=(s,)))
    results = iter(runner.run(jobs))
    rows = []
    speedups = {"berti": [], "triangel": [], "streamline": []}
    for wl, stride_base in intensive:
        berti_only = next(results).single
        row = [wl, fmt(berti_only.ipc / stride_base.ipc)]
        speedups["berti"].append(berti_only.ipc / stride_base.ipc)
        for name in PREFETCHER_SPECS:
            res = next(results).single
            row.append(fmt(res.ipc / stride_base.ipc))
            speedups[name].append(res.ipc / stride_base.ipc)
        rows.append(row)
    rows.append(["GEOMEAN", *(fmt(geomean(speedups[k]))
                              for k in ("berti", "triangel",
                                        "streamline"))])
    notes = ("paper: streamline 1.22 > triangel 1.201 > berti 1.191 "
             "(all over the stride baseline)")
    return ExperimentResult("fig11a", ["workload", "berti",
                                       "berti+triangel",
                                       "berti+streamline"], rows, notes)


def run_fig11b(n_per_core: Optional[int] = None,
               mix_count: Optional[int] = None,
               core_counts: Sequence[int] = (2, 4)) -> ExperimentResult:
    """Multi-core with Berti in the L1D."""
    n = n_per_core or env_n(50_000)
    mixes = mix_count or (2 if quick_mode() else 3)
    rows = []
    for cores in core_counts:
        per_mix = run_mixes(cores, mixes, n, PREFETCHER_SPECS,
                            l1=BERTI_L1)
        tri = geomean(per_mix["triangel"])
        sl = geomean(per_mix["streamline"])
        rows.append([cores, fmt(tri), fmt(sl), fmt(sl - tri)])
    notes = ("paper: with Berti, Triangel adds ~nothing multi-core while "
             "Streamline keeps +3.8-4.1 pp")
    return ExperimentResult("fig11b", ["cores", "triangel", "streamline",
                                       "delta"], rows, notes)


def run_fig11cd(n: Optional[int] = None,
                workloads: Optional[Sequence[str]] = None
                ) -> ExperimentResult:
    """L2 regular prefetchers with and without a temporal prefetcher."""
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("quick"))
    config = experiment_config()
    runner = job_runner()
    jobs = []
    for reg in L2_REGULARS.values():
        for wl in workloads:
            jobs.append(SimJob.single(wl, n, config, l1=STRIDE_L1))
            jobs.append(SimJob.single(wl, n, config, l1=STRIDE_L1,
                                      l2=(reg,)))
            for s in PREFETCHER_SPECS.values():
                jobs.append(SimJob.single(wl, n, config, l1=STRIDE_L1,
                                          l2=(reg, s)))
    results = iter(runner.run(jobs))
    rows = []
    for reg_name in L2_REGULARS:
        speedups = {"alone": [], "triangel": [], "streamline": []}
        coverages = {"triangel": [], "streamline": []}
        for _ in workloads:
            base = next(results).single
            alone = next(results).single
            speedups["alone"].append(alone.ipc / base.ipc)
            for name in PREFETCHER_SPECS:
                res = next(results).single
                speedups[name].append(res.ipc / base.ipc)
                tp = res.temporal
                coverages[name].append(tp.coverage if tp else 0.0)
        rows.append([reg_name, fmt(geomean(speedups["alone"])),
                     fmt(geomean(speedups["triangel"])),
                     fmt(geomean(speedups["streamline"])),
                     fmt(sum(coverages["triangel"])
                         / len(coverages["triangel"])),
                     fmt(sum(coverages["streamline"])
                         / len(coverages["streamline"]))])
    notes = ("paper: streamline beats triangel by 1.1/2.4/1.0 pp over "
             "IPCP/Bingo/SPP-PPF and adds ~2x the coverage (fig 11d)")
    return ExperimentResult(
        "fig11cd", ["l2_prefetcher", "alone", "+triangel", "+streamline",
                    "tri_added_cov", "sl_added_cov"], rows, notes)
