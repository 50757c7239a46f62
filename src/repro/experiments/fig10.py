"""Figure 10: multi-core scaling, per-mix wins, bandwidth, coverage,
accuracy, and degree sensitivity.

* 10a - geomean weighted speedup over the stride baseline for 1/2/4/8
  cores (paper: Streamline beats Triangel by 7.2/6.9/6.7 pp).
* 10b - per-mix S-curve at 4 cores (paper: Streamline wins 77% of
  mixes).
* 10c - 8-core speedup across DRAM bandwidth scales.
* 10d/e - prefetch coverage (+12.5 pp) and accuracy (+3.6 pp).
* 10f - speedup vs. maximum prefetch degree (Streamline peaks at its
  stream length; Triangel is degree-insensitive).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runner import spec
from ..sim.stats import geomean
from .common import (PREFETCHER_SPECS, ExperimentResult, env_n,
                     experiment_config, fmt, quick_mode, run_matrix,
                     run_mixes, workload_set)


def run_fig10a(n_per_core: Optional[int] = None,
               mix_count: Optional[int] = None,
               core_counts: Sequence[int] = (1, 2, 4, 8)
               ) -> ExperimentResult:
    n = n_per_core or env_n(50_000)
    mixes = mix_count or (2 if quick_mode() else 4)
    rows = []
    for cores in core_counts:
        per_mix = run_mixes(cores, mixes, n, PREFETCHER_SPECS)
        tri = geomean(per_mix["triangel"])
        sl = geomean(per_mix["streamline"])
        rows.append([cores, fmt(tri), fmt(sl), fmt(sl - tri)])
    notes = ("paper deltas (streamline - triangel): "
             "+0.030/+0.072/+0.069/+0.067 for 1/2/4/8 cores")
    return ExperimentResult("fig10a", ["cores", "triangel", "streamline",
                                       "delta"], rows, notes)


def run_fig10b(n_per_core: Optional[int] = None,
               mix_count: Optional[int] = None) -> ExperimentResult:
    n = n_per_core or env_n(50_000)
    mixes = mix_count or (4 if quick_mode() else 8)
    per_mix = run_mixes(4, mixes, n, PREFETCHER_SPECS)
    pairs = sorted(zip(per_mix["streamline"], per_mix["triangel"]),
                   key=lambda p: p[0] - p[1])
    rows = [[i, fmt(sl), fmt(tri), fmt(sl - tri)]
            for i, (sl, tri) in enumerate(pairs)]
    wins = sum(1 for sl, tri in pairs if sl > tri) / len(pairs)
    notes = (f"streamline wins {wins:.0%} of {len(pairs)} 4-core mixes "
             f"(paper: 77%)")
    return ExperimentResult("fig10b", ["mix", "streamline", "triangel",
                                       "delta"], rows, notes)


def run_fig10c(n_per_core: Optional[int] = None,
               mix_count: Optional[int] = None,
               scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
               cores: int = 4) -> ExperimentResult:
    """Speedup vs. DRAM bandwidth (paper uses an 8-core system; the
    default here is 4-core to keep the Python engine tractable --
    pass ``cores=8`` for the paper's setup)."""
    n = n_per_core or env_n(40_000)
    mixes = mix_count or (2 if quick_mode() else 3)
    rows = []
    for scale in scales:
        per_mix = run_mixes(
            cores, mixes, n, PREFETCHER_SPECS,
            config=experiment_config(num_cores=cores,
                                     dram_bandwidth_scale=scale),
            iso_config=experiment_config(num_cores=1,
                                         dram_bandwidth_scale=scale))
        rows.append([scale, fmt(geomean(per_mix["triangel"])),
                     fmt(geomean(per_mix["streamline"]))])
    notes = ("paper: Streamline holds a 1.1-3.3 pp margin across "
             "bandwidth levels")
    return ExperimentResult("fig10c", ["bw_scale", "triangel",
                                       "streamline"], rows, notes)


def run_fig10de(n: Optional[int] = None,
                workloads: Optional[Sequence[str]] = None
                ) -> ExperimentResult:
    n = n or env_n()
    workloads = list(workloads or workload_set("full"))
    runs = run_matrix(workloads, n, PREFETCHER_SPECS)
    runs = [r for r in runs if r.baseline.llc_mpki > 1.0]
    rows = []
    sums = {"triangel": [0.0, 0.0], "streamline": [0.0, 0.0]}
    for r in runs:
        row = [r.workload]
        for config in ("triangel", "streamline"):
            tp = r.results[config].temporal
            row += [fmt(tp.coverage), fmt(tp.accuracy)]
            sums[config][0] += tp.coverage
            sums[config][1] += tp.accuracy
        rows.append(row)
    k = len(runs)
    rows.append(["MEAN", fmt(sums["triangel"][0] / k),
                 fmt(sums["triangel"][1] / k),
                 fmt(sums["streamline"][0] / k),
                 fmt(sums["streamline"][1] / k)])
    d_cov = (sums["streamline"][0] - sums["triangel"][0]) / k
    d_acc = (sums["streamline"][1] - sums["triangel"][1]) / k
    notes = (f"coverage delta {d_cov:+.3f} (paper +0.125), "
             f"accuracy delta {d_acc:+.3f} (paper +0.036)")
    return ExperimentResult(
        "fig10de", ["workload", "tri_cov", "tri_acc", "sl_cov",
                    "sl_acc"], rows, notes)


def run_fig10f(n: Optional[int] = None,
               degrees: Sequence[int] = (1, 2, 4, 8),
               workloads: Optional[Sequence[str]] = None
               ) -> ExperimentResult:
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    rows = []
    for degree in degrees:
        configs = {"triangel": spec("triangel", degree=degree),
                   "streamline": spec("streamline", degree=degree)}
        runs = run_matrix(workloads, n, configs, config=config)
        rows.append([degree,
                     fmt(geomean(r.speedup("triangel") for r in runs)),
                     fmt(geomean(r.speedup("streamline")
                                 for r in runs))])
    notes = ("paper: Streamline peaks at degree 4 (its stream length); "
             "Triangel is largely insensitive")
    return ExperimentResult("fig10f", ["max_degree", "triangel",
                                       "streamline"], rows, notes)
