"""Figure 13: storage efficiency, metadata traffic, correlation hit rate.

* 13a - speedup vs. metadata capacity.  The paper's headline: Streamline
  at 0.5MB matches/beats Triangel at 1MB, and beats Triangel-Ideal
  (dedicated 1MB outside the LLC) at equal capacity.
* 13b - metadata traffic vs. capacity (paper: 61% of Triangel's at 1MB,
  down to 13% at 0.125MB thanks to filtered indexing).
* 13c - correlation hit rate: TP-Mockingjay vs. SRRIP replacement.

Capacities are expressed in paper-equivalent labels; on the 1/4-scale
hierarchy "1MB" means half the (scaled) LLC, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..runner import PrefetcherSpec, SimJob, spec
from ..sim.stats import geomean
from .common import (STRIDE_L1, ExperimentResult, env_n,
                     experiment_config, fmt, job_runner, run_matrix,
                     workload_set)

#: label -> (streamline every_nth, triangel ways); "1MB" = half the LLC.
SIZES: Dict[str, Tuple[int, int]] = {
    "0.25MB": (4, 2),
    "0.5MB": (2, 4),
    "1MB": (1, 8),
}


def _config_specs(label: str) -> Dict[str, PrefetcherSpec]:
    every_nth, ways = SIZES[label]
    return {
        f"triangel@{label}": spec("triangel", initial_ways=ways,
                                  adaptive=False),
        f"streamline@{label}": spec("streamline", dynamic=False,
                                    initial_every_nth=every_nth),
    }


def run_fig13a(n: Optional[int] = None,
               workloads: Optional[Sequence[str]] = None
               ) -> ExperimentResult:
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    configs: Dict[str, PrefetcherSpec] = {}
    for label in SIZES:
        configs.update(_config_specs(label))
    configs["triangel-ideal@1MB"] = spec("triangel", initial_ways=8,
                                         adaptive=False, dedicated=True)
    runs = run_matrix(workloads, n, configs, config=config)
    speedups = {name: [r.speedup(name) for r in runs] for name in configs}
    rows = [[name, fmt(geomean(vals))]
            for name, vals in sorted(speedups.items())]
    sl_half = geomean(speedups["streamline@0.5MB"])
    tri_full = geomean(speedups["triangel@1MB"])
    notes = (f"paper claim: streamline@0.5MB >= triangel@1MB; measured "
             f"{sl_half:.3f} vs {tri_full:.3f} -> "
             f"{'SHAPE OK' if sl_half >= tri_full - 0.01 else 'MISMATCH'}")
    return ExperimentResult("fig13a", ["config", "speedup"], rows, notes)


def run_fig13b(n: Optional[int] = None,
               workloads: Optional[Sequence[str]] = None
               ) -> ExperimentResult:
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    runner = job_runner()
    jobs = []
    for label in SIZES:
        for name, s in _config_specs(label).items():
            jobs += [SimJob.single(wl, n, config, l1=STRIDE_L1, l2=(s,))
                     for wl in workloads]
    results = iter(runner.run(jobs))
    rows = []
    for label in SIZES:
        traffic = {"triangel": 0, "streamline": 0}
        for name in _config_specs(label):
            key = "triangel" if name.startswith("triangel") \
                else "streamline"
            for _ in workloads:
                tp = next(results).single.temporal
                traffic[key] += tp.metadata_traffic_bytes
        ratio = (traffic["streamline"] / traffic["triangel"]
                 if traffic["triangel"] else 0.0)
        rows.append([label, traffic["triangel"] // 1024,
                     traffic["streamline"] // 1024, fmt(ratio)])
    notes = ("paper: streamline traffic is 61% of triangel at 1MB and "
             "13% at 0.125MB (filtering grows as the store shrinks)")
    return ExperimentResult("fig13b", ["size", "triangel_KB",
                                       "streamline_KB", "ratio"], rows,
                            notes)


def run_fig13c(n: Optional[int] = None,
               workloads: Optional[Sequence[str]] = None,
               meta_ways: int = 1) -> ExperimentResult:
    """Correlation (store) hit rate under TP-Mockingjay vs. SRRIP.

    Measured with a single metadata way per set: replacement policies
    only differentiate under per-set capacity pressure.  (Filtered
    indexing scales the trigger population with the set count, so
    shrinking by sets never pressures replacement -- shrinking the ways
    does, which is also the Fig. 15 "hybrid" regime.)
    """
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    runner = job_runner()
    policies = ("tp-mockingjay", "srrip")
    jobs = []
    for wl in workloads:
        for policy in policies:
            sl = spec("streamline", replacement=policy, dynamic=False,
                      initial_every_nth=1, meta_ways=meta_ways)
            jobs.append(SimJob.single(wl, n, config, l1=STRIDE_L1,
                                      l2=(sl,), probes=("store_stats",)))
    results = iter(runner.run(jobs))
    rows = []
    totals = {"tp-mockingjay": [0, 0], "srrip": [0, 0]}
    for wl in workloads:
        row = [wl]
        for policy in policies:
            stats = next(results).probes["store_stats"]
            rate = stats["hits"] / stats["lookups"] \
                if stats["lookups"] else 0.0
            row.append(fmt(rate))
            totals[policy][0] += stats["hits"]
            totals[policy][1] += stats["lookups"]
        rows.append(row)
    overall = {p: (h / max(1, l)) for p, (h, l) in totals.items()}
    rows.append(["OVERALL", fmt(overall["tp-mockingjay"]),
                 fmt(overall["srrip"])])
    notes = (f"TP-Mockingjay vs SRRIP correlation hit rate: "
             f"{overall['tp-mockingjay']:.3f} vs {overall['srrip']:.3f} "
             f"(paper: TP-Mockingjay is +21.5 pp over Triangel's SRRIP)")
    return ExperimentResult("fig13c", ["workload", "tp-mockingjay",
                                       "srrip"], rows, notes)
