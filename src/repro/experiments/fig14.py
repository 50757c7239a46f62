"""Figure 14: the component ablation study.

Adds each component on top of the unoptimized stream-based prefetcher
and removes each from the full design, reporting coverage, accuracy,
speedup, and off-chip traffic -- the four panels of the paper's figure.
Triangel is included as the reference line.  Variants are addressed as
``variant:<name>`` specs so the jobs stay serializable.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.variants import named_variants
from ..runner import VARIANT_PREFIX, spec
from ..sim.stats import geomean
from .common import (ExperimentResult, env_n, experiment_config, fmt,
                     run_matrix, workload_set)


def run(n: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None) -> ExperimentResult:
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    variants = {"triangel": spec("triangel")}
    for name in named_variants():
        variants[name] = spec(VARIANT_PREFIX + name)

    runs = run_matrix(workloads, n, variants, config=config)
    rows = []
    for name in variants:
        speedups, coverages, accuracies, offchip = [], [], [], []
        for r in runs:
            res = r.results[name]
            speedups.append(res.ipc / r.baseline.ipc)
            tp = res.temporal
            coverages.append(tp.coverage if tp else 0.0)
            accuracies.append(tp.accuracy if tp else 0.0)
            offchip.append(res.offchip_bytes
                           / max(1, r.baseline.offchip_bytes))
        k = len(workloads)
        rows.append([name, fmt(sum(coverages) / k),
                     fmt(sum(accuracies) / k), fmt(geomean(speedups)),
                     fmt(sum(offchip) / k)])
    notes = ("paper: unopt already beats Triangel's coverage (+7.6 pp); "
             "MB+SA and TSP+TP-MJ are synergistic pairs; removing any "
             "component costs performance")
    return ExperimentResult("fig14", ["variant", "coverage", "accuracy",
                                      "speedup", "offchip_vs_base"],
                            rows, notes)
