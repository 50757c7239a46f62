"""Figure 9: single-core speedup over an IP-stride baseline.

The paper reports Streamline 8.1% vs. Triangel 5.1% geomean over all
memory-intensive benchmarks, with per-suite breakdowns and an irregular
subset where the gap widens (17% vs. 11.5%).  This experiment reproduces
the same grouping: per-benchmark speedups, per-suite geomeans, and the
irregular subset picked by the paper's >=5%-ideal-Triage-headroom rule.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runner import spec
from ..sim.stats import geomean
from .common import (PREFETCHER_SPECS, ExperimentResult, env_n, fmt,
                     irregular_subset, run_matrix, suite_geomeans,
                     workload_set)


def run(n: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None) -> ExperimentResult:
    n = n or env_n()
    workloads = list(workloads or workload_set("full"))
    # One batch: the ideal-Triage oracle runs beside the matrix, so the
    # pool never waits on a second, short batch.
    runs = run_matrix(workloads, n, {**PREFETCHER_SPECS,
                                     "ideal-triage": spec("ideal-triage")})
    # Memory-intensive filter (paper: >1 LLC MPKI on the baseline).
    runs = [r for r in runs if r.baseline.llc_mpki > 1.0]
    irregular = set(irregular_subset(runs))

    headers = ["workload", "subset", "triangel", "streamline"]
    rows = [[r.workload,
             "irr" if r.workload in irregular else "",
             fmt(r.speedup("triangel")),
             fmt(r.speedup("streamline"))] for r in runs]
    for config in ("triangel", "streamline"):
        means = suite_geomeans(runs, config)
        rows.append([f"geomean[{config}]", "",
                     *(fmt(means.get(s, 1.0))
                       for s in ("spec06", "spec17"))])
    tri_all = suite_geomeans(runs, "triangel")["all"]
    sl_all = suite_geomeans(runs, "streamline")["all"]
    irr_runs = [r for r in runs if r.workload in irregular]
    tri_irr = geomean(r.speedup("triangel") for r in irr_runs) \
        if irr_runs else 1.0
    sl_irr = geomean(r.speedup("streamline") for r in irr_runs) \
        if irr_runs else 1.0
    rows.append(["ALL", "", fmt(tri_all), fmt(sl_all)])
    rows.append(["IRREGULAR", f"{len(irr_runs)} wl", fmt(tri_irr),
                 fmt(sl_irr)])
    notes = (f"paper: Streamline 1.081 vs Triangel 1.051 (all), "
             f"1.17 vs 1.115 (irregular); measured all: "
             f"streamline {sl_all:.3f} vs triangel {tri_all:.3f} -> "
             f"{'SHAPE OK' if sl_all >= tri_all else 'SHAPE MISMATCH'}")
    return ExperimentResult("fig9", headers, rows, notes)
