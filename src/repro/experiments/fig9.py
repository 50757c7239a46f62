"""Figure 9: single-core speedup over an IP-stride baseline.

The paper reports Streamline 8.1% vs. Triangel 5.1% geomean over all
memory-intensive benchmarks, with per-suite breakdowns and an irregular
subset where the gap widens (17% vs. 11.5%).  This experiment reproduces
the same grouping: per-benchmark speedups, per-suite geomeans, and the
irregular subset picked by the paper's >=5%-ideal-Triage-headroom rule.

With ``REPRO_TELEMETRY=1`` each temporal configuration also runs with
the telemetry probe and the table gains a timeliness breakdown column
per prefetcher — the on-time/late/unused split of its issued prefetches
(see :mod:`repro.telemetry.lifecycle`), which is where Streamline's and
Triangel's coverage wins actually differ.  The default (telemetry off)
produces the exact same jobs and table as before, so goldens are stable.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..sim.stats import geomean
from .common import (PREFETCHER_SPECS, ExperimentResult, env_n,
                     experiment_config, fmt, irregular_subset, run_matrix,
                     serve_runner, suite_geomeans, telemetry_config,
                     workload_set)


def _timeliness(run, config: str) -> str:
    """"on/late/unused" fractions of issued, from the telemetry probe."""
    payload: Dict[str, Any] = run.probes.get(config, {}).get("telemetry", {})
    lifecycle = payload.get("lifecycle") or {}
    entry = lifecycle.get(config)
    if not entry or not entry.get("issued"):
        return "-"
    issued = entry["issued"]
    return "/".join(f"{entry[k] / issued:.2f}"
                    for k in ("on_time", "late", "unused"))


def run(n: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None) -> ExperimentResult:
    n = n or env_n()
    workloads = list(workloads or workload_set("full"))
    tcfg = telemetry_config()
    # With REPRO_SERVE_URL set, every batch goes through the job-server
    # client instead of the in-process runner — same jobs, byte-identical
    # results (see repro.serve) — making this figure a thin client.
    runner = serve_runner()
    if tcfg is None:
        runs = run_matrix(workloads, n, PREFETCHER_SPECS, runner=runner)
    else:
        runs = run_matrix(
            workloads, n, PREFETCHER_SPECS,
            config=experiment_config().scaled(telemetry=tcfg),
            probes=("telemetry",), runner=runner)
    # Memory-intensive filter (paper: >1 LLC MPKI on the baseline).
    runs = [r for r in runs if r.baseline.llc_mpki > 1.0]
    irregular = set(irregular_subset([r.workload for r in runs], n,
                                     runner=runner))

    headers = ["workload", "subset", "triangel", "streamline"]
    if tcfg is not None:
        headers += ["tri on/late/un", "sl on/late/un"]
    rows = []
    for r in runs:
        row = [r.workload,
               "irr" if r.workload in irregular else "",
               fmt(r.speedup("triangel")),
               fmt(r.speedup("streamline"))]
        if tcfg is not None:
            row += [_timeliness(r, "triangel"), _timeliness(r, "streamline")]
        rows.append(row)
    pad = [""] * (len(headers) - 4)
    for config in ("triangel", "streamline"):
        means = suite_geomeans(runs, config)
        rows.append([f"geomean[{config}]", "",
                     *(fmt(means.get(s, 1.0))
                       for s in ("spec06", "spec17")), *pad])
    tri_all = suite_geomeans(runs, "triangel")["all"]
    sl_all = suite_geomeans(runs, "streamline")["all"]
    irr_runs = [r for r in runs if r.workload in irregular]
    tri_irr = geomean(r.speedup("triangel") for r in irr_runs) \
        if irr_runs else 1.0
    sl_irr = geomean(r.speedup("streamline") for r in irr_runs) \
        if irr_runs else 1.0
    rows.append(["ALL", "", fmt(tri_all), fmt(sl_all), *pad])
    rows.append(["IRREGULAR", f"{len(irr_runs)} wl", fmt(tri_irr),
                 fmt(sl_irr), *pad])
    notes = (f"paper: Streamline 1.081 vs Triangel 1.051 (all), "
             f"1.17 vs 1.115 (irregular); measured all: "
             f"streamline {sl_all:.3f} vs triangel {tri_all:.3f} -> "
             f"{'SHAPE OK' if sl_all >= tri_all else 'SHAPE MISMATCH'}")
    if tcfg is not None:
        notes += ("\ntimeliness columns: fraction of issued prefetches "
                  "on-time / late / unused (telemetry lifecycle tracer, "
                  f"interval={tcfg.interval})")
    return ExperimentResult("fig9", headers, rows, notes)
