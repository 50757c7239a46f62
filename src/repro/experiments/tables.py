"""Tables I and II, plus the Section V-D3 offline TP-MIN comparison.

Table I is derived analytically from the partitioning mechanics (see
:mod:`repro.analysis.partition_table`); Table II is the simulated system
configuration; the TP-MIN experiment replays correlation traces through
the two offline oracles.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.partition_table import build_table
from ..analysis.tpmin import compare
from ..runner import get_trace
from ..workloads import DEFAULT_SEED
from .common import (ExperimentResult, env_n, experiment_config, fmt,
                     workload_set)


def run_table1() -> ExperimentResult:
    rows = []
    for r in build_table():
        rows.append([r.code,
                     "X" if r.low_assoc_small else "ok",
                     "X" if r.low_assoc_big else "ok",
                     "cheap" if r.cheap_repartitioning else "EXPENSIVE"])
    notes = ("paper's Table I: only FTS avoids low associativity at both "
             "sizes AND expensive repartitioning")
    return ExperimentResult("table1", ["scheme", "small_assoc",
                                       "big_assoc", "repartitioning"],
                            rows, notes)


def run_table2() -> ExperimentResult:
    cfg = experiment_config()
    full = experiment_config().scaled(
        l1d_size=48 * 1024, l2_size=512 * 1024,
        llc_size_per_core=2 * 1024 * 1024)
    rows = [["scaled (experiments)", cfg.table().replace("\n", " | ")],
            ["paper (Table II)", full.table().replace("\n", " | ")]]
    return ExperimentResult("table2", ["system", "parameters"], rows)


def run_tpmin(n: Optional[int] = None,
              capacities: Sequence[int] = (512, 2048, 8192),
              workloads: Optional[Sequence[str]] = None
              ) -> ExperimentResult:
    """Offline MIN vs. TP-MIN correlation hit rates (Section V-D3)."""
    n = n or env_n(30_000)
    workloads = list(workloads or workload_set("component"))
    rows = []
    for wl in workloads:
        trace = get_trace(wl, n, DEFAULT_SEED)
        for cap in capacities:
            res = compare(trace, cap)
            m, t = res["min"], res["tp-min"]
            rows.append([wl, cap, fmt(m.trigger_hit_rate),
                         fmt(m.correlation_hit_rate),
                         fmt(t.correlation_hit_rate),
                         fmt(t.correlation_hit_rate
                             - m.correlation_hit_rate)])
    notes = ("paper: TP-MIN improves correlation hit rate by +9.3 pp "
             "over trigger-based MIN (Streamline variants)")
    return ExperimentResult(
        "tpmin", ["workload", "capacity", "min_trigger_hits",
                  "min_corr_hits", "tpmin_corr_hits", "delta"], rows,
        notes)
