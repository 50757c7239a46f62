"""Figure 12: resolving the stream-format's own problems.

* 12a - stream-length sweep: correlations/block, store hit rate (the
  missed-trigger proxy), coverage, and speedup.  The paper finds length
  4 the inflection point: 16 correlations/block with a stable
  missed-trigger rate, peaking coverage.
* 12b - metadata redundancy with and without stream alignment (paper:
  alignment halves redundancy; ~31% of what remains is benign).
* 12c - metadata-buffer size sweep: alignment rate and coverage (paper:
  3 entries align 67% and saturate coverage).

* 12ts - interval time-series (plot data): per-interval misses,
  prefetch traffic, metadata-store occupancy, and timeliness over the
  run, via the telemetry subsystem.  Not a paper figure; it supplies
  the when-and-why behind 12a-c's end-of-run scalars.

Component statistics (store hit rates, alignment counters, redundancy)
are collected by named probes that run inside the worker next to the
simulation; see :mod:`repro.runner.probes`.  The interval data comes
from the ``telemetry`` probe (:mod:`repro.telemetry`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.stream_entry import ENTRIES_PER_BLOCK, correlations_per_block
from ..runner import SimJob, spec
from ..sim.stats import geomean
from ..telemetry import TelemetryConfig
from .common import (STRIDE_L1, ExperimentResult, env_n,
                     experiment_config, fmt, job_runner, workload_set)


def run_fig12a(n: Optional[int] = None,
               lengths: Sequence[int] = (2, 3, 4, 5, 8, 16),
               workloads: Optional[Sequence[str]] = None
               ) -> ExperimentResult:
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    runner = job_runner()
    lengths = [l for l in lengths if l in ENTRIES_PER_BLOCK]
    jobs = [SimJob.single(wl, n, config, l1=STRIDE_L1)
            for wl in workloads]
    for length in lengths:
        sl = spec("streamline", stream_length=length)
        jobs += [SimJob.single(wl, n, config, l1=STRIDE_L1, l2=(sl,),
                               probes=("store_stats",))
                 for wl in workloads]
    results = runner.run(jobs)
    bases = {wl: r.single for wl, r in zip(workloads, results)}
    rest = iter(results[len(workloads):])
    rows = []
    for length in lengths:
        speedups: List[float] = []
        coverages: List[float] = []
        hit_rates: List[float] = []
        for wl in workloads:
            res = next(rest)
            speedups.append(res.single.ipc / bases[wl].ipc)
            tp = res.single.temporal
            coverages.append(tp.coverage if tp else 0.0)
            stats = res.probes["store_stats"]
            hit_rates.append(stats["hits"] / stats["lookups"]
                             if stats["lookups"] else 0.0)
        rows.append([length, correlations_per_block(length),
                     fmt(sum(hit_rates) / len(hit_rates)),
                     fmt(sum(coverages) / len(coverages)),
                     fmt(geomean(speedups))])
    notes = ("paper: length 4 peaks coverage (31.5%); longer streams "
             "miss too many triggers (hit rate drops), shorter ones "
             "waste capacity")
    return ExperimentResult(
        "fig12a", ["stream_len", "corr_per_block", "trigger_hit_rate",
                   "coverage", "speedup"], rows, notes)


def run_fig12b(n: Optional[int] = None,
               sizes: Sequence[int] = (1, 2, 4),
               workloads: Optional[Sequence[str]] = None
               ) -> ExperimentResult:
    """Redundancy vs. store size, +- stream alignment."""
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    runner = job_runner()
    cells = [(every_nth, aligned) for every_nth in sizes
             for aligned in (True, False)]
    jobs = []
    for every_nth, aligned in cells:
        sl = spec("streamline", stream_alignment=aligned, dynamic=False,
                  initial_every_nth=every_nth)
        jobs += [SimJob.single(wl, n, config, l1=STRIDE_L1, l2=(sl,),
                               probes=("redundancy",))
                 for wl in workloads]
    results = iter(runner.run(jobs))
    rows = []
    for every_nth, aligned in cells:
        rates: List[float] = []
        benign: List[float] = []
        for _ in workloads:
            report = next(results).probes["redundancy"]
            rates.append(report["redundancy_rate"])
            benign.append(report["benign_fraction"])
        rows.append([f"1/{every_nth}",
                     "align" if aligned else "no-align",
                     fmt(sum(rates) / len(rates)),
                     fmt(sum(benign) / len(benign))])
    notes = ("paper: stream alignment halves redundancy; ~31% of "
             "remaining redundancy is benign (context-disambiguating)")
    return ExperimentResult("fig12b", ["store_size", "alignment",
                                       "redundancy_rate",
                                       "benign_fraction"], rows, notes)


def run_fig12c(n: Optional[int] = None,
               buffer_sizes: Sequence[int] = (1, 2, 3, 4, 6, 8),
               workloads: Optional[Sequence[str]] = None
               ) -> ExperimentResult:
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    config = experiment_config()
    runner = job_runner()
    jobs = []
    for size in buffer_sizes:
        sl = spec("streamline", buffer_size=size)
        jobs += [SimJob.single(wl, n, config, l1=STRIDE_L1, l2=(sl,),
                               probes=("alignment",))
                 for wl in workloads]
    results = iter(runner.run(jobs))
    rows = []
    for size in buffer_sizes:
        align_rates: List[float] = []
        coverages: List[float] = []
        for _ in workloads:
            res = next(results)
            counters = res.probes["alignment"]
            completed = max(1, counters["completed_streams"])
            align_rates.append(counters["alignments"] / completed)
            tp = res.single.temporal
            coverages.append(tp.coverage if tp else 0.0)
        rows.append([size, fmt(sum(align_rates) / len(align_rates)),
                     fmt(sum(coverages) / len(coverages))])
    notes = ("paper: a 3-entry buffer reaches the alignment-rate knee; "
             "bigger buffers add overhead without coverage")
    return ExperimentResult("fig12c", ["buffer_entries", "alignment_rate",
                                       "coverage"], rows, notes)


def run_fig12_intervals(n: Optional[int] = None,
                        intervals: int = 8,
                        workloads: Optional[Sequence[str]] = None
                        ) -> ExperimentResult:
    """Interval plot data: Streamline's behaviour over time per workload.

    One row per interval per workload — demand misses reaching the L2,
    prefetch issue/fill/useful counts, and metadata-store occupancy —
    plus the run's final timeliness split.  ``intervals`` picks the
    sampling period (``n // intervals``), so the table stays readable at
    any ``REPRO_N``; plotting consumers wanting finer grain should use
    the ``telemetry`` probe (or CLI) directly.
    """
    n = n or env_n(40_000)
    workloads = list(workloads or workload_set("component"))
    tcfg = TelemetryConfig(interval=max(500, n // intervals))
    config = experiment_config().scaled(telemetry=tcfg)
    runner = job_runner()
    sl = spec("streamline")
    jobs = [SimJob.single(wl, n, config, l1=STRIDE_L1, l2=(sl,),
                          probes=("telemetry",))
            for wl in workloads]
    results = runner.run(jobs)
    rows = []
    for wl, res in zip(workloads, results):
        payload = res.probes["telemetry"]
        series = payload["intervals"]
        counters = series["counters"]
        gauges = series["gauges"]
        lifecycle = payload["lifecycle"].get("streamline", {})
        issued_total = lifecycle.get("issued", 0) or 1
        for i in series["index"]:
            rows.append([
                wl, i, series["access"][i],
                counters["l2_misses"][i], counters["pf_issued"][i],
                counters["pf_fills"][i], counters["pf_useful"][i],
                int(gauges["meta_entries"][i]),
            ])
        rows.append([
            wl, "total", series["access"][-1] if series["access"] else 0,
            sum(counters["l2_misses"]), sum(counters["pf_issued"]),
            sum(counters["pf_fills"]), sum(counters["pf_useful"]),
            f"on={lifecycle.get('on_time', 0) / issued_total:.2f} "
            f"late={lifecycle.get('late', 0) / issued_total:.2f}",
        ])
    notes = (f"streamline over stride L1, interval={tcfg.interval} "
             "accesses; meta_entries is the stream store's live entry "
             "count (occupancy ramps as streams are learned); the total "
             "row adds the run's on-time/late fractions")
    return ExperimentResult(
        "fig12ts", ["workload", "interval", "access", "l2_miss",
                    "pf_issued", "pf_fills", "pf_useful", "meta_entries"],
        rows, notes)
