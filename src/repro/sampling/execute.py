"""Sampled execution and error-bounded extrapolation.

A plan's representatives become ordinary windowed
:class:`~repro.runner.SimJob` batches: each simulates ``[start-warmup,
start+interval)`` of the trace with the warm-up boundary at ``start``,
so the engine's measured region is exactly the representative interval.
Windowed jobs are exact, deterministic computations keyed by their own
fingerprints — they flow through the same runner, result cache,
process pool, and checkpoint store as every full run (``resume=True``
lets the arms of a ``measure_overrides`` sweep restore one shared
warm-up snapshot per representative instead of re-simulating it).

Extrapolation combines per-representative steady-state stats into
whole-trace estimates:

* ``ipc`` — ratio of weighted means: ``sum(w * instrs/accesses) /
  sum(w * cycles/accesses)`` (interval access counts are equal, so
  this is the IPC of the weighted concatenation, not a mean of
  ratios);
* miss rates — weighted means (per-access ratios);
* each estimate carries a 95% confidence interval from the weighted
  between-representative variance, plus the plan's *declared* relative
  error bound, which ``validate`` checks against an actual full run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import runlog as obs_runlog
from ..runner import JobResult, SimJob, get_runner
from ..sim.config import SystemConfig
from ..sim.stats import SimResult
from .plan import PlanStore, SamplingPlan, get_plan

#: Metrics the extrapolator estimates, in report order.
METRICS: Tuple[str, ...] = ("ipc", "l1d_miss_rate", "l2_miss_rate")

#: Relative-error floors: ``err = |est - full| / max(|full|, floor)``.
#: A miss rate of 0.001 vs 0.002 is "both tiny", not "100% off".
METRIC_FLOORS: Dict[str, float] = {
    "ipc": 1e-3,
    "l1d_miss_rate": 0.02,
    "l2_miss_rate": 0.05,
}


def _metric(result: SimResult, name: str) -> float:
    if name == "ipc":
        return result.ipc
    return float(getattr(result, name))


@dataclass
class MetricEstimate:
    """One extrapolated metric with its uncertainty."""

    estimate: float
    ci95: float                      # +/- around the estimate
    bound: Optional[float]           # declared relative error bound
    per_representative: List[float] = field(default_factory=list)


@dataclass
class SampledEstimate:
    """Whole-trace estimates extrapolated from one sampled execution."""

    workload: str
    n: int
    metrics: Dict[str, MetricEstimate]
    simulated_accesses: int
    #: Accesses a full run simulates (warm-up included) — denominator
    #: ``n`` keeps the speedup claim honest about total simulated work.
    full_accesses: int
    representatives: int

    @property
    def access_reduction(self) -> float:
        """How many times fewer accesses than the full run simulates."""
        if not self.simulated_accesses:
            return float("inf")
        return self.full_accesses / self.simulated_accesses


def sampled_jobs(plan: SamplingPlan, config: SystemConfig,
                 l1=None, l2: Sequence = (),
                 probes: Sequence[str] = ("sampling",),
                 measure_overrides: Sequence[Tuple[str, Any]] = (),
                 resume: bool = True) -> List[SimJob]:
    """The windowed job batch realizing one arm of a sampled run."""
    jobs = []
    for rep in plan.representatives:
        start = max(0, rep.start - plan.warmup)
        jobs.append(SimJob.single(
            plan.workload, plan.n, config, l1=l1, l2=l2, seed=plan.seed,
            probes=probes, measure_overrides=measure_overrides,
            resume=resume,
            window=(start, rep.start, rep.start + plan.interval)))
    return jobs


def combine(plan: SamplingPlan,
            results: Sequence[JobResult]) -> SampledEstimate:
    """Extrapolate whole-trace estimates from per-representative results.

    ``results`` must be in ``plan.representatives`` order (what
    :func:`sampled_jobs` submits).
    """
    if len(results) != len(plan.representatives):
        raise ValueError(
            f"plan has {len(plan.representatives)} representatives but "
            f"{len(results)} results were supplied")
    reps = plan.representatives
    weights = [r.weight for r in reps]
    wsum = sum(weights)
    if wsum <= 0:
        raise ValueError("plan weights sum to zero")
    weights = [w / wsum for w in weights]
    singles = [res.single for res in results]
    # Effective sample count of the weighted design (== k for equal
    # weights); the CI shrinks with it.
    k_eff = 1.0 / sum(w * w for w in weights)
    metrics: Dict[str, MetricEstimate] = {}
    for name in METRICS:
        per_rep = [_metric(s, name) for s in singles]
        if name == "ipc":
            ipa = sum(w * s.instructions / s.accesses
                      for w, s in zip(weights, singles))
            cpa = sum(w * s.cycles / s.accesses
                      for w, s in zip(weights, singles))
            est = ipa / cpa if cpa else 0.0
        else:
            est = sum(w * x for w, x in zip(weights, per_rep))
        var = sum(w * (x - est) ** 2 for w, x in zip(weights, per_rep))
        ci95 = 1.96 * math.sqrt(var / k_eff) if k_eff else 0.0
        metrics[name] = MetricEstimate(
            estimate=est, ci95=ci95,
            bound=plan.error_bounds.get(name),
            per_representative=per_rep)
    return SampledEstimate(
        workload=plan.workload, n=plan.n, metrics=metrics,
        simulated_accesses=plan.simulated_accesses(),
        full_accesses=plan.n,
        representatives=len(reps))


def run_sampled(workload: str, n: int, config: SystemConfig,
                l1=None, l2: Sequence = (),
                seed: Optional[int] = None,
                interval: Optional[int] = None,
                k: Optional[int] = None,
                warmup: Optional[int] = None,
                store: Optional[PlanStore] = None,
                runner=None) -> SampledEstimate:
    """Plan (or restore the plan), simulate the representatives, and
    extrapolate — the one-call form of sampled execution."""
    from ..workloads import DEFAULT_SEED
    seed = DEFAULT_SEED if seed is None else seed
    plan = get_plan(workload, n, seed=seed, interval=interval,
                    k=k, warmup=warmup, store=store)
    runner = runner or get_runner()
    results = runner.run(sampled_jobs(plan, config, l1=l1, l2=l2))
    estimate = combine(plan, results)
    log = obs_runlog.current()
    if log is not None:
        log.emit("sampling_run", workload=workload, n=n,
                 representatives=estimate.representatives,
                 simulated_accesses=estimate.simulated_accesses,
                 access_reduction=round(estimate.access_reduction, 3),
                 estimates={m: round(e.estimate, 6)
                            for m, e in estimate.metrics.items()})
    return estimate


@dataclass
class ValidationRow:
    """Sampled-vs-full comparison for one (workload, arm, metric)."""

    workload: str
    arm: str
    metric: str
    full: float
    estimate: float
    ci95: float
    rel_error: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.rel_error <= self.bound


def relative_error(estimate: float, full: float, metric: str) -> float:
    floor = METRIC_FLOORS.get(metric, 1e-9)
    return abs(estimate - full) / max(abs(full), floor)


def validate_sampling(workloads: Sequence[str], n: int,
                      config: SystemConfig,
                      arms: Dict[str, Sequence], l1=None,
                      seed: Optional[int] = None,
                      interval: Optional[int] = None,
                      k: Optional[int] = None,
                      store: Optional[PlanStore] = None,
                      runner=None) -> List[ValidationRow]:
    """Run sampled and full for every (workload, arm) and compare.

    ``arms`` maps display name -> l2 prefetcher spec tuple (empty tuple
    = baseline).  Returns one row per metric; callers assert
    ``all(row.ok)``.  Full and sampled runs share the runner, so full
    results other experiments already computed come from the cache.
    """
    from ..workloads import DEFAULT_SEED
    seed = DEFAULT_SEED if seed is None else seed
    runner = runner or get_runner()
    # One batch for all the full runs, so they fan out in parallel.
    full_jobs = [SimJob.single(wl, n, config, l1=l1, l2=tuple(l2),
                               seed=seed)
                 for wl in workloads for l2 in arms.values()]
    full_results = iter(runner.run(full_jobs))
    rows: List[ValidationRow] = []
    for wl in workloads:
        for arm_name, l2 in arms.items():
            full = next(full_results).single
            est = run_sampled(wl, n, config, l1=l1, l2=tuple(l2),
                              seed=seed, interval=interval, k=k,
                              store=store, runner=runner)
            for metric, me in est.metrics.items():
                full_value = _metric(full, metric)
                rows.append(ValidationRow(
                    workload=wl, arm=arm_name, metric=metric,
                    full=full_value, estimate=me.estimate,
                    ci95=me.ci95,
                    rel_error=relative_error(me.estimate, full_value,
                                             metric),
                    bound=me.bound if me.bound is not None else
                    float("inf")))
    return rows
