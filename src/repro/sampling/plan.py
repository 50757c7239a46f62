"""Sampling plans: the persisted, checksummed clustering artifact.

A :class:`SamplingPlan` pins everything a sampled execution needs —
which intervals to simulate, with what warm-up, at what weight, and the
per-metric error bounds the estimate is declared to satisfy.  Plans are
deterministic functions of ``(workload, n, seed, interval, k,
feature-schema version)``, which is exactly the store key, so a plan
built on one machine is byte-identical to the same plan built on
another.

Plans are :mod:`repro.store` entries under ``benchmarks/.splans``
(``REPRO_SAMPLING_DIR`` overrides): atomic writes and a digest checked
on every load, so a corrupt or tampered plan — or one whose key
disagrees with the entry it sits in — is evicted to a miss (counted,
warned about and logged), never a half-read artifact.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..obs import runlog as obs_runlog
from ..store import BlobStore, store_dir
from ..workloads import DEFAULT_SEED
from .cluster import pick_representatives
from .features import FEATURE_SCHEMA_VERSION, extract_features

#: Declared relative error bounds per extrapolated metric, inherited by
#: every plan unless overridden.  ``validate`` asserts observed error
#: against these; ``benchmarks/bench_sampling.py`` measures the actual
#: margins.  Relative error uses per-metric floors (see
#: :data:`repro.sampling.execute.METRIC_FLOORS`) so near-zero
#: denominators don't explode the ratio.
DEFAULT_ERROR_BOUNDS: Dict[str, float] = {
    "ipc": 0.15,
    "l1d_miss_rate": 0.10,
    "l2_miss_rate": 0.25,
}

#: Default warm-up, in intervals.  Sized so the bounded warm-up crosses
#: the state-fill transient (scaled LLC fill) *and* covers at least two
#: repetitions of the longest temporal period in the workload pool
#: (gap.pr's sweep is ~16K records; one repetition trains a temporal
#: prefetcher, the second confirms it).  Measured in
#: ``benchmarks/bench_sampling.py``: one period is not enough (windows
#: whose warm-up covers exactly ~1 sweep leave streamline untrained and
#: triple the interval's L2 miss rate).
WARMUP_INTERVALS = 8

#: Fraction of the trace treated as warm-up by full runs (the
#: ``SystemConfig.warmup_fraction`` default); plans cluster only
#: intervals that start inside the corresponding measured region.
FULL_WARMUP_FRACTION = 0.2


def default_interval(n: int) -> int:
    """Interval length in records: fixed-size (SimPoint-style) at scale,
    shrunk for short traces so there are enough intervals to cluster."""
    return max(512, min(4096, n // 12))


def default_k(num_candidates: int) -> int:
    """Representatives to pick from ``num_candidates`` intervals."""
    return min(8, max(2, (2 * num_candidates + 2) // 3))


@dataclass(frozen=True)
class Representative:
    """One weighted representative interval."""

    start: int      # absolute record index of the interval start
    weight: float   # cluster population / clustered intervals
    size: int       # cluster population


@dataclass
class SamplingPlan:
    """Everything a sampled execution needs, persisted and checksummed."""

    workload: str
    n: int
    seed: int
    interval: int
    #: Bounded warm-up records simulated immediately before each
    #: representative interval (clamped at the trace start).
    warmup: int
    #: Requested cluster count (the picks may be fewer if clusters
    #: collapse).
    k: int
    #: Intervals eligible for clustering (start >= measured_from).
    num_candidates: int
    #: First record of the full run's measured region.
    measured_from: int
    representatives: List[Representative] = field(default_factory=list)
    error_bounds: Dict[str, float] = field(default_factory=dict)
    feature_schema: int = FEATURE_SCHEMA_VERSION

    @property
    def key(self) -> str:
        return plan_key(self.workload, self.n, self.seed, self.interval,
                        self.k, self.feature_schema)

    def simulated_accesses(self) -> int:
        """Records a sampled execution simulates (warm-up + interval per
        representative) — the numerator of the speedup claim."""
        total = 0
        for rep in self.representatives:
            start = max(0, rep.start - self.warmup)
            total += (rep.start + self.interval) - start
        return total

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SamplingPlan":
        reps = [Representative(**r) for r in payload["representatives"]]
        return cls(**{**payload, "representatives": reps})

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def plan_key(workload: str, n: int, seed: int, interval: int, k: int,
             feature_schema: int = FEATURE_SCHEMA_VERSION) -> str:
    return (f"{workload}-n{n}-s{seed}-i{interval}-k{k}"
            f"-f{feature_schema}")


class PlanStore(BlobStore):
    """Key-addressed store of plan artifacts (JSON payloads)."""

    def __init__(self, directory: Optional[pathlib.Path] = None):
        super().__init__("plans", pathlib.Path(directory) if directory
                         else store_dir("splans", "REPRO_SAMPLING_DIR"))

    def decode(self, payload: bytes) -> SamplingPlan:
        return SamplingPlan.from_dict(json.loads(payload))

    def put(self, plan: SamplingPlan) -> pathlib.Path:
        self.write(plan.key, json.dumps(plan.to_dict(), indent=2,
                                        sort_keys=True).encode())
        return self.path(plan.key)

    def get(self, key: str) -> Optional[SamplingPlan]:
        """The stored plan, or None on miss *or* corruption."""
        plan = self.load(key)
        if plan is not None and plan.key != key:
            self.evict(key, f"stored plan keys itself {plan.key!r}")
            return None
        return plan


def build_plan(workload: str, n: int, seed: int = DEFAULT_SEED,
               interval: Optional[int] = None, k: Optional[int] = None,
               warmup: Optional[int] = None,
               error_bounds: Optional[Dict[str, float]] = None
               ) -> SamplingPlan:
    """Feature pass + clustering for one trace (no simulation).

    Only intervals starting inside the full run's measured region are
    clustered, so the weighted estimate targets the same steady-state
    region a full run reports.
    """
    interval = interval or default_interval(n)
    warmup = WARMUP_INTERVALS * interval if warmup is None else warmup
    feats = extract_features(workload, n, interval, seed=seed)
    measured_from = int(n * FULL_WARMUP_FRACTION)
    eligible = feats.starts >= measured_from
    starts = feats.starts[eligible]
    matrix = feats.matrix[eligible]
    if not len(starts):
        raise ValueError(
            f"no intervals of {interval} records fit the measured "
            f"region of a {n}-record trace")
    k = k or default_k(len(starts))
    picks = pick_representatives(matrix, starts, k, seed)
    reps = [Representative(start=p.start, weight=p.weight, size=p.size)
            for p in picks]
    return SamplingPlan(
        workload=workload, n=n, seed=seed, interval=interval,
        warmup=warmup, k=k, num_candidates=int(len(starts)),
        measured_from=measured_from, representatives=reps,
        error_bounds=dict(error_bounds if error_bounds is not None
                          else DEFAULT_ERROR_BOUNDS))


def get_plan(workload: str, n: int, seed: int = DEFAULT_SEED,
             interval: Optional[int] = None, k: Optional[int] = None,
             warmup: Optional[int] = None,
             store: Optional[PlanStore] = None) -> SamplingPlan:
    """Restore the plan from the store, or build and persist it.

    Emits a ``sampling_plan`` run-log record when an observability
    writer is installed (see :mod:`repro.obs.runlog`).
    """
    store = store if store is not None else PlanStore()
    interval = interval or default_interval(n)
    key_k = k
    if key_k is None:
        # The key needs the effective k, which depends on the interval
        # grid, not the features — cheap to derive without a feature pass.
        measured_from = int(n * FULL_WARMUP_FRACTION)
        candidates = sum(1 for s in range(0, (n // interval) * interval,
                                          interval) if s >= measured_from)
        if candidates <= 0:
            raise ValueError(
                f"no intervals of {interval} records fit the measured "
                f"region of a {n}-record trace")
        key_k = default_k(candidates)
    key = plan_key(workload, n, seed, interval, key_k)
    plan = store.get(key)
    source = "store"
    if plan is None:
        plan = build_plan(workload, n, seed=seed, interval=interval,
                          k=key_k, warmup=warmup)
        store.put(plan)
        source = "built"
    log = obs_runlog.current()
    if log is not None:
        log.emit("sampling_plan", workload=workload, n=n, seed=seed,
                 interval=plan.interval, k=plan.k,
                 representatives=len(plan.representatives),
                 source=source, digest=plan.digest())
    return plan
