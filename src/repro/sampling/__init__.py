"""Representative interval sampling (SimPoint-style).

Paper-scale evaluation is linearly expensive: every figure simulates
every access of every trace.  This subsystem makes wide scenario sweeps
cheap by simulating only *representative* intervals:

1. :mod:`.features` streams a trace through the chunk pipeline
   (constant memory, no simulation) and collects one feature vector per
   fixed-size interval — access mixes, footprint deltas, and a
   log2-bucketed reuse-distance sketch.
2. :mod:`.cluster` runs a seeded, dependency-free k-means over the
   z-scored vectors and picks one representative interval per cluster,
   weighted by cluster population.
3. :mod:`.plan` persists the result as a
   :class:`~repro.sampling.plan.SamplingPlan` artifact in a
   :mod:`repro.store` entry under ``benchmarks/.splans`` (corruption
   evicts to a miss, like every other store in this repo).
4. :mod:`.execute` turns a plan into windowed
   :class:`~repro.runner.SimJob` batches (bounded warm-up immediately
   before each interval, restored from the checkpoint store when
   shared), and extrapolates whole-trace estimates with per-metric
   confidence intervals and declared error bounds.

``python -m repro sampling`` exposes ``plan`` / ``run`` /
``validate``; ``validate`` runs sampled-vs-full and asserts every
observed error is inside its declared bound.

Sampling runs only where an experiment asks for it (``fig9s``);
windowed jobs key their *own* cache entries via ``SimJob.window``, so a
sampled estimate can never impersonate a full run's cached result.

``REPRO_SAMPLING_DIR`` relocates the plan store (default
``benchmarks/.splans``).
"""

from __future__ import annotations

from .cluster import kmeans, pick_representatives
from .execute import (METRIC_FLOORS, METRICS, SampledEstimate, combine,
                      run_sampled, sampled_jobs, validate_sampling)
from .features import (FEATURE_NAMES, FEATURE_SCHEMA_VERSION,
                       FeatureMatrix, extract_features)
from .plan import (DEFAULT_ERROR_BOUNDS, PlanStore, Representative,
                   SamplingPlan, build_plan, default_interval, default_k,
                   get_plan)

__all__ = [
    "kmeans", "pick_representatives",
    "FEATURE_NAMES", "FEATURE_SCHEMA_VERSION", "FeatureMatrix",
    "extract_features",
    "DEFAULT_ERROR_BOUNDS", "PlanStore", "Representative",
    "SamplingPlan", "build_plan", "default_interval", "default_k",
    "get_plan",
    "METRICS", "METRIC_FLOORS", "SampledEstimate", "combine",
    "run_sampled", "sampled_jobs", "validate_sampling",
]
