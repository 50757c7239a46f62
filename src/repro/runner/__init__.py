"""Parallel experiment runner with a persistent result cache.

The experiment layer describes work as :class:`SimJob` batches —
serializable descriptors keyed by ``(workloads, n, seed, config,
prefetcher specs)`` — and hands them to a :class:`SimRunner`, which
dedups against a two-level result cache (per-process memo + on-disk
pickles under ``benchmarks/.simcache/``) and fans cold jobs out over a
process pool.

Knobs: ``REPRO_JOBS`` (worker count; ``1`` = in-process serial),
``REPRO_CACHE=0`` (disable the disk cache), ``REPRO_CACHE_DIR``
(relocate it), ``REPRO_CKPT``/``REPRO_CKPT_DIR``/``REPRO_CKPT_MARK``
(checkpoint & resume, see :mod:`repro.checkpoint`).  See DESIGN.md
"Execution model" and "Checkpoint & resume".
"""

from .cache import CacheStats, ResultCache, cache_enabled
from .jobs import JobResult, SimJob, execute_job, prewarm_job
from .probes import ProbeContext, register_probe, run_probes
from .runner import SimRunner, env_jobs, get_runner, reset_runner
from .specs import VARIANT_PREFIX, PrefetcherSpec, as_spec, register, \
    spec
from .traces import get_trace

__all__ = ["CacheStats", "ResultCache", "cache_enabled",
           "JobResult", "SimJob", "execute_job",
           "prewarm_job", "ProbeContext", "register_probe", "run_probes",
           "SimRunner", "env_jobs",
           "get_runner", "reset_runner", "PrefetcherSpec", "as_spec",
           "register", "spec", "get_trace", "VARIANT_PREFIX"]
