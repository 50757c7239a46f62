"""The batch runner: cache lookup, dedup, and process-pool fan-out.

``SimRunner.run(jobs)`` preserves input order, computes each distinct
fingerprint at most once, serves repeats from the two-level cache, and
spreads cold jobs over a ``ProcessPoolExecutor``.  Worker count comes
from ``REPRO_JOBS`` (default ``os.cpu_count()``); ``REPRO_JOBS=1``
bypasses the pool entirely — a pure in-process serial path for debugging
and determinism checks.  Simulations are seeded and deterministic, so
serial and parallel runs are bit-identical (asserted by
``tests/test_runner.py``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, List, Optional, Sequence

from .. import store as repro_store
from ..checkpoint import checkpoint_enabled, get_store
from ..envknobs import env_int
from ..obs import profile as obs_profile
from ..obs import runlog as obs_runlog
from ..obs import trace as obs_trace
from ..obs.progress import ProgressLine
from .cache import ResultCache
from .jobs import JobResult, SimJob, execute_job, prewarm_job


def env_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default: all cores; junk and
    values below 1 raise naming the variable)."""
    return env_int("REPRO_JOBS", os.cpu_count() or 1)


class SimRunner:
    """Executes batches of :class:`SimJob` with caching and parallelism."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None):
        self._jobs = jobs
        self.cache = cache if cache is not None else ResultCache()

    @property
    def workers(self) -> int:
        return self._jobs if self._jobs is not None else env_jobs()

    def run_one(self, job: SimJob) -> JobResult:
        return self.run([job])[0]

    def run(self, jobs: Sequence[SimJob],
            contexts: Optional[Sequence[
                Optional[obs_trace.TraceContext]]] = None
            ) -> List[JobResult]:
        """Run a batch; returns results in input order.

        Profiled runs (``REPRO_PROFILE=1``) bypass the result cache in
        both directions: a cached result has no fresh timing to offer,
        and a profiled result must not displace the golden cached one
        (``SimResult.profile`` would make it compare unequal to an
        unprofiled rerun).

        ``contexts`` optionally carries one trace context per job (the
        serve broker passes the submitting client's); when absent, this
        call *is* the outermost entry point and the whole batch runs
        under one freshly minted (or ambient) root.
        Contexts are a pure observation channel — they never touch
        fingerprints or results.
        """
        fingerprints = [job.fingerprint() for job in jobs]
        if contexts is None:
            root = obs_trace.ambient()
            contexts = [root] * len(jobs)
        elif len(contexts) != len(jobs):
            raise ValueError("contexts must align 1:1 with jobs")
        profiled = obs_profile.enabled()
        # Dedup within the batch and against the cache.
        results: Dict[str, JobResult] = {}
        pending: Dict[str, SimJob] = {}
        pending_ctx: Dict[str, Optional[obs_trace.TraceContext]] = {}
        before = self.cache.stats.snapshot()
        for job, fp, context in zip(jobs, fingerprints, contexts):
            if fp in pending or fp in results:
                continue
            cached = None if profiled else self.cache.get(fp)
            if cached is not None:
                results[fp] = cached
            else:
                pending[fp] = job
                pending_ctx[fp] = context
        if pending or results:
            # Fully cache-served batches still go through _execute (with
            # nothing to run) so the run log records them — a warm sweep
            # is the cache's best case, not a non-event.
            after = self.cache.stats.snapshot()
            executed = self._execute(
                list(pending.values()),
                total=len(pending) + len(results),
                memo_hits=after["memo_hits"] - before["memo_hits"],
                disk_hits=after["disk_hits"] - before["disk_hits"],
                evictions=after["evictions"] - before["evictions"],
                contexts=[pending_ctx[fp] for fp in pending],
                batch_context=next(
                    (c for c in contexts if c is not None), None))
            for fp, result in zip(pending, executed):
                results[fp] = result
                if not profiled:
                    self.cache.put(fp, result)
        return [results[fp] for fp in fingerprints]

    def _execute(self, jobs: List[SimJob], total: Optional[int] = None,
                 memo_hits: int = 0, disk_hits: int = 0,
                 evictions: int = 0,
                 contexts: Optional[List[
                     Optional[obs_trace.TraceContext]]] = None,
                 batch_context: Optional[obs_trace.TraceContext] = None
                 ) -> List[JobResult]:
        total = len(jobs) if total is None else total
        if contexts is None:
            contexts = [None] * len(jobs)
        # Batch-level records (run_start/run_end/prewarm/cache_evict)
        # run under the first traced job's context; a multi-trace batch
        # can only pin them to one trace, and "the request that caused
        # this batch" is the first one.  ``batch_context`` covers the
        # fully cache-served case (no pending jobs, so ``contexts`` is
        # empty, but run_start/run_end still want the trace).
        batch_ctx = next((c for c in contexts if c is not None),
                         batch_context)
        if batch_ctx is None:
            return self._execute_batch(jobs, total, memo_hits, disk_hits,
                                       evictions, contexts)
        prev_ctx = obs_trace.install(batch_ctx)
        try:
            return self._execute_batch(jobs, total, memo_hits, disk_hits,
                                       evictions, contexts)
        finally:
            obs_trace.install(prev_ctx)

    def _execute_batch(self, jobs: List[SimJob], total: int,
                       memo_hits: int, disk_hits: int, evictions: int,
                       contexts: List[Optional[obs_trace.TraceContext]]
                       ) -> List[JobResult]:
        parents = [c.to_traceparent() if c is not None else None
                   for c in contexts]
        log: Optional[obs_runlog.RunLog] = None
        writer: Optional[obs_runlog.RunLogWriter] = None
        if obs_runlog.enabled():
            log = obs_runlog.RunLog.create()
            writer = log.parent_writer()
        ckpt_hits = self._prewarm(jobs, writer)
        workers = min(self.workers, len(jobs))
        evicted = repro_store.drain_evictions()
        if writer is not None:
            writer.emit("run_start", run_id=log.run_id,
                        schema=obs_runlog.RUNLOG_SCHEMA_VERSION,
                        jobs=total, executed=len(jobs),
                        memo_hits=memo_hits, disk_hits=disk_hits,
                        evictions=evictions, workers=workers,
                        profiled=obs_profile.enabled())
            # Corrupt entries any store evicted while no run-log writer
            # was installed (this batch's cache lookups among them): one
            # record each, so reports can name what was lost and why.
            for record in evicted:
                writer.emit("cache_evict", **record)
        line = ProgressLine(total, done=memo_hits + disk_hits)
        line.update(memo_hits=memo_hits, disk_hits=disk_hits,
                    ckpt_hits=ckpt_hits)
        t0 = time.perf_counter()
        try:
            if workers <= 1:
                # Serial in-process path: log into a shard of our own so
                # the merged view looks the same as a pooled run.
                if log is not None:
                    obs_runlog.init_worker(str(log.directory))
                try:
                    results = []
                    # Route through execute_job so the serial path mints
                    # the same per-job child spans as pool workers.
                    for job, tp in zip(jobs, parents):
                        results.append(execute_job(job, tp))
                        line.update(done=line.done + 1)
                finally:
                    if log is not None:
                        shard = obs_runlog.current()
                        obs_runlog.uninstall()
                        if shard is not None:
                            shard.close()
            else:
                initializer = obs_runlog.init_worker \
                    if log is not None else None
                initargs = (str(log.directory),) if log is not None else ()
                with ProcessPoolExecutor(max_workers=workers,
                                         initializer=initializer,
                                         initargs=initargs) as pool:
                    futures = [pool.submit(execute_job, job, tp)
                               for job, tp in zip(jobs, parents)]
                    for future in as_completed(futures):
                        future.result()  # surface worker failures now
                        line.update(done=line.done + 1)
                    results = [future.result() for future in futures]
        finally:
            line.finish()
            if writer is not None:
                writer.emit("run_end", run_id=log.run_id,
                            wall_seconds=time.perf_counter() - t0,
                            ckpt_hits=ckpt_hits)
                writer.close()
                log.merge()
        return results

    def _prewarm(self, jobs: List[SimJob],
                 writer: Optional[obs_runlog.RunLogWriter] = None) -> int:
        """Snapshot each shared warm-up prefix once, before fan-out.

        Jobs that opt into ``resume`` and share a warm-up fingerprint
        would otherwise each re-simulate the identical warm-up region
        (or race to write the same snapshot); one representative per
        missing fingerprint runs the prefix and records it, and the
        batch proper then restores it N times.

        Returns how many of this batch's jobs will restore a warm-up
        snapshot (the progress line's ``ckpt`` counter).
        """
        if not checkpoint_enabled():
            return 0
        store = get_store()
        groups: Dict[str, List[SimJob]] = {}
        for job in jobs:
            if job.resume:
                groups.setdefault(job.warmup_fingerprint(), []).append(job)
        if not groups:
            return 0
        representatives = [
            members[0] for fp, members in groups.items()
            if len(members) > 1 and not store.has(fp)]
        if representatives:
            workers = min(self.workers, len(representatives))
            if workers <= 1:
                for job in representatives:
                    job.prewarm(store)
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    list(pool.map(prewarm_job, representatives))
            if writer is not None:
                writer.emit("prewarm", snapshots=len(representatives))
        return sum(len(members) for fp, members in groups.items()
                   if store.has(fp))


_DEFAULT_CACHE: Optional[ResultCache] = None
_DEFAULT_RUNNER: Optional[SimRunner] = None


def get_runner() -> SimRunner:
    """The process-wide default runner (shared memo across experiments)."""
    global _DEFAULT_CACHE, _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_CACHE = ResultCache()
        _DEFAULT_RUNNER = SimRunner(cache=_DEFAULT_CACHE)
    return _DEFAULT_RUNNER


def reset_runner() -> None:
    """Drop the default runner (tests re-point the cache via env knobs)."""
    global _DEFAULT_CACHE, _DEFAULT_RUNNER
    _DEFAULT_CACHE = None
    _DEFAULT_RUNNER = None
