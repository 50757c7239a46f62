"""Simulation job descriptors.

A :class:`SimJob` canonically keys one simulation:
``(workloads, n, seed, config, l1 spec, l2 specs, probes)``.  Jobs are
frozen, picklable (they cross process boundaries), and fingerprintable
(the sha256 of their canonical JSON keys the result cache), so the same
logical run — say the stride baseline on ``gap.pr`` that Fig. 9,
Fig. 10d/e, and Fig. 13a all need — is computed exactly once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Optional, Sequence, Tuple, \
    Union

from ..checkpoint import FORMAT_VERSION as CKPT_FORMAT_VERSION
from ..checkpoint import CheckpointStore, checkpoint_enabled, get_store, \
    mark_interval
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs import runlog as obs_runlog
from ..obs import trace as obs_trace
from ..obs.profile import SpanProfiler
from ..sim.config import SystemConfig
from ..sim.multicore import MulticoreResult
from ..sim.stats import SimResult
from ..workloads import DEFAULT_SEED
from .probes import ProbeContext, run_probes
from .specs import PrefetcherSpec, as_spec
from .traces import get_trace
from .traces import store_stats as trace_store_stats

#: Bump to invalidate every on-disk cache entry after a semantic change
#: to the engine or workload generators.
#: v2: unified Engine + request-pipeline/event-bus hierarchy (results are
#: numerically identical to v1, but SimResult gained the ``events``
#: payload, so cached v1 pickles are conservatively invalidated).
#: v3: telemetry subsystem.  ``SystemConfig`` gained the ``telemetry``
#: field (now part of the canonical config dict) and jobs may carry the
#: ``telemetry`` probe; timing numbers are unchanged, but v2 pickles are
#: conservatively invalidated rather than risking canonical-form
#: collisions across the field addition.
#: v4: checkpoint/resume subsystem.  Jobs gained ``measure_overrides``
#: (post-warm-up prefetcher overrides, part of the canonical form:
#: overridden runs are distinct results) and ``resume`` (pure execution
#: strategy, excluded — a resumed run is bit-identical to a straight
#: one); v3 pickles are conservatively invalidated.
#: v5: observability subsystem.  ``SimResult`` gained the ``profile``
#: payload (``REPRO_PROFILE=1`` span timings; None on the default path).
#: Timing numbers are unchanged, but v4 pickles predate the field and
#: are conservatively invalidated.
#: v6: representative sampling.  Jobs gained ``window`` (simulate only
#: records ``[start, stop)`` with a bounded warm-up to ``warm``; part
#: of the canonical form — a windowed run is a different, exactly
#: reproducible computation, never a stand-in for the full run's cache
#: entry).  Un-windowed results are numerically identical to v5, but
#: the canonical form gained a key, so v5 pickles are conservatively
#: invalidated.
SCHEMA_VERSION = 6

SINGLE = "single"
MULTI = "multi"


@dataclass(frozen=True)
class SimJob:
    """One simulation, canonically keyed."""

    kind: str                           # SINGLE | MULTI
    workloads: Tuple[str, ...]
    n: int                              # accesses (per core for MULTI)
    seed: int
    config: SystemConfig
    l1: Optional[PrefetcherSpec] = None
    l2: Tuple[PrefetcherSpec, ...] = ()
    probes: Tuple[str, ...] = ()
    #: Post-warm-up overrides applied to every L2 prefetcher (e.g.
    #: ``(("degree", 2),)``): the warm-up runs at the spec's config, the
    #: measured region at the overridden one — which is what lets a
    #: degree sweep share a single warm-up checkpoint.
    measure_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Execution strategy only (excluded from the fingerprint): restore
    #: the warm-up region from the checkpoint store when possible, and
    #: resume interrupted runs from their last progress mark.
    resume: bool = False
    #: Representative-interval window ``(start, warm, stop)``: simulate
    #: only records ``[start, stop)`` of the trace, with the warm-up
    #: boundary at ``warm`` (records ``[start, warm)`` warm the caches
    #: and prefetchers, ``[warm, stop)`` is the measured region).  Part
    #: of the canonical form: a windowed job is a distinct — exactly
    #: reproducible and therefore cacheable — computation, not an
    #: approximation of the full job.  See :mod:`repro.sampling`.
    window: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in (SINGLE, MULTI):
            raise ValueError(f"kind must be {SINGLE!r} or {MULTI!r}")
        if self.kind == SINGLE and len(self.workloads) != 1:
            raise ValueError("single-core jobs take exactly one workload")
        if not self.workloads:
            raise ValueError("job needs at least one workload")
        if self.window is not None:
            if self.kind != SINGLE:
                raise ValueError("windowed jobs are single-core only")
            start, warm, stop = self.window
            if not 0 <= start <= warm < stop <= self.n:
                raise ValueError(
                    f"window (start={start}, warm={warm}, stop={stop}) "
                    f"must satisfy 0 <= start <= warm < stop <= n={self.n}")

    # -- construction ------------------------------------------------------

    @classmethod
    def single(cls, workload: str, n: int, config: SystemConfig,
               l1=None, l2: Sequence = (), seed: int = DEFAULT_SEED,
               probes: Sequence[str] = (),
               measure_overrides: Sequence[Tuple[str, Any]] = (),
               resume: bool = False,
               window: Optional[Tuple[int, int, int]] = None) -> "SimJob":
        win = (int(window[0]), int(window[1]), int(window[2])) \
            if window is not None else None
        return cls(SINGLE, (workload,), n, seed, config, as_spec(l1),
                   tuple(as_spec(s) for s in l2), tuple(probes),
                   tuple(measure_overrides), resume, win)

    @classmethod
    def multi(cls, workloads: Sequence[str], n_per_core: int,
              config: SystemConfig, l1=None, l2: Sequence = (),
              seed: int = DEFAULT_SEED,
              probes: Sequence[str] = (),
              measure_overrides: Sequence[Tuple[str, Any]] = (),
              resume: bool = False) -> "SimJob":
        return cls(MULTI, tuple(workloads), n_per_core, seed, config,
                   as_spec(l1), tuple(as_spec(s) for s in l2),
                   tuple(probes), tuple(measure_overrides), resume)

    # -- identity ----------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """JSON-friendly, key-sorted description of the job.

        ``resume`` is deliberately absent: resumed and straight runs are
        bit-identical, so they must share one cache entry.
        """
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "workloads": list(self.workloads),
            "n": self.n,
            "seed": self.seed,
            "config": dataclasses.asdict(self.config),
            "l1": self.l1.canonical() if self.l1 else None,
            "l2": [s.canonical() for s in self.l2],
            "probes": list(self.probes),
            "measure_overrides": [[k, v]
                                  for k, v in self.measure_overrides],
            "window": list(self.window) if self.window is not None
            else None,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          default=repr).encode()
        return hashlib.sha256(blob).hexdigest()

    def warmup_canonical(self) -> Dict[str, Any]:
        """Canonical form of the *warm-up-relevant* part of the job.

        Anything that cannot change a single warmed-up simulated state
        is excluded: probes (post-run), measure overrides (applied only
        after the boundary), telemetry (pure observer, snapshot-or-reset
        on restore), and ``resume`` itself.  Includes the checkpoint
        format version so a format bump orphans old snapshots instead of
        misreading them.
        """
        config = dataclasses.asdict(self.config)
        config["telemetry"] = None
        return {
            "schema": SCHEMA_VERSION,
            "ckpt_format": CKPT_FORMAT_VERSION,
            "kind": self.kind,
            "workloads": list(self.workloads),
            "n": self.n,
            "seed": self.seed,
            "config": config,
            "l1": self.l1.canonical() if self.l1 else None,
            "l2": [s.canonical() for s in self.l2],
            "window": list(self.window) if self.window is not None
            else None,
        }

    def warmup_fingerprint(self) -> str:
        """Key of the warm-up snapshot this job can share."""
        blob = json.dumps(self.warmup_canonical(), sort_keys=True,
                          default=repr).encode()
        return hashlib.sha256(blob).hexdigest()

    # -- execution ---------------------------------------------------------

    def _build_engine(self):
        """A fresh engine for this job (deterministic)."""
        from ..sim.engine import Engine
        from ..sim.multicore import build_multicore

        l1_factory = self.l1.factory() if self.l1 else None
        l2_factories = [s.build for s in self.l2]
        if self.kind == SINGLE:
            trace = get_trace(self.workloads[0], self.n, self.seed)
            config = self.config
            if config.num_cores != 1:
                config = config.scaled(num_cores=1)
            if self.window is not None:
                # Representative-interval execution: simulate only the
                # window, warming up over its bounded prefix.  The
                # window view satisfies the TraceSource protocol, so the
                # engine runs it unchanged.
                from ..sim.trace import TraceWindow
                start, warm, stop = self.window
                win = TraceWindow(trace, start, stop)
                return Engine([win], config, l1_prefetcher=l1_factory,
                              l2_prefetchers=l2_factories,
                              warmup_counts=[warm - start])
            return Engine([trace], config, l1_prefetcher=l1_factory,
                          l2_prefetchers=l2_factories)
        traces = [get_trace(wl, self.n, self.seed)
                  for wl in self.workloads]
        return build_multicore(traces, self.config,
                               l1_prefetcher=l1_factory,
                               l2_prefetchers=l2_factories)

    def _apply_overrides(self, engine) -> None:
        """Apply measure overrides to every L2 prefetcher.

        Runs at the warm-up boundary on every path — straight, warm-up
        restore, and progress-mark restore (overrides touch constructor
        config, which snapshots deliberately do not carry).
        """
        for pf in engine.l2_prefetchers:
            for key, value in self.measure_overrides:
                pf.apply_override(key, value)

    def _ckpt_meta(self, phase: str) -> Dict[str, Any]:
        return {
            "phase": phase,
            "kind": self.kind,
            "workloads": list(self.workloads),
            "n": self.n,
            "seed": self.seed,
            "warmup_fingerprint": self.warmup_fingerprint(),
            "window": list(self.window) if self.window is not None
            else None,
        }

    def prewarm(self, store: Optional[CheckpointStore] = None) -> bool:
        """Simulate the warm-up region once and snapshot it.

        Returns True when a snapshot was written (False when one already
        exists or the job has no warm-up boundary to snapshot).
        """
        store = store if store is not None else get_store()
        key = self.warmup_fingerprint()
        if store.has(key):
            return False
        engine = self._build_engine()
        engine.run_warmup()
        if not engine.warmed:
            return False  # zero-length warm-up: nothing to share
        store.put(key, engine.state_dict(), self._ckpt_meta("warmup"))
        return True

    def _label(self) -> str:
        """Short prefetcher label for run logs and reports."""
        parts = [s.name for s in self.l2]
        if self.l1 is not None:
            parts.insert(0, f"l1:{self.l1.name}")
        return "+".join(parts) if parts else "none"

    def execute(self) -> "JobResult":
        """Run the simulation in this process (deterministic).

        With ``resume=True`` (and ``REPRO_CKPT`` not disabled) the
        warm-up region is restored from the checkpoint store when a
        snapshot exists — and recorded when it doesn't — and, when
        ``REPRO_CKPT_MARK`` is set, periodic progress marks make an
        interrupted run restartable from its last mark.  Every path
        produces bit-identical results to a straight run.

        Under ``REPRO_PROFILE=1`` the run is additionally wrapped in a
        span profiler (the engine and hierarchy pick it up at build
        time); simulated numbers stay bit-identical, and the profile is
        attached to single-core results and to the ``job_end`` run-log
        record.  Run-log records are emitted whenever a writer is
        installed for this process (the runner's pool initializer).
        """
        prof = obs_profile.start_job()
        log = obs_runlog.current()
        fp = self.fingerprint() if (log is not None) else ""
        t0 = time.perf_counter()
        store0 = trace_store_stats()
        if log is not None:
            log.emit("job_start", fingerprint=fp, kind=self.kind,
                     workloads=list(self.workloads), n=self.n,
                     prefetcher=self._label())
        try:
            result, restored = self._execute_impl(prof)
        finally:
            obs_profile.end_job(prof)
        if prof is not None and self.kind == SINGLE:
            result = JobResult(
                value=dataclasses.replace(result.single,
                                          profile=prof.report()),
                probes=result.probes)
        if log is not None:
            # On-disk trace store effectiveness, as this job's delta of
            # the per-process counters.
            store1 = trace_store_stats()
            wall = time.perf_counter() - t0
            store_delta = {k: store1[k] - store0[k] for k in store1}
            extra: Dict[str, Any] = {}
            if obs_metrics.enabled():
                # The job's metrics shard: it rides the runlog (which
                # already crosses the process boundary and gets merged)
                # instead of pushing to any shared registry.
                extra["metrics"] = self._job_metrics(
                    result, wall, restored, store_delta)
            log.emit("job_end", fingerprint=fp, kind=self.kind,
                     workloads=list(self.workloads), n=self.n,
                     prefetcher=self._label(),
                     wall_seconds=wall,
                     restored=restored,
                     trace_store=store_delta,
                     profile=prof.report() if prof is not None else None,
                     **extra)
        return result

    def _job_metrics(self, result: "JobResult", wall: float,
                     restored: bool,
                     store_delta: Dict[str, int]) -> Dict[str, Any]:
        """The ``metrics`` section of this job's ``job_end`` record."""
        if self.kind == SINGLE:
            singles = [result.single]
        else:
            singles = list(result.multicore.cores)
        events = sum(s.accesses for s in singles)
        cycles = max((s.cycles for s in singles), default=0)
        return {
            "wall_seconds": wall,
            "sim_cycles": cycles,
            "events": events,
            "events_per_second": events / wall if wall > 0 else 0.0,
            "ckpt_restored": int(restored),
            "trace_store_hits": int(store_delta.get("hits", 0)),
        }

    def _execute_impl(self, prof: Optional[SpanProfiler]) \
            -> Tuple["JobResult", bool]:
        """The execution body; returns (result, restored-from-ckpt)."""

        def span(name: str) -> ContextManager[None]:
            return prof.span(name) if prof is not None else nullcontext()

        with span("build"):
            engine = self._build_engine()
        store = get_store() if (self.resume and checkpoint_enabled()) \
            else None
        progress_key = "p-" + self.fingerprint()
        restored = False
        if store is not None:
            with span("ckpt:load"):
                state = store.get(progress_key)
            if state is None:
                warm_key = self.warmup_fingerprint()
                with span("ckpt:load"):
                    state = store.get(warm_key)
                if state is not None:
                    try:
                        with span("ckpt:load"):
                            engine.load_state(state)
                        restored = True
                    except (ValueError, RuntimeError, KeyError,
                            TypeError) as exc:
                        store.evict(warm_key,
                                    f"load_state failed: {exc!r}")
                        with span("build"):
                            engine = self._build_engine()
                if not restored:
                    engine.run_warmup()
                    if engine.warmed:
                        with span("ckpt:save"):
                            store.put(warm_key, engine.state_dict(),
                                      self._ckpt_meta("warmup"))
            else:
                try:
                    with span("ckpt:load"):
                        engine.load_state(state)
                    restored = True
                except (ValueError, RuntimeError, KeyError,
                        TypeError) as exc:
                    store.evict(progress_key,
                                f"load_state failed: {exc!r}")
                    with span("build"):
                        engine = self._build_engine()
                    engine.run_warmup()
        else:
            engine.run_warmup()
        self._apply_overrides(engine)
        if store is not None:
            every = mark_interval()
            if every:
                meta = self._ckpt_meta("progress")

                def on_mark(e) -> None:
                    store.put(progress_key, e.state_dict(), meta)

                engine.set_mark_hook(every, on_mark)
        engine.run()
        if store is not None:
            store.remove(progress_key)
        if self.kind == SINGLE:
            value: Union[SimResult, MulticoreResult] = \
                engine.collect()[0]
        else:
            value = MulticoreResult(cores=engine.collect())
        with span("probes"):
            context = ProbeContext(prefetchers=engine.l2_prefetchers,
                                   engine=engine)
            probe_values = run_probes(self.probes, context)
        return JobResult(value=value, probes=probe_values), restored


@dataclass
class JobResult:
    """What a job yields: the engine result plus any probe payloads."""

    value: Union[SimResult, MulticoreResult]
    probes: Dict[str, Any] = field(default_factory=dict)

    @property
    def single(self) -> SimResult:
        if not isinstance(self.value, SimResult):
            raise TypeError("job produced a multi-core result")
        return self.value

    @property
    def multicore(self) -> MulticoreResult:
        if not isinstance(self.value, MulticoreResult):
            raise TypeError("job produced a single-core result")
        return self.value


def execute_job(job: SimJob,
                traceparent: Optional[str] = None) -> JobResult:
    """Module-level entry point (picklable) for pool workers.

    ``traceparent`` is the submitting request's context in wire form
    (strings cross the ``ProcessPoolExecutor`` boundary; frozen
    dataclasses would too, but the wire form keeps one parse path with
    the serve envelope).  The job runs under a *child* span of it, so
    its runlog records and profiler spans carry the request's trace_id
    with this hop's own span identity.
    """
    context = obs_trace.parse_or_none(traceparent)
    if context is None or not obs_trace.enabled():
        return job.execute()
    previous = obs_trace.install(context.child())
    try:
        return job.execute()
    finally:
        obs_trace.install(previous)


def prewarm_job(job: SimJob) -> bool:
    """Module-level prewarm entry point (picklable) for pool workers."""
    return job.prewarm()
