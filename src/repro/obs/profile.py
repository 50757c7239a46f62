"""Opt-in span profiler: where does simulator wall-clock time go?

``REPRO_PROFILE=1`` makes every job executed through
:meth:`repro.runner.jobs.SimJob.execute` carry a nested-span timing
profile: the job phases (trace/engine build, warm-up, measured region,
collect, checkpoint I/O, probes) and the hot-path components inside them
(the demand walk, per-level cache lookups, DRAM service, per-prefetcher
train and issue, metadata port traffic).  The profile is attached to
single-core ``SimResult``s (``SimResult.profile``) and shipped with the
run log's ``job_end`` record, where ``python -m repro obs report``
aggregates it across a sweep.

The simulator knows nothing of this module.  Phases open through
:func:`span`, which is a no-op unless a job profiler is active; the
components are attached by :func:`instrument`, which wraps the methods
of one freshly built engine's own objects (instance attributes, so the
classes stay untouched and nothing is restored: the wrappers die with
the engine).  With the profiler off neither does anything, so the
default path runs the plain simulator.  The profiler only *reads*
``perf_counter``; it never touches simulation state, so profiled runs
produce bit-identical ``SimResult`` numbers (asserted by
``benchmarks/bench_obs_overhead.py``).

Span identity is the ``/``-joined path of span *names* from the root
(``job/measure/access/lookup:l2``).  Names use ``:`` for their own
namespacing (``lookup:l2``, ``train:streamline``) so ``/`` stays a pure
path separator.  Aggregation happens at ``stop()`` time into a flat
``path -> [total, self, count]`` dict — no per-span objects survive, so
profiling a 100K-access run costs two ``perf_counter`` reads and one
dict update per span, not a 100K-node tree.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, ContextManager, Dict, Iterator, List, \
    Optional

from ..envknobs import env_flag

#: Version of the profile payload layout (bump when fields change shape).
PROFILE_SCHEMA_VERSION = 1

#: Name of the implicit root span wrapped around a job execution.
ROOT = "job"


def enabled() -> bool:
    """The ``REPRO_PROFILE`` opt-in (validated; junk values raise)."""
    return env_flag("REPRO_PROFILE", False)


class SpanProfiler:
    """Nested wall-clock spans, aggregated by path as they close.

    ``start``/``stop`` are deliberately tiny (list push/pop, one dict
    update) because they run on the simulator's per-access hot path when
    profiling is on.  ``span()`` is the convenience context manager for
    coarse, cold phases.
    """

    __slots__ = ("_stack", "_agg")

    def __init__(self) -> None:
        # Open-span stack; each frame is [path, start_time, child_time].
        self._stack: List[List[Any]] = []
        # path -> [total_seconds, self_seconds, count]
        self._agg: Dict[str, List[Any]] = {}

    def start(self, name: str) -> None:
        stack = self._stack
        path = stack[-1][0] + "/" + name if stack else name
        stack.append([path, perf_counter(), 0.0])

    def stop(self) -> None:
        path, t0, child = self._stack.pop()
        dt = perf_counter() - t0
        agg = self._agg.get(path)
        if agg is None:
            self._agg[path] = [dt, dt - child, 1]
        else:
            agg[0] += dt
            agg[1] += dt - child
            agg[2] += 1
        if self._stack:
            self._stack[-1][2] += dt

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.start(name)
        try:
            yield
        finally:
            self.stop()

    def close(self) -> None:
        """Close every span still open (crash-safety for ``end_job``)."""
        while self._stack:
            self.stop()

    # -- reporting ---------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        """The aggregated span table, sorted by path (tree order)."""
        return [{"path": path, "total": agg[0], "self": agg[1],
                 "count": agg[2]}
                for path, agg in sorted(self._agg.items())]

    def report(self) -> Dict[str, Any]:
        """The whole profile as plain picklable/JSON-serializable data.

        ``wall_seconds``
            Total time of the root span.
        ``phases``
            Top-level children of the root (``build``, ``warmup``,
            ``measure``, ``collect``, ``ckpt:*``, ``probes``), by total
            time; they partition the job, so their sum tracks
            ``wall_seconds`` (asserted within 10% by
            ``bench_obs_overhead.py``).
        ``components``
            Self-time and count aggregated by span *name* across every
            path — the "where does the time go" view (lookups per level,
            train/issue per prefetcher, DRAM, trace generation, ...).
        ``spans``
            The full nested table (path/total/self/count).
        """
        from . import trace as obs_trace
        root = self._agg.get(ROOT)
        phases: Dict[str, float] = {}
        components: Dict[str, Dict[str, Any]] = {}
        for path, (total, self_s, count) in self._agg.items():
            head, _, tail = path.rpartition("/")
            if head == ROOT:
                phases[tail] = phases.get(tail, 0.0) + total
            name = tail if tail else path
            comp = components.get(name)
            if comp is None:
                components[name] = {"seconds": self_s, "count": count}
            else:
                comp["seconds"] += self_s
                comp["count"] += count
        out = {
            "schema": PROFILE_SCHEMA_VERSION,
            "enabled": True,
            "wall_seconds": root[0] if root else 0.0,
            "phases": dict(sorted(phases.items())),
            "components": dict(sorted(components.items())),
            "spans": self.spans(),
        }
        # report() runs while the job's trace context is still
        # installed, so the profile payload carries the same trace as
        # the runlog records it ships with.
        context = obs_trace.current()
        if context is not None:
            out.update(context.fields())
        return out


# -- the per-process active profiler -------------------------------------------
#
# One job executes at a time per process (the runner's parallelism is
# process-level), so a module global is the natural scope: phase spans
# and :func:`instrument` find the job's profiler here, and no simulator
# constructor carries it.

_current: Optional[SpanProfiler] = None


def current() -> Optional[SpanProfiler]:
    """The profiler of the job executing in this process, or None."""
    return _current


def start_job() -> Optional[SpanProfiler]:
    """Open a job-root profiler if ``REPRO_PROFILE`` is on (else None)."""
    global _current
    if not enabled():
        return None
    profiler = SpanProfiler()
    profiler.start(ROOT)
    _current = profiler
    return profiler


def end_job(profiler: Optional[SpanProfiler]) -> None:
    """Close the job root (and any spans a crash left open)."""
    global _current
    if profiler is None:
        return
    profiler.close()
    if _current is profiler:
        _current = None


def span(name: str) -> ContextManager[None]:
    """A span of the active job profiler; a no-op when none is active."""
    return _current.span(name) if _current is not None else nullcontext()


# -- component spans on a built engine ---------------------------------------


def instrument(engine: Any) -> None:
    """Span the hot-path components of one freshly built engine.

    A no-op unless a job profiler is active.  Each wrapper is set on the
    engine's own object, shadowing the class method for that instance
    only:

    * ``access`` — ``CoreHierarchy.access``; its self time is the rest
      of the demand walk (event dispatch, fills, writebacks);
    * ``lookup:l1d`` / ``lookup:l2`` — that core's ``Cache.lookup``
      (the tag lookup alone);
    * ``lookup:llc`` — ``CoreHierarchy._llc_access`` (port, LLC, DRAM
      on a miss, LLC fill);
    * ``dram`` — ``DRAM.access``, writeback accesses included;
    * ``metadata`` — ``CoreHierarchy.metadata_access``;
    * ``train:<pf>`` — each prefetcher's ``train``;
    * ``issue:<pf>`` — ``CoreHierarchy.issue_prefetch``, named by the
      issuing owner and opened once per candidate.

    ``Cache.fill`` and ``EventBus.publish`` stay unwrapped: spanning
    them would cost more than they tell.
    """
    profiler = _current
    if profiler is None:
        return
    start, stop = profiler.start, profiler.stop

    def timed(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stop()
        return wrapper

    uncore = engine.uncore
    issue_spans = {owner: "issue:" + pf.name
                   for owner, pf in uncore.prefetchers.items()}

    def timed_issue(issue: Callable[..., bool]) -> Callable[..., bool]:
        def issue_prefetch(blk: int, pc: int, now: float, owner: int,
                           target: str = "l2") -> bool:
            start(issue_spans[owner])
            try:
                return issue(blk, pc, now, owner, target)
            finally:
                stop()
        return issue_prefetch

    uncore.dram.access = timed("dram", uncore.dram.access)
    for pf in uncore.prefetchers.values():
        pf.train = timed("train:" + pf.name, pf.train)
    for core in engine.cores:
        core.access = timed("access", core.access)
        core.l1d.lookup = timed("lookup:l1d", core.l1d.lookup)
        core.l2.lookup = timed("lookup:l2", core.l2.lookup)
        core._llc_access = timed("lookup:llc", core._llc_access)
        core.metadata_access = timed("metadata", core.metadata_access)
        core.issue_prefetch = timed_issue(core.issue_prefetch)
