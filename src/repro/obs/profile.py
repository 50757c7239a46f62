"""Opt-in span profiler: where does simulator wall-clock time go?

``REPRO_PROFILE=1`` makes every job executed through
:meth:`repro.runner.jobs.SimJob.execute` carry a nested-span timing
profile: the job phases (trace/engine build, warm-up, measured region,
collect, checkpoint I/O, probes) and the hot-path components inside them
(per-level cache lookups, DRAM service, per-prefetcher train and issue,
metadata port traffic).  The profile is attached to single-core
``SimResult``s (``SimResult.profile``) and shipped with the run log's
``job_end`` record, where ``python -m repro obs report`` aggregates it
across a sweep.

Default-off is free: nothing here allocates or runs unless a profiler is
active — instrumented call sites hold a ``None`` reference and branch on
it, mirroring the telemetry subsystem's zero-subscriber guarantee.  The
profiler only *reads* ``perf_counter``; it never touches simulation
state, so profiled runs produce bit-identical ``SimResult`` numbers
(asserted by ``benchmarks/bench_obs_overhead.py``).

Span identity is the ``/``-joined path of span *names* from the root
(``job/measure/lookup:l1d/lookup:l2``).  Names use ``:`` for their own
namespacing (``lookup:l2``, ``train:streamline``) so ``/`` stays a pure
path separator.  Aggregation happens at ``stop()`` time into a flat
``path -> [total, self, count]`` dict — no per-span objects survive, so
profiling a 100K-access run costs two ``perf_counter`` reads and one
dict update per span, not a 100K-node tree.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

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
# process-level), so a module global is the natural scope: the engine,
# hierarchy, and trace cache pick the active profiler up at build time
# without every constructor threading it through.

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
