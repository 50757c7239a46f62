"""Per-process trace acquisition through the on-disk trace store.

Trace generation is pure — ``make(workload, n, seed)`` always yields the
same trace — but not free (~100K-record numpy builds at bench scale,
100M+-record streams at paper scale), and one experiment asks for the
same trace dozens of times (baseline + every config, every mix
containing the workload).  :func:`get_trace` therefore routes every
acquisition through the chunked :class:`repro.tracestream.TraceStore`
(``REPRO_TRACE_DIR``, default ``benchmarks/.traces``): the trace is
generated once, by whichever process gets there first, persisted, and
every consumer replays it as an mmap-backed
:class:`~repro.tracestream.StreamingTrace` in constant memory.  Handles
are memoized per process.  Replay is record-for-record identical to the
in-memory :class:`~repro.sim.trace.Trace` that ``make`` builds
(``tests/test_tracestream.py`` holds the parity).

The store counts its hits and misses (:func:`store_stats`); job_end
run-log records report them per job for cache-effectiveness review
(``python -m repro obs report``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs import profile as obs_profile
from ..tracestream.store import StreamingTrace, TraceStore, default_root
from ..workloads import make_chunks

#: Open handles (a handle is its header and maps chunk files only while
#: a read holds them, so these are never evicted within a process).
_handles: Dict[Tuple[str, int, int], StreamingTrace] = {}
_store: Optional[TraceStore] = None


def _get_store() -> TraceStore:
    global _store
    # Re-resolve when REPRO_TRACE_DIR changes (tests point it at tmp
    # dirs); TraceStore construction is cheap.
    root = default_root()
    if _store is None or _store.directory != root:
        _store = TraceStore(root)
    return _store


def get_trace(workload: str, n: int, seed: int) -> StreamingTrace:
    """The memoized, store-backed trace for one workload instantiation."""
    key = (workload, n, seed)
    handle = _handles.get(key)
    if handle is not None:
        return handle
    store = _get_store()
    trace = store.get(workload, n, seed)
    if trace is None:
        # Generate → persist → replay from disk; a racing worker's
        # entry is adopted atomically inside put().  Generation is the
        # expensive path worth attributing; hits stay unspanned.
        with obs_profile.span("trace"):
            trace = store.put(workload, n, seed,
                              make_chunks(workload, n, seed))
    _handles[key] = trace
    return trace


def store_stats() -> Dict[str, int]:
    """The trace store's monotonic hit/miss counters."""
    return _get_store().stats()


def clear() -> None:
    """Forget this process's open handles."""
    _handles.clear()
