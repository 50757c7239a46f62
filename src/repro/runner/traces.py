"""Per-process trace acquisition: in-memory LRU, optional on-disk store.

Trace generation is pure — ``make(workload, n, seed)`` always yields the
same trace — but not free (~100K-record numpy builds at bench scale,
100M+-record streams at paper scale), and one experiment asks for the
same trace dozens of times (baseline + every config, every mix
containing the workload).  Two layers cover the two scales:

* The default path memoizes fully materialized traces per process under
  a bounded LRU, so each ``(workload, n, seed)`` is generated once per
  worker.
* With ``REPRO_TRACE_STREAM=1`` acquisition routes through the chunked
  on-disk :class:`repro.tracestream.TraceStore`: the trace is generated
  once (by whichever worker gets there first), persisted, and every
  consumer replays it as an mmap-backed
  :class:`~repro.tracestream.StreamingTrace` in constant memory.
  Results are bit-identical to the in-memory path — the knob is a pure
  execution strategy and is excluded from job fingerprints (like
  ``SimJob.resume`` in :mod:`repro.runner.jobs`).
  ``REPRO_TRACE_STREAM=0`` forces the in-memory path; unset/``auto``
  currently defaults to in-memory.

Store traffic is counted per process (:func:`store_stats`) and reported
through the run-log ``job_end`` record for cache-effectiveness review
(``python -m repro.obs report``).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..envknobs import env_tristate
from ..obs import profile as obs_profile
from ..sim.trace import Trace, TraceSource
from ..tracestream.store import StreamingTrace, TraceStore, default_root
from ..workloads import make, make_chunks

#: LRU bound; a trace is a few MB at bench scale.
DEFAULT_CAPACITY = 64

_cache: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()

#: Open streaming handles (mmap-backed; a handle is a header plus a
#: tiny chunk cache, so these are never evicted within a process).
_stream_handles: Dict[Tuple[str, int, int], StreamingTrace] = {}
_store: Optional[TraceStore] = None

#: Per-process store effectiveness counters (monotonic; job_end records
#: report deltas).  "hit" = replayed from disk, "miss" = generated and
#: persisted this call.
_stats = {"hits": 0, "misses": 0}


def _capacity() -> int:
    """LRU bound from ``REPRO_TRACE_CACHE`` (0 disables caching)."""
    raw = os.environ.get("REPRO_TRACE_CACHE", "")
    if not raw:
        return DEFAULT_CAPACITY
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_TRACE_CACHE must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"REPRO_TRACE_CACHE must be >= 0, got {cap}")
    return cap


def streaming_enabled() -> bool:
    """Whether trace acquisition goes through the on-disk store.

    ``REPRO_TRACE_STREAM`` is a validated tri-state
    (:func:`repro.envknobs.env_tristate`): ``1`` forces streaming, ``0``
    forces in-memory,
    unset/``auto`` defers to the default (in-memory for now — flipping
    the default is a one-line change here once streaming has soaked).
    """
    forced = env_tristate("REPRO_TRACE_STREAM")
    if forced is not None:
        return forced
    return False


def _get_store() -> TraceStore:
    global _store
    # Re-resolve when REPRO_TRACE_DIR changes (tests point it at tmp
    # dirs); TraceStore construction is cheap.
    root = default_root()
    if _store is None or _store.root != root:
        _store = TraceStore(root)
    return _store


def _get_streaming(workload: str, n: int, seed: int) -> StreamingTrace:
    key = (workload, n, seed)
    handle = _stream_handles.get(key)
    if handle is not None:
        return handle
    store = _get_store()
    prof = obs_profile.current()
    trace = store.get(workload, n, seed)
    if trace is None:
        _stats["misses"] += 1
        # Generate → persist → replay from disk; a racing worker's
        # entry is adopted atomically inside put().  Generation is the
        # expensive path worth attributing, like the in-memory miss.
        if prof is None:
            trace = store.put(workload, n, seed,
                              make_chunks(workload, n, seed))
        else:
            with prof.span("trace"):
                trace = store.put(workload, n, seed,
                                  make_chunks(workload, n, seed))
    else:
        _stats["hits"] += 1
    _stream_handles[key] = trace
    return trace


def get_trace(workload: str, n: int, seed: int) -> TraceSource:
    """The memoized trace for one workload instantiation.

    Returns an in-memory :class:`Trace` (default) or a disk-backed
    :class:`StreamingTrace` (``REPRO_TRACE_STREAM=1``); both satisfy
    :class:`~repro.sim.trace.TraceSource` and replay identical records.
    """
    if streaming_enabled():
        return _get_streaming(workload, n, seed)
    key = (workload, n, seed)
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit
    prof = obs_profile.current()
    if prof is None:
        trace = make(workload, n, seed)
    else:
        # Cache misses are the expensive path worth attributing; hits
        # are dict lookups and stay unspanned.
        with prof.span("trace"):
            trace = make(workload, n, seed)
    cap = _capacity()
    if cap > 0:
        _cache[key] = trace
        while len(_cache) > cap:
            _cache.popitem(last=False)
    return trace


def store_stats() -> Dict[str, int]:
    """Monotonic per-process trace-store counters (hits/misses)."""
    return dict(_stats)


def cache_size() -> int:
    return len(_cache)


def clear() -> None:
    _cache.clear()
    _stream_handles.clear()
    global _store
    _store = None
