"""Streaming out-of-core trace pipeline.

Trace flow as composable generator stages over fixed-size columnar
chunks, one record iterator (:class:`ChunkedSource`) that every trace
source shares, plus a chunked mmap-backed on-disk :class:`TraceStore`
so paper-scale (100M+-access) traces generate once, persist, and
replay in constant memory.

Every ``repro.runner`` trace acquisition goes through the store and
replays via :class:`StreamingTrace`, record-for-record identical to the
in-memory :class:`~repro.sim.trace.Trace`.  ``REPRO_TRACE_DIR``
overrides the store root (default ``benchmarks/.traces``).

``python -m repro.tracestream gen`` generates a workload into the
store; ``python -m repro.store traces list|verify|gc`` maintains it.
"""

from .chunk import (CHUNK_RECORDS, ChunkedSource, TraceChunk,
                    concat_chunks, make_chunk)
from .stages import rechunk, shift
from .store import (ENV_DIR, FORMAT_VERSION, StreamingTrace, TraceStore,
                    default_root, entry_key)

__all__ = [
    "CHUNK_RECORDS", "ChunkedSource", "TraceChunk", "concat_chunks",
    "make_chunk", "rechunk", "shift",
    "ENV_DIR", "FORMAT_VERSION", "StreamingTrace", "TraceStore",
    "default_root", "entry_key",
]
