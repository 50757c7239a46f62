"""Streaming out-of-core trace pipeline.

Trace flow as composable generator stages over fixed-size columnar
chunks, with in-band control metadata (checkpoint marks, warm/measure
boundaries, telemetry flush points) riding the stream, plus a chunked
mmap-backed on-disk :class:`TraceStore` so paper-scale (100M+-access)
traces generate once, persist, and replay in constant memory.

Every ``repro.runner`` trace acquisition goes through the store and
replays via :class:`StreamingTrace`, record-for-record identical to the
in-memory :class:`~repro.sim.trace.Trace`.  ``REPRO_TRACE_DIR``
overrides the store root (default ``benchmarks/.traces``).

``python -m repro.tracestream gen`` generates a workload into the
store; ``python -m repro.store traces list|verify|gc`` maintains it.
"""

from .chunk import (CHUNK_RECORDS, MARK_CKPT, MARK_TELEMETRY, MARK_WARM,
                    Mark, StreamItem, TraceChunk, concat_chunks,
                    make_chunk)
from .stages import (bias, chunks_of, insert_marks, interleave,
                     periodic_marks, rechunk, records, sample, shift,
                     slice_stream, stream_length, to_trace)
from .store import (ENV_DIR, FORMAT_VERSION, StreamingTrace, TraceStore,
                    default_root, entry_key)

__all__ = [
    "CHUNK_RECORDS", "MARK_CKPT", "MARK_TELEMETRY", "MARK_WARM", "Mark",
    "StreamItem", "TraceChunk", "concat_chunks", "make_chunk",
    "bias", "chunks_of", "insert_marks", "interleave", "periodic_marks",
    "rechunk", "records", "sample", "shift", "slice_stream",
    "stream_length", "to_trace",
    "ENV_DIR", "FORMAT_VERSION", "StreamingTrace", "TraceStore",
    "default_root", "entry_key",
]
