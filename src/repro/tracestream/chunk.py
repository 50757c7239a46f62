"""Columnar trace chunks and in-band control marks.

A *chunk stream* is the unit of flow in :mod:`repro.tracestream`: an
iterator yielding :class:`TraceChunk` items (fixed-ish-size numpy
struct-of-arrays slabs of trace records) interleaved with
:class:`Mark` items (control metadata — the engine's checkpoint
progress marks — that ride the stream *in band* without breaking it,
after talkpipe's segment/bypass design).

Transform stages operate on chunks and pass marks through untouched and
in order; :func:`repro.tracestream.stages.insert_marks` splits chunks at
mark positions, so in-order pass-through is enough to keep a mark
exactly between the two records it was inserted between.  Every mark
also carries its absolute record ``position`` (the index of the record
*after* it), which is authoritative when a stage cannot preserve
interleaving (e.g. ``rechunk`` flushing a partial buffer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Union

import numpy as np

#: Default records per chunk.  Matches ``repro.sim.trace.ITER_CHUNK``:
#: large enough that per-chunk overhead vanishes, small enough that one
#: chunk (~22 bytes/record → ~1.4MB) keeps streaming memory trivial.
CHUNK_RECORDS = 1 << 16

#: The engine's periodic checkpoint progress mark, the one mark kind
#: in use (stages treat kinds opaquely).
MARK_CKPT = "ckpt"


class TraceChunk:
    """A struct-of-arrays slab of trace records.

    Columns mirror :class:`repro.sim.trace.Trace`: ``pcs`` (int64),
    ``addrs`` (int64), ``writes`` (bool), ``gaps`` (int32), ``deps``
    (bool).  Treat the arrays as read-only; they may alias a trace's
    (or an mmap'd store chunk's) backing storage.  ``len(chunk)`` is
    the record count; iterating a chunk yields its five columns (so
    ``TraceChunk(*(f(col) for col in chunk))`` maps a columnwise
    transform).
    """

    _fields = ("pcs", "addrs", "writes", "gaps", "deps")
    __slots__ = _fields

    def __init__(self, pcs: np.ndarray, addrs: np.ndarray,
                 writes: np.ndarray, gaps: np.ndarray,
                 deps: np.ndarray):
        self.pcs = pcs
        self.addrs = addrs
        self.writes = writes
        self.gaps = gaps
        self.deps = deps

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self):
        return iter((self.pcs, self.addrs, self.writes, self.gaps,
                     self.deps))

    def __repr__(self) -> str:
        return f"TraceChunk(<{len(self)} records>)"

    def replace(self, **columns: np.ndarray) -> "TraceChunk":
        """Copy of the chunk with some columns substituted."""
        cols = {f: getattr(self, f) for f in self._fields}
        cols.update(columns)
        return TraceChunk(**cols)

    def slice(self, start: int, stop: int) -> "TraceChunk":
        return TraceChunk(self.pcs[start:stop], self.addrs[start:stop],
                          self.writes[start:stop], self.gaps[start:stop],
                          self.deps[start:stop])


@dataclass(frozen=True)
class Mark:
    """In-band control metadata: fires *before* the record at ``position``.

    ``position`` is the absolute record index within the logical trace
    (so a mark at position ``p`` sits between records ``p-1`` and ``p``;
    a mark at ``position == len(trace)`` fires after the final record).
    """

    kind: str
    position: int
    payload: Dict[str, Any] = field(default_factory=dict)


#: What flows through a stage: data chunks interleaved with marks.
StreamItem = Union[TraceChunk, Mark]


def make_chunk(pcs, addrs, writes=None, gaps=None, deps=None,
               gap: int = 3) -> TraceChunk:
    """Build a validated chunk, coercing dtypes and filling defaults.

    ``writes``/``deps`` default to all-False, ``gaps`` to the scalar
    ``gap`` — the same defaults as ``TraceBuilder.add``.
    """
    pcs = np.ascontiguousarray(pcs, dtype=np.int64)
    addrs = np.ascontiguousarray(addrs, dtype=np.int64)
    n = len(pcs)
    if len(addrs) != n:
        raise ValueError("chunk columns must have equal length")
    if writes is None:
        writes = np.zeros(n, dtype=np.bool_)
    else:
        writes = np.ascontiguousarray(writes, dtype=np.bool_)
    if gaps is None:
        gaps = np.full(n, gap, dtype=np.int32)
    else:
        gaps = np.ascontiguousarray(gaps, dtype=np.int32)
    if deps is None:
        deps = np.zeros(n, dtype=np.bool_)
    else:
        deps = np.ascontiguousarray(deps, dtype=np.bool_)
    if not (len(writes) == len(gaps) == len(deps) == n):
        raise ValueError("chunk columns must have equal length")
    return TraceChunk(pcs, addrs, writes, gaps, deps)


def concat_chunks(chunks) -> TraceChunk:
    """Concatenate chunks into one (materializes; for small streams)."""
    chunks = list(chunks)
    if not chunks:
        return make_chunk(np.empty(0, np.int64), np.empty(0, np.int64))
    if len(chunks) == 1:
        return chunks[0]
    return TraceChunk(*(np.concatenate([getattr(c, col) for c in chunks])
                        for col in TraceChunk._fields))
