"""Columnar trace chunks and the one record iterator.

A *chunk stream* is the unit of flow in :mod:`repro.tracestream`: an
iterator of :class:`TraceChunk` items (fixed-ish-size numpy
struct-of-arrays slabs of trace records).  :class:`ChunkedSource`
turns any source with ``__len__`` and ``chunk_at`` into a chunk stream
and into the engine's scalar record stream; every trace source (the
in-memory trace, windows, the store replay, the multicore region view)
iterates through it.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

#: Records per chunk: large enough that the per-chunk ``tolist()`` and
#: mmap-open overhead vanishes, small enough that one chunk (~22
#: bytes/record → ~1.4MB) keeps streaming memory constant in trace
#: length.
CHUNK_RECORDS = 1 << 16

#: One engine record: (pc, addr, is_write, gap, dep).
Record = Tuple[int, int, bool, int, bool]


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
    """Concatenate chunks into one (a copy unless there is just one)."""
    chunks = list(chunks)
    if not chunks:
        return make_chunk(np.empty(0, np.int64), np.empty(0, np.int64))
    if len(chunks) == 1:
        return chunks[0]
    return TraceChunk(*(np.concatenate([getattr(c, col) for c in chunks])
                        for col in TraceChunk._fields))


class ChunkedSource:
    """Record and chunk iteration over ``chunk_at``, written once.

    A subclass supplies ``__len__`` and ``chunk_at(start, stop)``; it
    inherits ``__iter__``, ``iter_from`` and ``iter_chunks``.  Records
    come out as plain-Python ``(pc, addr, is_write, gap, dep)`` tuples,
    converted one ``tolist`` per column per chunk, so a replay holds at
    most one chunk (and, for the store, one chunk's mapped files).
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def chunk_at(self, start: int, stop: int) -> TraceChunk:
        raise NotImplementedError

    def iter_chunks(self, start: int = 0) -> Iterator[TraceChunk]:
        """``CHUNK_RECORDS``-record chunks from record ``start`` on."""
        n = len(self)
        for lo in range(start, n, CHUNK_RECORDS):
            yield self.chunk_at(lo, min(n, lo + CHUNK_RECORDS))

    def iter_from(self, start: int) -> Iterator[Record]:
        """Record tuples from record ``start`` on: an O(1) seek, which
        the engine's checkpoint restore relies on."""
        for c in self.iter_chunks(start):
            yield from zip(c.pcs.tolist(), c.addrs.tolist(),
                           c.writes.tolist(), c.gaps.tolist(),
                           c.deps.tolist())

    def __iter__(self) -> Iterator[Record]:
        return self.iter_from(0)
