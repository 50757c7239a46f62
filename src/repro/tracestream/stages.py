"""Composable generator stages over chunk streams.

Every stage takes an iterator of
:class:`~repro.tracestream.chunk.TraceChunk` items and yields the same:
pure chunk→chunk numpy ops that the workload generators compose
(:func:`shift` relocates phases, :func:`rechunk` normalizes chunk
sizes).  :meth:`repro.tracestream.store.TraceStore.put` is the
persistent sink, and :class:`~repro.tracestream.chunk.ChunkedSource`
flattens a source back into the engine's record tuples.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from .chunk import CHUNK_RECORDS, TraceChunk, concat_chunks


def shift(stream: Iterable[TraceChunk], pc_offset: int = 0,
          addr_offset: int = 0) -> Iterator[TraceChunk]:
    """Relocate PCs/addresses (phase composition, tenant isolation)."""
    for c in stream:
        yield c.replace(pcs=c.pcs + pc_offset, addrs=c.addrs + addr_offset)


def rechunk(stream: Iterable[TraceChunk],
            size: int = CHUNK_RECORDS) -> Iterator[TraceChunk]:
    """Normalize chunk sizes to exactly ``size`` (last chunk partial)."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    pending: List[TraceChunk] = []
    buffered = 0
    for item in stream:
        off = 0
        m = len(item)
        while off < m:
            take = min(size - buffered, m - off)
            pending.append(item.slice(off, off + take))
            buffered += take
            off += take
            if buffered == size:
                yield (pending[0] if len(pending) == 1
                       else concat_chunks(pending))
                pending, buffered = [], 0
    if pending:
        yield concat_chunks(pending)
