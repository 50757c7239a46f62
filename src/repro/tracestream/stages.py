"""Composable generator stages over chunk streams.

Every stage takes an iterator of :class:`~repro.tracestream.chunk.StreamItem`
(chunks interleaved with in-band :class:`Mark` items) and yields the
same.  Data transforms (:func:`bias`, :func:`shift`, :func:`rechunk`)
are pure chunk→chunk numpy ops; marks bypass them untouched and in
order, so control metadata rides the stream without the stage knowing
it exists (talkpipe's bypass design).  :func:`insert_marks` splits
chunks at mark positions, which is what makes in-order pass-through
position-exact.

The terminal stage is :func:`records` (flatten to the engine's
``(pc, addr, is_write, gap, dep)`` scalar tuples, firing a callback at
each mark); :meth:`repro.tracestream.store.TraceStore.put` is the
persistent sink.
"""

from __future__ import annotations

from typing import (Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .chunk import (CHUNK_RECORDS, Mark, StreamItem, TraceChunk,
                    concat_chunks)

#: One engine record: (pc, addr, is_write, gap, dep).
Record = Tuple[int, int, bool, int, bool]


# -- sources -------------------------------------------------------------------

def chunks_of(source, start: int = 0,
              size: int = CHUNK_RECORDS) -> Iterator[TraceChunk]:
    """Chunk stream over any :class:`~repro.sim.trace.TraceSource`.

    Uses the source's ``chunk_at`` so an mmap-backed source never
    materializes more than ``size`` records at once.
    """
    n = len(source)
    for lo in range(start, n, size):
        yield source.chunk_at(lo, min(n, lo + size))


# -- transforms (marks bypass untouched) ---------------------------------------

def _map_chunks(stream: Iterable[StreamItem],
                fn: Callable[[TraceChunk], TraceChunk]
                ) -> Iterator[StreamItem]:
    for item in stream:
        yield fn(item) if isinstance(item, TraceChunk) else item


def bias(stream: Iterable[StreamItem], core: int,
         region_bits: int) -> Iterator[StreamItem]:
    """Fold addresses into ``core``'s private region (multicore mixes).

    Vectorized equivalent of the per-record
    ``(addr & mask) | core << region_bits`` fold.
    """
    mask = (1 << region_bits) - 1
    region = core << region_bits

    def fold(c: TraceChunk) -> TraceChunk:
        return c.replace(addrs=(c.addrs & mask) | region)

    return _map_chunks(stream, fold)


def shift(stream: Iterable[StreamItem], pc_offset: int = 0,
          addr_offset: int = 0) -> Iterator[StreamItem]:
    """Relocate PCs/addresses (phase composition, tenant isolation)."""

    def move(c: TraceChunk) -> TraceChunk:
        return c.replace(pcs=c.pcs + pc_offset,
                         addrs=c.addrs + addr_offset)

    return _map_chunks(stream, move)


def rechunk(stream: Iterable[StreamItem],
            size: int = CHUNK_RECORDS) -> Iterator[StreamItem]:
    """Normalize chunk sizes to exactly ``size`` (last chunk partial).

    A mark flushes the pending partial buffer first, so the mark stays
    exactly between the records it arrived between.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    pending: List[TraceChunk] = []
    buffered = 0
    for item in stream:
        if not isinstance(item, TraceChunk):
            if pending:
                yield concat_chunks(pending)
                pending, buffered = [], 0
            yield item
            continue
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


def insert_marks(stream: Iterable[StreamItem], marks: Sequence[Mark],
                 base: int = 0) -> Iterator[StreamItem]:
    """Merge ``marks`` (sorted by position) into the stream in band.

    Chunks are split at mark positions, so each mark lands exactly
    between the records its ``position`` names and stays there through
    any chain of pass-through transforms.  Positions are absolute:
    ``base`` names the absolute index of the stream's first record (for
    a stream produced by ``chunks_of(source, start)``, pass the same
    ``start``); marks at positions < base fire immediately.
    """
    queue = sorted(marks, key=lambda m: m.position)
    qi = 0
    pos = base
    for item in stream:
        if not isinstance(item, TraceChunk):
            yield item
            continue
        m = len(item)
        lo = 0
        while qi < len(queue) and queue[qi].position <= pos + m:
            cut = queue[qi].position - pos
            if cut > lo:
                yield item.slice(lo, cut)
                lo = cut
            elif cut < lo:  # mark behind the stream: fire immediately
                pass
            yield queue[qi]
            qi += 1
        if lo < m:
            yield item.slice(lo, m)
        pos += m
    while qi < len(queue):  # marks past the end still fire
        yield queue[qi]
        qi += 1


# -- sinks ---------------------------------------------------------------------

def records(stream: Iterable[StreamItem],
            on_mark: Optional[Callable[[Mark], None]] = None
            ) -> Iterator[Record]:
    """Flatten a chunk stream into the engine's scalar record tuples.

    Conversion is per-chunk ``tolist`` (the ``Trace.__iter__`` recipe:
    constant memory, no per-record numpy scalar boxing).  Marks fire
    ``on_mark`` exactly between the two records they sit between.
    """
    for item in stream:
        if not isinstance(item, TraceChunk):
            if on_mark is not None:
                on_mark(item)
            continue
        yield from zip(item.pcs.tolist(), item.addrs.tolist(),
                       item.writes.tolist(), item.gaps.tolist(),
                       item.deps.tolist())

