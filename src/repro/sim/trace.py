"""Memory-access traces.

A trace is the unit of work the engine consumes: an ordered sequence of
memory operations, each carrying the PC of the load/store, the byte
address, a write flag, and the number of non-memory instructions retired
since the previous memory operation (so instruction counts and IPC can be
reconstructed without simulating non-memory work).

The engine is written against the :class:`TraceSource` protocol, which
the fully materialized :class:`Trace` below satisfies, as do
:class:`TraceWindow`, :class:`repro.tracestream.StreamingTrace` (a
chunked on-disk store entry replayed through mmap in constant memory)
and the multicore region view.  Each supplies ``chunk_at``; record and
chunk iteration are written once over it
(:class:`~repro.tracestream.chunk.ChunkedSource`), which is what makes
every source hand out the same record tuples for the same records.

Traces are immutable once built; the trace store persists them.
"""

from __future__ import annotations

from typing import (Iterable, Iterator, List, Optional, Protocol, Sequence,
                    Tuple, runtime_checkable)

import numpy as np

from ..tracestream.chunk import CHUNK_RECORDS, ChunkedSource, TraceChunk


@runtime_checkable
class TraceSource(Protocol):
    """What the engine and the streaming pipeline need from a trace.

    ``iter_from`` yields plain-Python ``(pc, addr, is_write, gap, dep)``
    tuples; ``chunk_at`` hands out bounded columnar windows (the unit of
    vectorization for the streaming pipeline).  Implementations must
    return identical values for identical logical traces — the
    streaming/in-memory bit-identity guarantee rests on it.
    """

    name: str

    def __len__(self) -> int: ...

    @property
    def instructions(self) -> int: ...

    def __iter__(self) -> Iterator[Tuple[int, int, bool, int, bool]]: ...

    def iter_from(self, start: int
                  ) -> Iterator[Tuple[int, int, bool, int, bool]]: ...

    def iter_chunks(self, start: int = 0) -> Iterator[TraceChunk]: ...

    def chunk_at(self, start: int, stop: int) -> TraceChunk: ...


class Trace(ChunkedSource):
    """An immutable memory-access trace backed by numpy arrays.

    ``dep`` marks loads that consume the value of the *previous* load
    (linked-structure traversals): the timing proxy serializes them,
    which is what makes pointer chases latency-bound and is why covering
    their misses pays off so much.
    """

    def __init__(self, name: str, pcs: Sequence[int], addrs: Sequence[int],
                 writes: Sequence[bool], gaps: Sequence[int],
                 deps: Optional[Sequence[bool]] = None):
        n = len(pcs)
        if not (len(addrs) == len(writes) == len(gaps) == n):
            raise ValueError("trace arrays must have equal length")
        self.name = name
        self.pcs = np.asarray(pcs, dtype=np.int64)
        self.addrs = np.asarray(addrs, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=np.bool_)
        self.gaps = np.asarray(gaps, dtype=np.int32)
        if deps is None:
            self.deps = np.zeros(n, dtype=np.bool_)
        else:
            if len(deps) != n:
                raise ValueError("trace arrays must have equal length")
            self.deps = np.asarray(deps, dtype=np.bool_)

    def __len__(self) -> int:
        return len(self.pcs)

    def chunk_at(self, start: int, stop: int) -> TraceChunk:
        """Chunk view of records ``[start, stop)`` (aliasing slices)."""
        return TraceChunk(self.pcs[start:stop], self.addrs[start:stop],
                          self.writes[start:stop], self.gaps[start:stop],
                          self.deps[start:stop])

    @property
    def instructions(self) -> int:
        """Total retired instructions represented by this trace."""
        return int(self.gaps.sum(dtype=np.int64)) + len(self)

    def slice(self, start: int, stop: int) -> "Trace":
        return Trace(f"{self.name}[{start}:{stop}]",
                     self.pcs[start:stop], self.addrs[start:stop],
                     self.writes[start:stop], self.gaps[start:stop],
                     self.deps[start:stop])

    def footprint_blocks(self) -> int:
        """Number of distinct 64B blocks touched."""
        return int(np.unique(self.addrs >> 6).size)

    def unique_pcs(self) -> int:
        return int(np.unique(self.pcs).size)

    @classmethod
    def from_chunks(cls, name: str,
                    chunks: Iterable[TraceChunk]) -> "Trace":
        """Materialize a chunk stream."""
        parts = list(chunks)
        if not parts:
            return cls(name, [], [], [], [])
        if len(parts) == 1:
            c = parts[0]
            return cls(name, c.pcs, c.addrs, c.writes, c.gaps, c.deps)
        return cls(name,
                   np.concatenate([c.pcs for c in parts]),
                   np.concatenate([c.addrs for c in parts]),
                   np.concatenate([c.writes for c in parts]),
                   np.concatenate([c.gaps for c in parts]),
                   np.concatenate([c.deps for c in parts]))


class TraceWindow(ChunkedSource):
    """A lazy, zero-copy view of records ``[start, stop)`` of a trace.

    Satisfies :class:`TraceSource` by delegating every bounded columnar
    access to the base source with shifted offsets, so it composes with
    both the in-memory :class:`Trace` and the streaming store entry —
    and, because the engine consumes traces purely through the protocol,
    a windowed simulation runs exactly the loop a full one does.  This
    is the execution substrate of :mod:`repro.sampling`: a
    representative interval simulates as a window whose warm-up region
    is the bounded prefix immediately before it.

    Unlike :meth:`Trace.slice`, nothing is materialized: a window over a
    100M-access streaming trace costs O(1) memory.
    """

    def __init__(self, base: TraceSource, start: int, stop: int):
        if not 0 <= start < stop <= len(base):
            raise ValueError(
                f"window [{start}, {stop}) out of range for trace of "
                f"length {len(base)}")
        self.base = base
        self.start = start
        self.stop = stop
        self.name = f"{base.name}[{start}:{stop}]"
        self._instructions: Optional[int] = None

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def instructions(self) -> int:
        """Retired instructions in the window (computed once, chunked)."""
        if self._instructions is None:
            self._instructions = len(self) + sum(
                int(c.gaps.sum(dtype=np.int64)) for c in self.iter_chunks())
        return self._instructions

    def chunk_at(self, start: int, stop: int) -> TraceChunk:
        return self.base.chunk_at(self.start + start, self.start + stop)


class TraceBuilder:
    """Mutable helper used by the workload generators.

    Records accumulate into fixed-size numpy column buffers (flushed to
    an immutable chunk list when full), so building a trace costs its
    numpy size plus one partial chunk — not the ~10x of five growing
    Python lists of boxed scalars.
    """

    #: Records per builder buffer (one flush each).
    CHUNK = CHUNK_RECORDS

    def __init__(self, name: str):
        self.name = name
        self._chunks: List[TraceChunk] = []
        self._fill = 0
        self._alloc()

    def _alloc(self) -> None:
        c = self.CHUNK
        self._pcs = np.empty(c, dtype=np.int64)
        self._addrs = np.empty(c, dtype=np.int64)
        self._writes = np.empty(c, dtype=np.bool_)
        self._gaps = np.empty(c, dtype=np.int32)
        self._deps = np.empty(c, dtype=np.bool_)

    def _flush(self) -> None:
        """Freeze the (full or partial) buffer into the chunk list."""
        i = self._fill
        if not i:
            return
        self._chunks.append(TraceChunk(
            self._pcs[:i].copy(), self._addrs[:i].copy(),
            self._writes[:i].copy(), self._gaps[:i].copy(),
            self._deps[:i].copy()))
        self._fill = 0

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks) + self._fill

    def add(self, pc: int, addr: int, is_write: bool = False,
            gap: int = 3, dep: bool = False) -> None:
        i = self._fill
        if i == self.CHUNK:
            self._flush()
            i = 0
        self._pcs[i] = pc
        self._addrs[i] = addr
        self._writes[i] = is_write
        self._gaps[i] = gap
        self._deps[i] = dep
        self._fill = i + 1

    def add_chunk(self, chunk: TraceChunk) -> None:
        """Append a whole columnar chunk (vectorized generators)."""
        if len(chunk):
            self._flush()
            self._chunks.append(chunk)

    def extend(self, other: "TraceBuilder") -> None:
        self._flush()
        self._chunks.extend(other._chunks)
        if other._fill:
            i = other._fill
            self._chunks.append(TraceChunk(
                other._pcs[:i].copy(), other._addrs[:i].copy(),
                other._writes[:i].copy(), other._gaps[:i].copy(),
                other._deps[:i].copy()))

    def build(self) -> Trace:
        self._flush()
        return Trace.from_chunks(self.name, self._chunks)
