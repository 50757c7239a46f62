"""Per-interval feature extraction — a streaming pass, not a simulation.

The clusterer needs one vector per fixed-size interval describing the
memory behaviour that *drives* cache/prefetcher outcomes, computable
without running the engine.  Everything here derives from trace
structure alone, streamed in interval-aligned slabs of about one chunk
in constant memory (plus the block-history dict, which is bounded by the
trace's footprint, not its length), each slab computed with numpy:

* access mix: write fraction, dependent-load fraction, mean gap;
* locality: unique-block footprint, first-touch (new-block) fraction,
  sequential-neighbour fraction, PC diversity;
* reuse: a log2-bucketed histogram of per-block reuse distances
  (distance counted in accesses since the block's previous touch) —
  the feature that separates "repeating irregular sequence" intervals
  (temporal-prefetch territory) from streaming or thrashing ones.

Intervals sit on a grid anchored at record 0 (interval ``i`` covers
records ``[i*interval, (i+1)*interval)``); a trailing partial interval
is dropped.  The planner later restricts clustering to intervals that
start inside the measured region, but reuse distances are accumulated
from record 0 so early intervals don't look artificially "new".

``FEATURE_SCHEMA_VERSION`` is part of every plan key: changing what a
vector means orphans old plans instead of silently reusing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..tracestream.chunk import CHUNK_RECORDS, TraceChunk
from ..tracestream.stages import rechunk
from ..workloads import DEFAULT_SEED, make_chunks

#: Bump when the vector layout or any feature definition changes.
FEATURE_SCHEMA_VERSION = 1

#: Log2 reuse-distance buckets: bucket ``b`` holds distances in
#: ``[2**b, 2**(b+1))``; the last bucket absorbs everything longer.
RD_BUCKETS = 12

#: Column names of the feature matrix, in order.
FEATURE_NAMES = [
    "footprint_frac",   # unique blocks touched / interval length
    "new_frac",         # first-ever-touched blocks / interval length
    "write_frac",
    "dep_frac",
    "pc_frac",          # unique PCs / interval length
    "seq_frac",         # |block - prev block| <= 1 fraction
    "gap_mean",         # mean non-memory instructions per access
] + [f"rd_log2_{b}" for b in range(RD_BUCKETS)]


@dataclass
class FeatureMatrix:
    """Per-interval feature vectors for one (workload, n, seed) trace."""

    workload: str
    n: int
    seed: int
    interval: int
    #: Absolute record index where each interval starts (len == rows).
    starts: np.ndarray
    #: ``(num_intervals, len(FEATURE_NAMES))`` float64 matrix.
    matrix: np.ndarray
    schema: int = FEATURE_SCHEMA_VERSION


def _unique_per_row(rows: np.ndarray) -> np.ndarray:
    """Distinct values in each row of a 2-D array."""
    ordered = np.sort(rows, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def _slab_features(chunk: TraceChunk, base: int, interval: int,
                   prev_blk: int, last_seen: Dict[int, int]) -> np.ndarray:
    """Feature rows of one slab of whole intervals starting at record
    ``base``; ``prev_blk`` is the block of record ``base - 1`` (-1 at
    record 0), and ``last_seen`` (block -> last record index) is read
    and then updated once per distinct block of the slab."""
    size = len(chunk)
    rows = size // interval
    blks = chunk.addrs >> 6
    # Previous occurrence of each record's block: the record before it
    # in a stable sort by block, or ``last_seen`` for a block's first
    # record in the slab (-1: never touched before).
    order = np.argsort(blks, kind="stable")
    ordered = blks[order]
    repeat = ordered[1:] == ordered[:-1]
    first = np.concatenate(([True], ~repeat))
    last = np.concatenate((~repeat, [True]))
    distinct = ordered[first].tolist()
    prev = np.empty(size, dtype=np.int64)
    prev[order[1:][repeat]] = base + order[:-1][repeat]
    prev[order[first]] = [last_seen.get(b, -1) for b in distinct]
    last_seen.update(zip(distinct, (base + order[last]).tolist()))
    seen = prev >= 0
    # Log2 reuse bucket: frexp's exponent of d is d.bit_length().
    dist = np.arange(base, base + size, dtype=np.int64)[seen] - prev[seen]
    buckets = np.minimum(np.frexp(dist)[1] - 1, RD_BUCKETS - 1)
    row_of = np.arange(size, dtype=np.int64)[seen] // interval
    rd_hist = np.bincount(row_of * RD_BUCKETS + buckets,
                          minlength=rows * RD_BUCKETS
                          ).reshape(rows, RD_BUCKETS)
    # Sequential neighbour: |block - previous record's block| <= 1.
    step = np.diff(blks, prepend=prev_blk)
    seq = (step >= -1) & (step <= 1)
    if base == 0:
        seq[0] = False  # record 0 has no predecessor

    def per_row(values: np.ndarray) -> np.ndarray:
        return values.reshape(rows, interval).sum(axis=1, dtype=np.int64)

    counts = np.column_stack((
        _unique_per_row(blks.reshape(rows, interval)),
        per_row(~seen),
        per_row(chunk.writes != 0),
        per_row(chunk.deps != 0),
        _unique_per_row(chunk.pcs.reshape(rows, interval)),
        per_row(seq),
        per_row(chunk.gaps),
        rd_hist))
    return counts * (1.0 / interval)


def extract_features(workload: str, n: int, interval: int,
                     seed: int = DEFAULT_SEED) -> FeatureMatrix:
    """Stream the trace once and return per-interval feature vectors.

    The records come straight from the workload's chunk producer
    (:func:`repro.workloads.make_chunks`) — the same bit-identical
    stream the engine and the trace store consume — so no trace is ever
    materialized for planning.  They are re-cut into slabs of whole
    intervals (about :data:`CHUNK_RECORDS` records each); records past
    the last whole interval are ignored.
    """
    if interval < 2:
        raise ValueError(f"interval must be >= 2, got {interval}")
    if n < interval:
        raise ValueError(f"trace length {n} shorter than one interval "
                         f"({interval})")
    num_intervals = n // interval
    used = num_intervals * interval
    slab = max(1, CHUNK_RECORDS // interval) * interval
    last_seen: Dict[int, int] = {}
    parts = []
    base = 0
    prev_blk = -1
    for chunk in rechunk(make_chunks(workload, n, seed), slab):
        if base + len(chunk) > used:
            chunk = chunk.slice(0, used - base)
        parts.append(_slab_features(chunk, base, interval, prev_blk,
                                    last_seen))
        prev_blk = int(chunk.addrs[-1]) >> 6
        base += len(chunk)
        if base == used:
            break
    starts = np.arange(num_intervals, dtype=np.int64) * interval
    return FeatureMatrix(workload=workload, n=n, seed=seed,
                         interval=interval, starts=starts,
                         matrix=np.concatenate(parts))
