"""Archetype memory-access generators.

Temporal prefetchers exploit *repeated irregular sequences*.  Each
archetype below reproduces the structural property of a benchmark family
that matters to the paper's evaluation:

* :func:`pointer_chase` - linked-structure traversal over a fixed random
  permutation (mcf/omnetpp/xalancbmk-like): perfectly repeating,
  spatially irregular -> ideal temporal-prefetching territory.
* :func:`graph_sweep` - CSR neighbour-list traversal with either a stable
  vertex order (PageRank-like) or a perturbed order per iteration
  (BFS-like): long repeating runs with realignment opportunities.
* :func:`stream` / :func:`strided` - regular traffic that stride
  prefetchers already cover; temporal metadata is useless here and only
  costs LLC capacity (the bzip2 effect in Fig. 9).
* :func:`hash_probe` - Zipf-random probes with little temporal reuse:
  generates low-utility metadata, exercising utility-aware management.
* :func:`scan_mix` - interleaves a temporal-friendly chase with a
  no-reuse scanning PC (the mcf case where Triangel's PC bypassing wins).
* :func:`stencil_sweep` - repeated multi-array grid sweeps
  (milc/lbm-like): temporal *and* regular at once.
* :func:`kv_store` - GET/SET mixture with Zipfian hot keys
  (memcached-like): hot keys replay bucket->value miss chains, the tail
  is noise, SETs stream into a log.
* :func:`embedding_gather` - DLRM/LLM-inference embedding lookups:
  Zipf-hot rows recur across samples in interleaved order (approximate
  repetition), pooled outputs stream.

All generators are deterministic given a seed.  Addresses for different
logical data structures live in disjoint 4GB regions so they never alias.

Each archetype is implemented as a *chunk producer* (``_*_chunks``)
yielding fixed-size columnar :class:`~repro.tracestream.chunk.TraceChunk`
batches in constant memory; the public functions materialize those
chunks into a :class:`Trace` and :data:`CHUNK_GENERATORS` exposes the
producers to the streaming pipeline (``repro.tracestream``).  The
producers draw from ``np.random.Generator`` in *exactly* the call order
and shapes of the original per-record loops, so traces are bit-identical
to the pre-streaming implementation (pinned by
``tests/data/workload_hashes.json``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..sim.trace import Trace
from ..tracestream.chunk import CHUNK_RECORDS, TraceChunk, make_chunk
from ..tracestream.stages import rechunk, shift

REGION_BITS = 32
_PC_BASE = 0x400000

#: name -> chunk-producer; signature ``fn(n, seed, **kwargs)`` yielding
#: TraceChunk.  The streaming store generates straight from these.
CHUNK_GENERATORS: Dict[str, Callable[..., Iterator[TraceChunk]]] = {}


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _region(idx: int) -> int:
    """Base byte address of data region ``idx``."""
    return (idx + 1) << REGION_BITS


def _pc(idx: int) -> int:
    """Synthetic PC for logical load site ``idx``."""
    return _PC_BASE + 4 * idx


def _regions(idxs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_region`."""
    return (idxs.astype(np.int64) + 1) << REGION_BITS


def _pcs(idxs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_pc`."""
    return _PC_BASE + 4 * idxs.astype(np.int64)


def _zipf_indices(rng: np.random.Generator, n: int, universe: int,
                  alpha: float) -> np.ndarray:
    """``n`` Zipf(alpha)-distributed indices in [0, universe)."""
    if alpha <= 0:
        return rng.integers(0, universe, size=n)
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    probs = ranks ** -alpha
    probs /= probs.sum()
    return rng.choice(universe, size=n, p=probs)


# -- pointer_chase -------------------------------------------------------------

def _pointer_chase_chunks(n: int, seed: int, nodes: int = 32768,
                          n_lists: int = 1, mutate_every: int = 0,
                          node_bytes: int = 64,
                          gap: int = 6) -> Iterator[TraceChunk]:
    rng = _rng(seed)
    perms = np.stack([rng.permutation(nodes) for _ in range(n_lists)])
    p0 = np.array([int(rng.integers(0, nodes)) for _ in range(n_lists)],
                  dtype=np.int64)

    def span(lo: int, hi: int) -> TraceChunk:
        # Access i hits list i % n_lists at its (i // n_lists)-th step;
        # positions advance one per visit from the random start p0.
        i = np.arange(lo, hi, dtype=np.int64)
        li = i % n_lists
        pos = (p0[li] + i // n_lists) % nodes
        addrs = _regions(li) + perms[li, pos] * node_bytes
        return make_chunk(_pcs(li), addrs,
                          deps=np.ones(hi - lo, dtype=np.bool_), gap=gap)

    if not mutate_every:
        for lo in range(0, n, CHUNK_RECORDS):
            yield span(lo, min(n, lo + CHUNK_RECORDS))
        return
    # With mutation, every list re-links once per `mutate_every` visits,
    # i.e. all lists mutate in the same "event round" r with
    # (r + 1) % mutate_every == 0.  Rounds between events are static and
    # vectorize; event rounds emit first (reads precede each list's own
    # swap) and then apply the swaps in the original per-access order.
    r = 0
    while r * n_lists < n:
        r_ev = (r // mutate_every + 1) * mutate_every - 1
        lo, hi = r * n_lists, min(n, r_ev * n_lists)
        for s in range(lo, hi, CHUNK_RECORDS):
            yield span(s, min(hi, s + CHUNK_RECORDS))
        ev_lo = r_ev * n_lists
        if ev_lo >= n:
            return
        ev_hi = min(n, ev_lo + n_lists)
        yield span(ev_lo, ev_hi)
        for li in range(ev_hi - ev_lo):
            a, b = rng.integers(0, nodes, size=2)
            perms[li, a], perms[li, b] = perms[li, b], perms[li, a]
        r = r_ev + 1


def pointer_chase(name: str, n: int, seed: int, nodes: int = 32768,
                  n_lists: int = 1, mutate_every: int = 0,
                  node_bytes: int = 64, gap: int = 6) -> Trace:
    """Traverse ``n_lists`` fixed random permutations of ``nodes`` nodes.

    ``mutate_every`` > 0 re-links a random node every that many accesses,
    creating the stale-metadata situations Fig. 4 discusses.
    """
    return Trace.from_chunks(name, _pointer_chase_chunks(
        n, seed, nodes=nodes, n_lists=n_lists, mutate_every=mutate_every,
        node_bytes=node_bytes, gap=gap))


# -- graph_sweep ---------------------------------------------------------------

def _graph_sweep_chunks(n: int, seed: int, vertices: int = 4096,
                        avg_degree: int = 8, stable_order: bool = True,
                        perturbation: float = 0.05, vertex_bytes: int = 64,
                        universe_factor: int = 8,
                        gap: int = 4) -> Iterator[TraceChunk]:
    rng = _rng(seed)
    degrees = np.maximum(1, rng.poisson(avg_degree, size=vertices))
    universe = max(1, universe_factor) * vertices
    neighbours = [rng.integers(0, universe, size=int(d)) for d in degrees]
    deg = degrees.astype(np.int64)
    flat = np.concatenate(neighbours).astype(np.int64)
    indptr = np.zeros(vertices + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(deg)
    order = np.arange(vertices)
    vprop_region = _region(0)
    nprop_region = _region(1)
    pc_v, pc_n = _pc(0), _pc(1)

    def sweep_arrays() -> TraceChunk:
        # One full sweep flattened: per vertex v (in `order`), one
        # vertex-property read then deg[v] neighbour reads.
        ordv = order.astype(np.int64)
        lens = 1 + deg[ordv]
        total = int(lens.sum())
        starts = np.zeros(vertices, dtype=np.int64)
        starts[1:] = np.cumsum(lens[:-1])
        block = np.repeat(np.arange(vertices, dtype=np.int64), lens)
        within = np.arange(total, dtype=np.int64) - starts[block]
        is_v = within == 0
        vb = ordv[block]
        addrs = np.empty(total, dtype=np.int64)
        addrs[is_v] = vprop_region + vb[is_v] * vertex_bytes
        nz = ~is_v
        addrs[nz] = (nprop_region
                     + flat[indptr[vb[nz]] + within[nz] - 1] * vertex_bytes)
        return make_chunk(np.where(is_v, pc_v, pc_n), addrs,
                          gaps=np.where(is_v, gap, 2), deps=nz)

    cached: Optional[TraceChunk] = None
    emitted = 0
    while emitted < n:
        if not stable_order:
            k = max(1, int(vertices * perturbation))
            idx = rng.integers(0, vertices, size=(k, 2))
            for a, b in idx:
                order[a], order[b] = order[b], order[a]
        elif cached is not None:
            full = cached
            take = min(len(full), n - emitted)
            yield full.slice(0, take)
            emitted += take
            continue
        full = sweep_arrays()
        if stable_order:
            cached = full
        take = min(len(full), n - emitted)
        yield full.slice(0, take)
        emitted += take


def graph_sweep(name: str, n: int, seed: int, vertices: int = 4096,
                avg_degree: int = 8, stable_order: bool = True,
                perturbation: float = 0.05, vertex_bytes: int = 64,
                universe_factor: int = 8, gap: int = 4) -> Trace:
    """Repeated CSR sweeps: per vertex, read vertex data then neighbours.

    ``stable_order=True`` revisits vertices in the same order every
    iteration (PageRank/CC-like); otherwise a fraction ``perturbation`` of
    the order is shuffled per iteration (BFS/SSSP-like frontiers).
    Neighbour property indices are drawn from a ``universe_factor`` times
    larger space than the vertex set, as in real graphs where the
    property array dwarfs any one frontier; this keeps the neighbour
    stream irregular without making every block a conflicting trigger.
    """
    return Trace.from_chunks(name, _graph_sweep_chunks(
        n, seed, vertices=vertices, avg_degree=avg_degree,
        stable_order=stable_order, perturbation=perturbation,
        vertex_bytes=vertex_bytes, universe_factor=universe_factor,
        gap=gap))


# -- stream / strided ----------------------------------------------------------

def _stream_chunks(n: int, seed: int, arrays: int = 3,
                   array_bytes: int = 1 << 22, stride: int = 8,
                   gap: int = 2) -> Iterator[TraceChunk]:
    del seed  # fully regular; seed kept for a uniform signature
    for lo in range(0, n, CHUNK_RECORDS):
        hi = min(n, lo + CHUNK_RECORDS)
        i = np.arange(lo, hi, dtype=np.int64)
        a = i % arrays
        # Array a's (i // arrays)-th visit sits at offset k*stride mod
        # the array size (offsets advance by `stride` per visit).
        offs = ((i // arrays) * stride) % array_bytes
        yield make_chunk(_pcs(a), _regions(a) + offs,
                         writes=(a == arrays - 1), gap=gap)


def stream(name: str, n: int, seed: int, arrays: int = 3,
           array_bytes: int = 1 << 22, stride: int = 8,
           gap: int = 2) -> Trace:
    """Sequential sweeps over large arrays (lbm/libquantum-like)."""
    return Trace.from_chunks(name, _stream_chunks(
        n, seed, arrays=arrays, array_bytes=array_bytes, stride=stride,
        gap=gap))


def _strided_chunks(n: int, seed: int, stride: int = 192,
                    array_bytes: int = 1 << 23,
                    gap: int = 4) -> Iterator[TraceChunk]:
    del seed
    base = _region(0)
    pc = _pc(0)
    for lo in range(0, n, CHUNK_RECORDS):
        hi = min(n, lo + CHUNK_RECORDS)
        i = np.arange(lo, hi, dtype=np.int64)
        yield make_chunk(np.full(hi - lo, pc, dtype=np.int64),
                         base + (i * stride) % array_bytes, gap=gap)


def strided(name: str, n: int, seed: int, stride: int = 192,
            array_bytes: int = 1 << 23, gap: int = 4) -> Trace:
    """Fixed non-unit stride over one array (regular; covered by IP-stride)."""
    return Trace.from_chunks(name, _strided_chunks(
        n, seed, stride=stride, array_bytes=array_bytes, gap=gap))


# -- hash_probe ----------------------------------------------------------------

def _hash_probe_chunks(n: int, seed: int, table_blocks: int = 65536,
                       alpha: float = 0.6, rerun: float = 0.3,
                       burst: int = 64,
                       gap: int = 5) -> Iterator[TraceChunk]:
    rng = _rng(seed)
    pc = _pc(0)
    base = _region(0)
    history: List[np.ndarray] = []
    emitted = 0
    while emitted < n:
        if history and rng.random() < rerun:
            # Replay one past probe burst in full (a re-issued query).
            probe = history[int(rng.integers(0, len(history)))]
        else:
            probe = np.asarray(_zipf_indices(rng, burst, table_blocks,
                                             alpha), dtype=np.int64)
            history.append(probe)
            if len(history) > 16:
                history.pop(0)
        take = min(len(probe), n - emitted)
        yield make_chunk(np.full(take, pc, dtype=np.int64),
                         base + probe[:take] * 64, gap=gap)
        emitted += take


def hash_probe(name: str, n: int, seed: int, table_blocks: int = 65536,
               alpha: float = 0.6, rerun: float = 0.3,
               burst: int = 64, gap: int = 5) -> Trace:
    """Zipf-random probes into a big hash table (weak temporal reuse).

    A fraction ``rerun`` of the trace replays recent probe bursts (keys
    queried again shortly after, as in lookup-heavy codes); the rest is
    fresh Zipf noise.  Temporal prefetchers get moderate-but-real utility
    here, which exercises utility-aware metadata management.
    """
    return Trace.from_chunks(name, _hash_probe_chunks(
        n, seed, table_blocks=table_blocks, alpha=alpha, rerun=rerun,
        burst=burst, gap=gap))


# -- scan_mix ------------------------------------------------------------------

def _scan_mix_chunks(n: int, seed: int, nodes: int = 16384,
                     scan_fraction: float = 0.4, scan_bytes: int = 1 << 24,
                     gap: int = 5) -> Iterator[TraceChunk]:
    del scan_bytes  # the scan runs off the end of any finite window
    rng = _rng(seed)
    perm = rng.permutation(nodes).astype(np.int64)
    period = max(2, int(round(1.0 / max(scan_fraction, 1e-6))))
    chase_base, scan_base = _region(0), _region(1)
    pc_chase, pc_scan = _pc(0), _pc(1)
    for lo in range(0, n, CHUNK_RECORDS):
        hi = min(n, lo + CHUNK_RECORDS)
        i = np.arange(lo, hi, dtype=np.int64)
        if scan_fraction > 0:
            scan = (i % period) == 0
            # Chase position = number of prior chase accesses; prior
            # scans among [0, i) number ceil(i / period).
            pos = (i - (i + period - 1) // period) % nodes
            addrs = np.where(scan, scan_base + 64 * (i // period),
                             chase_base + perm[pos] * 64)
            yield make_chunk(np.where(scan, pc_scan, pc_chase), addrs,
                             deps=~scan, gap=gap)
        else:
            addrs = chase_base + perm[i % nodes] * 64
            yield make_chunk(np.full(hi - lo, pc_chase, dtype=np.int64),
                             addrs, deps=np.ones(hi - lo, dtype=np.bool_),
                             gap=gap)


def scan_mix(name: str, n: int, seed: int, nodes: int = 16384,
             scan_fraction: float = 0.4, scan_bytes: int = 1 << 24,
             gap: int = 5) -> Trace:
    """Pointer chase interleaved with a no-reuse scanning PC (mcf-like).

    The scan PC touches fresh memory forever; its correlations never
    repeat, so storing them evicts useful chase metadata.  Triangel's PC
    bypassing handles this; Streamline (per the paper) does not, which is
    why Triangel wins on mcf.
    """
    return Trace.from_chunks(name, _scan_mix_chunks(
        n, seed, nodes=nodes, scan_fraction=scan_fraction,
        scan_bytes=scan_bytes, gap=gap))


# -- stencil_sweep -------------------------------------------------------------

def _stencil_sweep_chunks(n: int, seed: int, grid_blocks: int = 8192,
                          arrays: int = 4, jitter: float = 0.0,
                          gap: int = 3) -> Iterator[TraceChunk]:
    rng = _rng(seed)
    a_idx = np.arange(arrays, dtype=np.int64)
    regions = _regions(a_idx)
    pcs = _pcs(a_idx)
    # Spans aligned to whole sweep iterations (`arrays` records each) so
    # each iteration's grid index is drawn exactly once, in order.
    span = max(arrays, CHUNK_RECORDS - CHUNK_RECORDS % arrays)

    def grid_idx(i0: int, i1: int) -> np.ndarray:
        if jitter:
            out = np.empty(i1 - i0, dtype=np.int64)
            for j in range(i0, i1):
                v = j % grid_blocks
                if rng.random() < jitter:
                    v = int(rng.integers(0, grid_blocks))
                out[j - i0] = v
            return out
        return np.arange(i0, i1, dtype=np.int64) % grid_blocks

    for lo in range(0, n, span):
        hi = min(n, lo + span)
        e = np.arange(lo, hi, dtype=np.int64)
        it = e // arrays
        a = e % arrays
        i0 = lo // arrays
        idx = grid_idx(i0, int(it[-1]) + 1)
        yield make_chunk(pcs[a], regions[a] + idx[it - i0] * 64,
                         writes=(a == arrays - 1), gap=gap)


def stencil_sweep(name: str, n: int, seed: int, grid_blocks: int = 8192,
                  arrays: int = 4, jitter: float = 0.0,
                  gap: int = 3) -> Trace:
    """Repeated sweeps over a grid touching several co-indexed arrays."""
    return Trace.from_chunks(name, _stencil_sweep_chunks(
        n, seed, grid_blocks=grid_blocks, arrays=arrays, jitter=jitter,
        gap=gap))


# -- phased --------------------------------------------------------------------

def _phased_chunks(n: int, seed: int,
                   phases: Optional[Sequence[str]] = None,
                   gap: int = 4) -> Iterator[TraceChunk]:
    kinds = list(phases or ["chase", "stream"])
    base_len = n // len(kinds)
    for k, kind in enumerate(kinds):
        # Last phase absorbs the remainder so len(trace) == n exactly.
        per_phase = base_len if k < len(kinds) - 1 else n - base_len * (
            len(kinds) - 1)
        if kind == "chase":
            sub: Iterator[TraceChunk] = _pointer_chase_chunks(
                per_phase, seed + k, nodes=12288, gap=gap)
        elif kind == "stream":
            sub = _stream_chunks(per_phase, seed + k, gap=gap)
        elif kind == "hash":
            sub = _hash_probe_chunks(per_phase, seed + k,
                                     table_blocks=20480, alpha=0.5,
                                     rerun=0.5, gap=gap)
        else:
            raise ValueError(f"unknown phase kind {kind!r}")
        # Shift each phase's PCs/regions so phases don't share state.
        yield from shift(sub, pc_offset=0x1000 * k,
                         addr_offset=k << (REGION_BITS + 4))


def phased(name: str, n: int, seed: int,
           phases: Optional[Sequence[str]] = None, gap: int = 4) -> Trace:
    """Alternate between archetype phases (tests dynamic partitioning)."""
    return Trace.from_chunks(name, _phased_chunks(
        n, seed, phases=phases, gap=gap))


# -- kv_store ------------------------------------------------------------------

def _kv_store_chunks(n: int, seed: int, keys: int = 8192,
                     get_fraction: float = 0.9, alpha: float = 1.05,
                     value_blocks: int = 2, buckets: int = 16384,
                     gap: int = 5) -> Iterator[TraceChunk]:
    rng = _rng(seed)
    bucket_base, value_base, log_base = _region(0), _region(1), _region(2)
    pc_probe, pc_value, pc_log = _pc(0), _pc(1), _pc(2)
    round_ops = 2048
    log_blocks = 0
    emitted = 0
    while emitted < n:
        ks = np.asarray(_zipf_indices(rng, round_ops, keys, alpha),
                        dtype=np.int64)
        is_get = rng.random(round_ops) < get_fraction
        # Per op: one bucket probe, `value_blocks` value accesses, and
        # (SET only) one append to a shared sequential log.
        lens = np.where(is_get, 1 + value_blocks, 2 + value_blocks)
        total = int(lens.sum())
        starts = np.zeros(round_ops, dtype=np.int64)
        starts[1:] = np.cumsum(lens[:-1])
        op = np.repeat(np.arange(round_ops, dtype=np.int64), lens)
        within = np.arange(total, dtype=np.int64) - starts[op]
        okey = ks[op]
        is_probe = within == 0
        is_log = within == lens[op] - 1
        is_log &= ~is_get[op]
        is_value = ~is_probe & ~is_log
        addrs = np.empty(total, dtype=np.int64)
        # Fibonacci-hash the key to its bucket so hot keys stay hot but
        # neighbouring keys don't share spatial locality.
        addrs[is_probe] = bucket_base + \
            (okey[is_probe] * 2654435761 % buckets) * 64
        addrs[is_value] = value_base + \
            (okey[is_value] * value_blocks + within[is_value] - 1) * 64
        set_ordinal = np.cumsum(is_log) - 1
        addrs[is_log] = log_base + (log_blocks + set_ordinal[is_log]) * 64
        log_blocks += int(is_log.sum())
        pcs = np.where(is_probe, pc_probe,
                       np.where(is_log, pc_log, pc_value))
        writes = np.where(is_probe, False, ~is_get[op])
        take = min(total, n - emitted)
        yield make_chunk(pcs, addrs, writes=writes,
                         deps=~is_probe, gap=gap).slice(0, take)
        emitted += take


def kv_store(name: str, n: int, seed: int, keys: int = 8192,
             get_fraction: float = 0.9, alpha: float = 1.05,
             value_blocks: int = 2, buckets: int = 16384,
             gap: int = 5) -> Trace:
    """KV-store GET/SET mixture over Zipfian hot keys (memcached-like).

    Each operation hashes its key into a bucket array, then touches the
    key's ``value_blocks``-block value (dependent accesses); SETs also
    append to a shared sequential write log.  Hot keys repeat their
    bucket->value miss sequences constantly (temporal-friendly), the
    Zipf tail is near-random noise, and the log is pure streaming —
    one workload that exercises all three metadata regimes at once.
    """
    return Trace.from_chunks(name, _kv_store_chunks(
        n, seed, keys=keys, get_fraction=get_fraction, alpha=alpha,
        value_blocks=value_blocks, buckets=buckets, gap=gap))


# -- embedding_gather ----------------------------------------------------------

def _embedding_gather_chunks(n: int, seed: int, rows: int = 4096,
                             tables: int = 4, lookups: int = 4,
                             alpha: float = 0.8, row_blocks: int = 1,
                             gap: int = 4) -> Iterator[TraceChunk]:
    rng = _rng(seed)
    out_base = _region(tables)
    pc_out = _pc(tables)
    per_sample = tables * (lookups * row_blocks + 1)
    round_samples = max(1, CHUNK_RECORDS // per_sample)
    samples_done = 0
    emitted = 0
    while emitted < n:
        draws = np.asarray(
            _zipf_indices(rng, round_samples * tables * lookups, rows,
                          alpha),
            dtype=np.int64).reshape(round_samples, tables, lookups)
        # Sample layout: per table, `lookups` row gathers (row_blocks
        # blocks each, dependent on the indirection) then one sequential
        # write into that table's slice of the pooled output vector.
        rows_part = np.repeat(draws, row_blocks, axis=2) * 64 * row_blocks
        if row_blocks > 1:
            rows_part += np.tile(
                64 * np.arange(row_blocks, dtype=np.int64),
                lookups).reshape(1, 1, -1)
        table_idx = np.arange(tables, dtype=np.int64).reshape(1, -1, 1)
        gathers = _regions(np.broadcast_to(
            table_idx, rows_part.shape).copy()) + rows_part
        sample_idx = (samples_done
                      + np.arange(round_samples, dtype=np.int64))
        out = (out_base
               + 64 * (sample_idx.reshape(-1, 1, 1) * tables + table_idx))
        addrs = np.concatenate([gathers, out], axis=2).reshape(-1)
        pcs = np.concatenate(
            [np.broadcast_to(_pcs(table_idx),
                             rows_part.shape).copy(),
             np.full((round_samples, tables, 1), pc_out, np.int64)],
            axis=2).reshape(-1)
        is_out = np.concatenate(
            [np.zeros(rows_part.shape, np.bool_),
             np.ones((round_samples, tables, 1), np.bool_)],
            axis=2).reshape(-1)
        samples_done += round_samples
        take = min(len(addrs), n - emitted)
        yield make_chunk(pcs, addrs, writes=is_out,
                         deps=~is_out, gap=gap).slice(0, take)
        emitted += take


def embedding_gather(name: str, n: int, seed: int, rows: int = 4096,
                     tables: int = 4, lookups: int = 4,
                     alpha: float = 0.8, row_blocks: int = 1,
                     gap: int = 4) -> Trace:
    """LLM/DLRM-inference embedding lookups: per sample, gather
    Zipf-distributed rows from several embedding tables, then write the
    pooled result sequentially.

    Row reuse follows the skewed token/feature distribution — hot rows
    recur across samples with *interleaved* table order, so the miss
    sequence repeats approximately rather than exactly (the realignment
    case temporal prefetchers must tolerate), while the pooled output
    stream stays stride-friendly.
    """
    return Trace.from_chunks(name, _embedding_gather_chunks(
        n, seed, rows=rows, tables=tables, lookups=lookups, alpha=alpha,
        row_blocks=row_blocks, gap=gap))


def _normalized(fn: Callable[..., Iterator[TraceChunk]]
                ) -> Callable[..., Iterator[TraceChunk]]:
    """Wrap a producer so consumers see uniform CHUNK_RECORDS chunks."""

    def wrapped(n: int, seed: int, **kwargs) -> Iterator[TraceChunk]:
        return rechunk(fn(n, seed, **kwargs), CHUNK_RECORDS)

    wrapped.__name__ = fn.__name__
    return wrapped


CHUNK_GENERATORS.update({
    "pointer_chase": _normalized(_pointer_chase_chunks),
    "graph_sweep": _normalized(_graph_sweep_chunks),
    "stream": _normalized(_stream_chunks),
    "strided": _normalized(_strided_chunks),
    "hash_probe": _normalized(_hash_probe_chunks),
    "scan_mix": _normalized(_scan_mix_chunks),
    "stencil_sweep": _normalized(_stencil_sweep_chunks),
    "phased": _normalized(_phased_chunks),
    "kv_store": _normalized(_kv_store_chunks),
    "embedding_gather": _normalized(_embedding_gather_chunks),
})
