"""A set-associative cache with pluggable replacement and way partitioning.

This is the building block for the whole hierarchy (L1I/L1D/L2/LLC).  Two
features exist specifically for on-chip temporal prefetching:

* **Way partitioning** - the LLC can cede a per-set number of ways to a
  metadata store.  ``set_data_ways`` shrinks/grows the data partition of a
  set; shrinking invalidates the lines in the ceded ways (counted as
  partition writebacks, which is the data-movement cost the paper
  discusses).
* **Prefetch tracking** - lines remember whether they were filled by a
  prefetch and when the fill completes, so demand accesses to in-flight
  prefetches pay the *remaining* latency (late-prefetch timeliness) and
  the first demand hit to a prefetched line is counted as a useful
  prefetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .address import BLOCK_SIZE, is_pow2
from .replacement import make_policy


class Line:
    """One cache line's bookkeeping (tags only; no data payload)."""

    __slots__ = ("blk", "valid", "dirty", "prefetched", "pf_touched",
                 "ready", "pc", "owner")

    def __init__(self) -> None:
        self.blk = -1
        self.valid = False
        self.dirty = False
        self.prefetched = False   # filled by a prefetch
        self.pf_touched = False   # prefetch already credited as useful
        self.ready = 0.0          # cycle at which the fill completes
        self.pc = 0
        self.owner = -1           # prefetcher id that issued the fill

    def reset(self) -> None:
        self.blk = -1
        self.valid = False
        self.dirty = False
        self.prefetched = False
        self.pf_touched = False
        self.ready = 0.0
        self.pc = 0
        self.owner = -1


@dataclass
class CacheStats:
    """Counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    late_prefetch_hits: int = 0
    partition_invalidations: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class Lookup(NamedTuple):
    """Outcome of a demand lookup (a tuple: the hierarchy unpacks it)."""

    hit: bool
    latency: float
    was_prefetched: bool = False   # first demand touch of a prefetched line
    owner: int = -1                # prefetcher that brought the line in


class Victim(NamedTuple):
    """The fields of the valid line a fill displaced."""

    blk: int
    pc: int
    owner: int
    dirty: bool
    prefetched: bool
    pf_touched: bool


#: Builds a NamedTuple without its Python-level ``__new__`` (half the
#: cost on the per-access path).
_tuple_new = tuple.__new__


class Cache:
    """Set-associative cache.

    Parameters
    ----------
    name:
        Label used in stats dumps ("L1D", "L2", "LLC", ...).
    size_bytes / ways:
        Geometry; ``size_bytes / (64 * ways)`` must be a power of two.
    latency:
        Hit latency in cycles, charged by the hierarchy.
    replacement:
        Policy name understood by :func:`repro.memory.replacement.make_policy`.
    """

    def __init__(self, name: str, size_bytes: int, ways: int, latency: int,
                 replacement: str = "lru"):
        num_sets = size_bytes // (BLOCK_SIZE * ways)
        if num_sets == 0 or not is_pow2(num_sets):
            raise ValueError(
                f"{name}: size {size_bytes}B / {ways} ways gives "
                f"{num_sets} sets (must be a power of two)")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = num_sets
        self.latency = latency
        self.policy = make_policy(replacement, num_sets, ways)
        self.lines: List[List[Line]] = [
            [Line() for _ in range(ways)] for _ in range(num_sets)]
        self._data_ways: List[int] = [ways] * num_sets
        self._set_mask = num_sets - 1
        #: Per-set count of invalid ways inside the data partition.
        #: Kept exact by every mutation so ``fill`` can skip the
        #: invalid-way scan once a set is full (the steady state).
        self.free_ways: List[int] = [ways] * num_sets
        self.stats = CacheStats()
        #: blk -> way for every valid line.  A block lives in exactly one
        #: way of its set, and a valid line always sits below its set's
        #: data-way count (shrinking a partition drops the lines it
        #: cedes), so the index is authoritative for residency: lookups,
        #: probes and refills resolve through it without scanning ways.
        self.tag_index: Dict[int, int] = {}
        #: Shared by every miss, so a miss allocates nothing.
        self._miss = Lookup(False, float(latency))

    # -- geometry ---------------------------------------------------------

    def set_of(self, blk: int) -> int:
        return blk & self._set_mask

    def data_ways(self, set_idx: int) -> int:
        """Number of ways currently available to data in this set."""
        return self._data_ways[set_idx]

    def set_data_ways(self, set_idx: int, ways: int) -> int:
        """Resize the data partition of one set; returns lines invalidated."""
        if not 0 <= ways <= self.ways:
            raise ValueError(f"data ways {ways} out of range 0..{self.ways}")
        old = self._data_ways[set_idx]
        self._data_ways[set_idx] = ways
        dropped = 0
        if ways < old:
            for w in range(ways, old):
                line = self.lines[set_idx][w]
                if line.valid:
                    self.tag_index.pop(line.blk, None)
                    line.reset()
                    dropped += 1
        self.free_ways[set_idx] = sum(
            1 for line in self.lines[set_idx][:ways] if not line.valid)
        self.stats.partition_invalidations += dropped
        return dropped

    # -- operations -------------------------------------------------------

    def probe(self, blk: int) -> bool:
        """Tag check with no side effects."""
        return blk in self.tag_index

    def lookup(self, blk: int, now: float, is_write: bool = False,
               touch: bool = True) -> Lookup:
        """Demand lookup.  Does *not* fill on miss (hierarchy does that)."""
        stats = self.stats
        stats.accesses += 1
        way = self.tag_index.get(blk)
        if way is None:
            stats.misses += 1
            return self._miss
        stats.hits += 1
        set_idx = blk & self._set_mask
        if touch:
            self.policy.on_hit(set_idx, way)
        line = self.lines[set_idx][way]
        if is_write:
            line.dirty = True
        ready = line.ready
        extra = ready - now if ready > now else 0.0
        was_pf = line.prefetched and not line.pf_touched
        if was_pf:
            line.pf_touched = True
            stats.useful_prefetches += 1
            if extra > 0:
                stats.late_prefetch_hits += 1
        return _tuple_new(Lookup, (True, self.latency + extra, was_pf,
                                   line.owner))

    def fill(self, blk: int, ready: float, pc: int = 0,
             prefetch: bool = False, dirty: bool = False,
             owner: int = -1) -> Optional[Victim]:
        """Install ``blk``; returns the evicted line's fields, if any.

        ``ready`` is the cycle at which the data actually arrives; demand
        hits before then pay the difference.
        """
        set_idx = blk & self._set_mask
        nd = self._data_ways[set_idx]
        if nd == 0:
            return None  # set fully ceded to metadata; bypass
        row = self.lines[set_idx]
        way = self.tag_index.get(blk)  # refill/upgrade in place
        victim = None
        if way is None:
            if self.free_ways[set_idx]:
                for w in range(nd):
                    if not row[w].valid:
                        way = w
                        self.free_ways[set_idx] -= 1
                        break
            else:
                way = self.policy.victim(set_idx, nd)
                old = row[way]
                del self.tag_index[old.blk]
                victim = _tuple_new(Victim, (old.blk, old.pc, old.owner,
                                             old.dirty, old.prefetched,
                                             old.pf_touched))
                self.stats.evictions += 1
                if old.dirty:
                    self.stats.writebacks += 1
        line = row[way]
        self.tag_index[blk] = way
        line.blk = blk
        line.valid = True
        line.dirty = dirty
        line.prefetched = prefetch
        line.pf_touched = False
        line.ready = ready
        line.pc = pc
        line.owner = owner
        if prefetch:
            self.stats.prefetch_fills += 1
        self.policy.on_fill(set_idx, way, blk, pc)
        return victim

    def invalidate(self, blk: int) -> bool:
        """Drop a block if present (used by multi-core coherence shootdowns)."""
        way = self.tag_index.pop(blk, None)
        if way is None:
            return False
        set_idx = blk & self._set_mask
        self.lines[set_idx][way].reset()
        self.free_ways[set_idx] += 1
        return True

    def occupancy(self) -> float:
        """Fraction of data-partition lines currently valid."""
        total = sum(self._data_ways)
        return len(self.tag_index) / total if total else 0.0

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Line metadata (columnar arrays), partition map, stats, policy."""
        n = self.num_sets * self.ways
        blk = np.empty(n, dtype=np.int64)
        pc = np.empty(n, dtype=np.int64)
        owner = np.empty(n, dtype=np.int64)
        ready = np.empty(n, dtype=np.float64)
        flags = np.empty((4, n), dtype=np.bool_)
        for set_idx, row in enumerate(self.lines):
            base = set_idx * self.ways
            for way, line in enumerate(row):
                i = base + way
                blk[i] = line.blk
                pc[i] = line.pc
                owner[i] = line.owner
                ready[i] = line.ready
                flags[0, i] = line.valid
                flags[1, i] = line.dirty
                flags[2, i] = line.prefetched
                flags[3, i] = line.pf_touched
        return {
            "geometry": [self.num_sets, self.ways],
            "blk": blk, "pc": pc, "owner": owner, "ready": ready,
            "flags": flags,
            "data_ways": np.asarray(self._data_ways, dtype=np.int64),
            "stats": self.stats.as_dict(),
            "policy": self.policy.state_dict(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        num_sets, ways = state["geometry"]
        if (int(num_sets), int(ways)) != (self.num_sets, self.ways):
            raise ValueError(
                f"{self.name}: checkpoint geometry {num_sets}x{ways} != "
                f"{self.num_sets}x{self.ways}")
        blk, pc, owner = state["blk"], state["pc"], state["owner"]
        ready, flags = state["ready"], state["flags"]
        for set_idx, row in enumerate(self.lines):
            base = set_idx * self.ways
            for way, line in enumerate(row):
                i = base + way
                line.blk = int(blk[i])
                line.pc = int(pc[i])
                line.owner = int(owner[i])
                line.ready = float(ready[i])
                line.valid = bool(flags[0, i])
                line.dirty = bool(flags[1, i])
                line.prefetched = bool(flags[2, i])
                line.pf_touched = bool(flags[3, i])
        self._data_ways = [int(w) for w in state["data_ways"]]
        self.free_ways = [
            sum(1 for line in row[:nd] if not line.valid)
            for row, nd in zip(self.lines, self._data_ways)]
        self.tag_index = {line.blk: way
                          for row in self.lines
                          for way, line in enumerate(row) if line.valid}
        self.stats = CacheStats(
            **{k: int(v) for k, v in state["stats"].items()})
        self.policy.load_state(state["policy"])
