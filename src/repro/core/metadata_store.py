"""The stream metadata store: Streamline's LLC-resident home for entries.

This module implements the full partitioning design space of Table I so
the ablations can compare them:

* **axis** - ``"set"`` (Streamline: allocated LLC sets cede 8 ways each)
  or ``"way"`` (Triage/Triangel style: every set cedes m ways).
* **tagged** - True stores partial trigger tags in the LLC tag store so
  entries place freely among the set's metadata ways (effective
  associativity 32 = 8 ways x 4 entries); False keeps Triangel's
  second-level index, pinning an entry to one way (associativity 4).
* **indexing** - ``"filtered"`` uses one fixed index function sized for
  the *maximum* partition and silently drops entries that map outside
  the current allocation (no traffic); ``"rearranged"`` re-derives the
  index from the current size and pays block-move traffic on every
  resize (Triangel's behaviour).

Streamline = filtered + tagged + set ("FTS").

Extensions from Section V-D6 are included: **skewed indexing** biases
triggers toward the sets that stay allocated at small partition sizes,
and **hybrid partitioning** trades sets against ways for mid sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..memory.address import hash32
from ..memory.metadata_store import PartitionController
from .replacement import StoredEntry, StreamReplacement
from .stream_entry import ENTRIES_PER_BLOCK, TRIGGER_HASH_BITS, StreamEntry

_HASH_MASK = (1 << TRIGGER_HASH_BITS) - 1


@dataclass
class StoreStats:
    """Counters the experiments read."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    filtered_lookups: int = 0
    filtered_inserts: int = 0
    overwrites: int = 0
    evictions: int = 0
    alias_inserts: int = 0


class StreamStore:
    """Set- or way-partitioned stream-entry store inside the LLC.

    Parameters
    ----------
    llc_sets:
        Host LLC geometry (the fixed index space for filtered indexing).
    controller:
        Traffic accounting shared with the hierarchy.
    stream_length:
        Targets per entry (4 in the paper).
    meta_ways:
        Ways each allocated set cedes (8 = half a 16-way LLC).
    replacement:
        A :class:`StreamReplacement` policy instance.
    axis / tagged / indexing / skewed:
        The Table I design space (see module docstring).
    permanent_sets:
        Sets kept allocated at every size so a 0-sized partition can
        still sample utility (the paper permanently allocates 64).
    """

    def __init__(self, llc_sets: int, controller: PartitionController,
                 stream_length: int = 4, meta_ways: int = 8,
                 replacement: Optional[StreamReplacement] = None,
                 axis: str = "set", tagged: bool = True,
                 indexing: str = "filtered", skewed: bool = False,
                 permanent_sets: int = 64, partial_tag_bits: int = 6):
        if axis not in ("set", "way"):
            raise ValueError("axis must be 'set' or 'way'")
        if indexing not in ("filtered", "rearranged"):
            raise ValueError("indexing must be 'filtered' or 'rearranged'")
        if stream_length not in ENTRIES_PER_BLOCK:
            raise ValueError(f"unsupported stream length {stream_length}")
        self.llc_sets = llc_sets
        self.controller = controller
        self.stream_length = stream_length
        self.meta_ways = meta_ways
        self.replacement = replacement
        self.axis = axis
        self.tagged = tagged
        self.indexing = indexing
        self.skewed = skewed
        self.partial_tag_bits = partial_tag_bits
        self._ptag_mask = (1 << partial_tag_bits) - 1
        self.entries_per_block = ENTRIES_PER_BLOCK[stream_length]
        self.permanent_every = (max(1, llc_sets // permanent_sets)
                                if permanent_sets else 0)
        # Current partition: every_nth for the set axis (0 = none,
        # 1 = all sets, 2 = every other, ...); ways for the way axis.
        self.every_nth = 1
        self.cur_ways = meta_ways
        self._sets: Dict[int, List[StoredEntry]] = {}
        self._clock: Dict[int, int] = {}
        self.stats = StoreStats()

    # -- geometry ---------------------------------------------------------------

    def _skew(self, set_idx: int, h: int) -> int:
        """Skewed indexing: migrate 1/4 of odd-set triggers to the even
        (small-partition) sets, cutting filtering at half size."""
        if set_idx % 2 == 1 and (h >> 20) % 4 == 0:
            return set_idx - 1
        return set_idx

    def set_of(self, trigger: int) -> int:
        """Fixed (maximum-size) index function of filtered indexing."""
        return self._home_set(hash32(trigger))

    def _home_set(self, h: int) -> int:
        """:meth:`set_of` from the trigger's ``hash32``."""
        set_idx = h % self.llc_sets
        if self.skewed:
            set_idx = self._skew(set_idx, h)
        return set_idx

    def is_permanent(self, set_idx: int) -> bool:
        return bool(self.permanent_every) and \
            set_idx % self.permanent_every == 0

    def is_allocated(self, set_idx: int,
                     every_nth: Optional[int] = None) -> bool:
        every_nth = self.every_nth if every_nth is None else every_nth
        if every_nth and set_idx % every_nth == 0:
            return True
        return self.is_permanent(set_idx)

    def set_capacity(self) -> int:
        """Entries one allocated set holds."""
        return self.cur_ways * self.entries_per_block

    def capacity_entries(self) -> int:
        if self.axis == "way":
            return self.llc_sets * self.cur_ways * self.entries_per_block
        if not self.every_nth:
            allocated = (self.llc_sets // self.permanent_every
                         if self.permanent_every else 0)
        else:
            allocated = self.llc_sets // self.every_nth
        return allocated * self.set_capacity()

    def valid_entries(self) -> int:
        return sum(len(pool) for pool in self._sets.values())

    def correlation_count(self) -> int:
        return sum(s.entry.correlations for pool in self._sets.values()
                   for s in pool)

    # -- location -----------------------------------------------------------------

    def _locate(self, h: int) -> Tuple[Optional[int], bool]:
        """(set index or None-if-filtered, filtered flag) of the trigger
        whose ``hash32`` is ``h``."""
        if self.axis == "set":
            set_idx = self._home_set(h)
            if self.is_allocated(set_idx):
                return set_idx, False
            if self.indexing == "rearranged" and self.every_nth:
                # Index over the *current* allocation (the RxS schemes):
                # entries are never filtered but resizes misplace them.
                allocated = max(1, self.llc_sets // self.every_nth)
                return (h % allocated) * self.every_nth, False
            return None, True
        # Way axis: every set is allocated; the way belongs to the index.
        if self.cur_ways == 0:
            return None, True
        set_idx = h % self.llc_sets
        if self.indexing == "filtered":
            way = (h >> 16) % self.meta_ways
            if way >= self.cur_ways:
                return None, True
        return set_idx, False

    def _tags(self, h: int) -> Tuple[int, int]:
        """(10-bit hashed trigger, partial tag) of the trigger whose
        ``hash32`` is ``h``: ``fold_hash`` at both widths, one hash."""
        return ((h ^ (h >> TRIGGER_HASH_BITS)) & _HASH_MASK,
                (h ^ (h >> self.partial_tag_bits)) & self._ptag_mask)

    def _pool_key(self, set_idx: int, h: int) -> Tuple[int, int]:
        """Replacement domain: whole set when tagged, one way otherwise
        (``h`` is the trigger's ``hash32``)."""
        if self.tagged:
            return (set_idx, -1)
        return (set_idx, (h >> 16) % max(1, self.cur_ways))

    def _pool_capacity(self) -> int:
        if self.tagged:
            return self.set_capacity()
        return self.entries_per_block

    def _tick(self, key: Tuple[int, int]) -> int:
        clock = self._clock.get(key, 0) + 1
        self._clock[key] = clock
        return clock

    # -- operations -----------------------------------------------------------------

    def lookup(self, trigger: int) -> Optional[StreamEntry]:
        """Fetch the entry whose *trigger* matches (10-bit hash match).

        A hit costs one LLC block read; misses are filtered by the tag
        store; filtered triggers cost nothing and count separately.
        """
        self.stats.lookups += 1
        h = hash32(trigger)
        set_idx, filtered = self._locate(h)
        if filtered:
            self.stats.filtered_lookups += 1
            return None
        key = self._pool_key(set_idx, h)
        pool = self._sets.get(key)
        clock = self._tick(key)
        if not pool:
            return None
        htrig = (h ^ (h >> TRIGGER_HASH_BITS)) & _HASH_MASK
        for stored in pool:
            if stored.hashed_trigger == htrig:
                self.stats.hits += 1
                if self.replacement is not None:
                    self.replacement.on_access(set_idx, clock, stored)
                self.controller.record_read()
                return stored.entry.copy()
        return None

    def insert(self, entry: StreamEntry) -> bool:
        """Write back a completed entry; returns False when filtered."""
        self.stats.inserts += 1
        h = hash32(entry.trigger)
        set_idx, filtered = self._locate(h)
        if filtered:
            self.stats.filtered_inserts += 1
            return False
        key = self._pool_key(set_idx, h)
        pool = self._sets.setdefault(key, [])
        clock = self._tick(key)
        if self.replacement is not None and entry.targets:
            self.replacement.observe_correlation(
                set_idx, clock, entry.trigger, entry.targets[0], entry.pc)
        htrig, ptag = self._tags(h)
        for stored in pool:
            if stored.hashed_trigger == htrig:
                # An aliasing trigger shares the 10-bit hash but may
                # bring a different partial tag.
                stored.entry = entry.copy()
                stored.partial_tag = ptag
                self.stats.overwrites += 1
                if self.replacement is not None:
                    self.replacement.on_access(set_idx, clock, stored)
                self.controller.record_write()
                return True
        if self.tagged and any(s.partial_tag == ptag for s in pool):
            self.stats.alias_inserts += 1
        if len(pool) >= self._pool_capacity():
            victim = (self.replacement.victim(set_idx, clock, pool)
                      if self.replacement is not None else pool[0])
            pool.remove(victim)
            self.stats.evictions += 1
        stored = StoredEntry(entry.copy(), hashed_trigger=htrig,
                             partial_tag=ptag)
        if self.replacement is not None:
            self.replacement.on_insert(set_idx, clock, stored)
        pool.append(stored)
        self.controller.record_write()
        return True

    # -- resizing --------------------------------------------------------------------

    def set_partition(self, every_nth: Optional[int] = None,
                      ways: Optional[int] = None) -> int:
        """Resize the partition; returns blocks moved (rearranged mode).

        Filtered indexing keeps surviving entries in place and silently
        drops the rest -- zero traffic, the paper's headline
        simplification.  Rearranged indexing recomputes every location
        and charges the moves.
        """
        if every_nth is not None:
            self.every_nth = every_nth
        if ways is not None:
            self.cur_ways = ways
        old = self._sets
        self._sets = {}
        moved_blocks = set()
        for old_key, pool in old.items():
            for stored in pool:
                h = hash32(stored.entry.trigger)
                set_idx, filtered = self._locate(h)
                if filtered:
                    continue  # dropped, no traffic
                new_key = self._pool_key(set_idx, h)
                dest = self._sets.setdefault(new_key, [])
                if len(dest) >= self._pool_capacity():
                    continue  # no room at the new location
                dest.append(stored)
                if self.indexing == "rearranged" and new_key != old_key:
                    moved_blocks.add(old_key)
        if self.indexing == "rearranged" and moved_blocks:
            # A moved pool is ~pool_capacity/entries_per_block blocks.
            blocks = max(1, self._pool_capacity()
                         // self.entries_per_block)
            moved = len(moved_blocks) * blocks
            self.controller.record_rearrangement(moved)
            return moved
        return 0

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        # Pool order matters: untagged eviction falls back to pool[0]
        # and set_partition walks pools in insertion order.
        return {
            "every_nth": self.every_nth,
            "cur_ways": self.cur_ways,
            "sets": [[k[0], k[1],
                      [[s.entry.state_dict(), s.rrpv, s.pred_level,
                        s.inserted_clock] for s in pool]]
                     for k, pool in self._sets.items()],
            "clock": [[k[0], k[1], n] for k, n in self._clock.items()],
            "stats": {
                "lookups": self.stats.lookups,
                "hits": self.stats.hits,
                "inserts": self.stats.inserts,
                "filtered_lookups": self.stats.filtered_lookups,
                "filtered_inserts": self.stats.filtered_inserts,
                "overwrites": self.stats.overwrites,
                "evictions": self.stats.evictions,
                "alias_inserts": self.stats.alias_inserts,
            },
            "replacement": (self.replacement.state_dict()
                            if self.replacement is not None else None),
        }

    def load_state(self, state: dict) -> None:
        self.every_nth = int(state["every_nth"])
        self.cur_ways = int(state["cur_ways"])
        sets: Dict[Tuple[int, int], List[StoredEntry]] = {}
        for k0, k1, rows in state["sets"]:
            pool: List[StoredEntry] = []
            for entry_row, rrpv, pred_level, inserted_clock in rows:
                entry = StreamEntry.from_state(entry_row)
                htrig, ptag = self._tags(hash32(entry.trigger))
                pool.append(StoredEntry(
                    entry, rrpv=int(rrpv), pred_level=int(pred_level),
                    inserted_clock=int(inserted_clock),
                    hashed_trigger=htrig, partial_tag=ptag))
            sets[(int(k0), int(k1))] = pool
        self._sets = sets
        self._clock = {(int(k0), int(k1)): int(n)
                       for k0, k1, n in state["clock"]}
        self.stats = StoreStats(**{k: int(v)
                                   for k, v in state["stats"].items()})
        if self.replacement is not None and \
                state["replacement"] is not None:
            self.replacement.load_state(state["replacement"])

    # -- diagnostics --------------------------------------------------------------------

    def alias_rate(self) -> float:
        """Fraction of stored entries sharing a partial tag in their set."""
        total = aliased = 0
        for pool in self._sets.values():
            tags: Dict[int, int] = {}
            for s in pool:
                tags[s.partial_tag] = tags.get(s.partial_tag, 0) + 1
            for count in tags.values():
                total += count
                if count > 1:
                    aliased += count
        return aliased / total if total else 0.0
