"""Pairwise temporal metadata: the store shared by Triage and Triangel.

A pairwise metadata entry is one (trigger -> target) correlation.  The
store is **way-partitioned** in the LLC: every LLC set cedes ``m`` ways,
and an entry's location is chosen by the two-level index the paper
describes in Section III-C2 -- the first hash picks the LLC set, the
second picks one of the ``m`` metadata ways.  One 64-byte block packs
``entries_per_block`` correlations (12 for Triangel's uncompressed
targets, 16 for Triage's LUT-compressed ones).

Because the second-level index depends on ``m``, resizing the partition
misplaces entries; :meth:`PairwiseStore.resize` re-indexes every stored
entry and counts the moved blocks as rearrangement traffic, which is
exactly the cost Streamline's filtered indexing eliminates.

Trigger tags are 10-bit hashes, so distinct triggers can alias; the model
keeps that behaviour (an aliased lookup returns the other trigger's
target, i.e. a wrong prefetch) rather than hiding it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..memory.address import hash32
from ..memory.metadata_store import PartitionController

TRIGGER_TAG_BITS = 10
TAG_MASK = (1 << TRIGGER_TAG_BITS) - 1


class PairwiseEntry:
    """One stored correlation.

    ``trigger`` keeps the full trigger block address as *model state* so
    resizes can re-derive the two-level index; matching still goes through
    the 10-bit ``tag``, so hash aliasing behaves as in hardware.
    """

    __slots__ = ("trigger", "tag", "target", "conf", "rrpv")

    def __init__(self, trigger: int, tag: int, target: int):
        self.trigger = trigger
        self.tag = tag
        self.target = target
        self.conf = 0
        self.rrpv = 2  # SRRIP insert value for a 2-bit RRPV


class TargetLUT:
    """Triage's lookup-table target compression.

    Targets are split into a region (high bits) and an 11-bit offset; the
    region is stored as a 10-bit index into a 1024-entry LUT.  When a LUT
    slot is re-used for a new region, old entries silently decode into
    the *new* region -- the accuracy loss Triangel's authors measured.
    """

    SLOTS = 1024
    OFFSET_BITS = 11

    def __init__(self) -> None:
        self._regions: List[Optional[int]] = [None] * self.SLOTS
        self._index: Dict[int, int] = {}
        self._victim = 0
        self.replacements = 0

    def encode(self, target: int) -> Tuple[int, int]:
        region, offset = target >> self.OFFSET_BITS, \
            target & ((1 << self.OFFSET_BITS) - 1)
        slot = self._index.get(region)
        if slot is None:
            slot = self._victim
            self._victim = (self._victim + 1) % self.SLOTS
            old = self._regions[slot]
            if old is not None:
                del self._index[old]
                self.replacements += 1
            self._regions[slot] = region
            self._index[region] = slot
        return slot, offset

    def decode(self, slot: int, offset: int) -> Optional[int]:
        region = self._regions[slot]
        if region is None:
            return None
        return (region << self.OFFSET_BITS) | offset

    def state_dict(self) -> Dict[str, object]:
        # _index is derived (region -> slot inverse of _regions).
        return {"regions": list(self._regions),
                "victim": self._victim,
                "replacements": self.replacements}

    def load_state(self, state: Dict[str, object]) -> None:
        regions = [None if r is None else int(r)
                   for r in state["regions"]]
        if len(regions) != self.SLOTS:
            raise ValueError(f"LUT has {len(regions)} slots, "
                             f"expected {self.SLOTS}")
        self._regions = regions
        self._index = {r: slot for slot, r in enumerate(regions)
                       if r is not None}
        self._victim = int(state["victim"])
        self.replacements = int(state["replacements"])


class PairwiseStore:
    """Way-partitioned pairwise metadata store with an MRB in front.

    Parameters
    ----------
    llc_sets:
        Number of sets in the host LLC (first-level index space).
    controller:
        Traffic/partition accounting (shared with the hierarchy).
    entries_per_block:
        12 (Triangel) or 16 (Triage, with ``compressed=True``).
    max_ways:
        Upper bound on metadata ways (8 = half a 16-way LLC).
    mrb_blocks:
        Metadata reuse buffer capacity in blocks; hits there cost no LLC
        traffic (Triangel's MRB).  0 disables it (Triage).
    compressed:
        Use :class:`TargetLUT` compression for targets.
    """

    def __init__(self, llc_sets: int, controller: PartitionController,
                 entries_per_block: int = 12, max_ways: int = 8,
                 mrb_blocks: int = 32, compressed: bool = False):
        if llc_sets < 1:
            raise ValueError("llc_sets must be positive")
        self.llc_sets = llc_sets
        self.controller = controller
        self.entries_per_block = entries_per_block
        self.max_ways = max_ways
        self.mrb_blocks = mrb_blocks
        self.compressed = compressed
        self.lut = TargetLUT() if compressed else None
        self.ways = 0
        self._blocks: Dict[Tuple[int, int], List[PairwiseEntry]] = {}
        self._mrb: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        # Statistics the experiments read.
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.dedup_writes = 0
        self.alias_capacity = 0

    # -- indexing ---------------------------------------------------------

    def _index(self, trigger: int, ways: Optional[int] = None
               ) -> Optional[Tuple[int, int]]:
        """(set, way) under ``ways`` metadata ways (default: current).

        :meth:`lookup` and :meth:`insert` inline this and the tag
        (``fold_hash(trigger, TRIGGER_TAG_BITS)``) from one ``hash32``.
        """
        ways = self.ways if ways is None else ways
        if ways <= 0:
            return None
        h = hash32(trigger)
        set_idx = h % self.llc_sets
        way = (h >> 16) % ways
        return set_idx, way

    # -- MRB ---------------------------------------------------------------

    def _touch_block(self, loc: Tuple[int, int], write: bool) -> None:
        """Account one block access, dampened by the MRB.

        The MRB caches recently touched metadata blocks: repeated reads
        cost nothing, and writes are coalesced (marked dirty, written back
        once when the MRB entry is evicted).  With ``mrb_blocks == 0``
        every access goes straight to the LLC (Triage).
        """
        if not self.mrb_blocks:
            if write:
                self.controller.record_write()
            else:
                self.controller.record_read()
            return
        if loc in self._mrb:
            self._mrb.move_to_end(loc)
            if write:
                self._mrb[loc] = True  # dirty
            return
        if not write:
            self.controller.record_read()
        self._mrb[loc] = write
        if len(self._mrb) > self.mrb_blocks:
            _, dirty = self._mrb.popitem(last=False)
            if dirty:
                self.controller.record_write()

    def flush_mrb(self) -> None:
        """Write back every dirty MRB block (end of run / resize)."""
        for _, dirty in self._mrb.items():
            if dirty:
                self.controller.record_write()
        self._mrb.clear()

    # -- operations ----------------------------------------------------------

    def capacity_entries(self) -> int:
        return self.ways * self.llc_sets * self.entries_per_block

    def valid_entries(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    def lookup(self, trigger: int) -> Optional[int]:
        """Return the stored target for ``trigger``, or None.

        Counts one metadata read unless the block sits in the MRB.
        """
        self.lookups += 1
        ways = self.ways
        if ways <= 0:
            return None
        h = hash32(trigger)
        loc = (h % self.llc_sets, (h >> 16) % ways)
        block = self._blocks.get(loc)
        if not block:
            return None  # the LLC tag store filters the miss: no transfer
        self._touch_block(loc, write=False)
        tag = (h ^ (h >> TRIGGER_TAG_BITS)) & TAG_MASK
        for e in block:
            if e.tag == tag:
                e.rrpv = 0
                self.hits += 1
                if self.compressed:
                    slot, offset = e.target
                    return self.lut.decode(slot, offset)
                return e.target
        return None

    def insert(self, trigger: int, target: int) -> None:
        """Store/refresh the correlation (trigger -> target)."""
        ways = self.ways
        if ways <= 0:
            return
        h = hash32(trigger)
        loc = (h % self.llc_sets, (h >> 16) % ways)
        self.inserts += 1
        stored = self.lut.encode(target) if self.compressed else target
        block = self._blocks.setdefault(loc, [])
        tag = (h ^ (h >> TRIGGER_TAG_BITS)) & TAG_MASK
        for e in block:
            if e.tag == tag:
                if e.target == stored:
                    e.conf = 1
                    self.dedup_writes += 1  # MRB suppressed a no-op write
                    return
                # Triage's confidence bit: first disagreement clears it,
                # the second replaces the target.
                if e.conf:
                    e.conf = 0
                else:
                    e.target = stored
                e.rrpv = 0
                self._touch_block(loc, write=True)
                return
        if len(block) >= self.entries_per_block:
            self._evict_one(block)
        block.append(PairwiseEntry(trigger, tag, stored))
        self._touch_block(loc, write=True)

    def _evict_one(self, block: List[PairwiseEntry]) -> None:
        """SRRIP among the entries that share one metadata block."""
        while True:
            for i, e in enumerate(block):
                if e.rrpv >= 3:
                    del block[i]
                    return
            for e in block:
                e.rrpv += 1

    # -- resizing -------------------------------------------------------------

    def resize(self, new_ways: int, rearrange: bool = True) -> int:
        """Change the partition to ``new_ways`` metadata ways per set.

        With ``rearrange`` (Triangel's behaviour) surviving entries are
        moved to their new way and the traffic is charged; without it
        (the FUW ablation in Table I) misplaced entries are dropped.
        Returns the number of blocks moved.
        """
        if not 0 <= new_ways <= self.max_ways:
            raise ValueError(f"ways {new_ways} out of 0..{self.max_ways}")
        self.flush_mrb()
        old_blocks = self._blocks
        self.ways = new_ways
        self._blocks = {}
        if new_ways == 0:
            old_blocks.clear()
            return 0
        moved_src = set()
        moved_entries = 0
        for (set_idx, old_way), block in old_blocks.items():
            for e in block:
                new_loc = self._index(e.trigger, new_ways)
                if not rearrange and new_loc[1] != old_way:
                    continue  # misplaced and not rearranged: dropped
                if new_loc[1] != old_way:
                    moved_entries += 1
                    moved_src.add((set_idx, old_way))
                dest = self._blocks.setdefault(new_loc, [])
                if len(dest) >= self.entries_per_block:
                    self._evict_one(dest)
                dest.append(e)
        if rearrange and moved_entries:
            blocks_moved = len(moved_src)
            self.controller.record_rearrangement(blocks_moved)
            return blocks_moved
        return 0

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Entries, MRB (order = recency), counters, LUT.  Targets are
        stored encoded ((slot, offset) pairs when compressed)."""
        blocks = []
        for (set_idx, way), block in self._blocks.items():
            rows = []
            for e in block:
                target = list(e.target) if self.compressed else e.target
                rows.append([e.trigger, e.tag, target, e.conf, e.rrpv])
            blocks.append([set_idx, way, rows])
        return {
            "ways": self.ways,
            "blocks": blocks,
            "mrb": [[loc[0], loc[1], dirty]
                    for loc, dirty in self._mrb.items()],
            "lookups": self.lookups, "hits": self.hits,
            "inserts": self.inserts, "dedup_writes": self.dedup_writes,
            "alias_capacity": self.alias_capacity,
            "lut": self.lut.state_dict() if self.lut is not None else None,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.ways = int(state["ways"])
        self._blocks = {}
        for set_idx, way, rows in state["blocks"]:
            block = []
            for trigger, tag, target, conf, rrpv in rows:
                if self.compressed:
                    target = (int(target[0]), int(target[1]))
                else:
                    target = int(target)
                e = PairwiseEntry(int(trigger), int(tag), target)
                e.conf = int(conf)
                e.rrpv = int(rrpv)
                block.append(e)
            self._blocks[(int(set_idx), int(way))] = block
        self._mrb = OrderedDict(
            ((int(s), int(w)), bool(dirty)) for s, w, dirty in state["mrb"])
        self.lookups = int(state["lookups"])
        self.hits = int(state["hits"])
        self.inserts = int(state["inserts"])
        self.dedup_writes = int(state["dedup_writes"])
        self.alias_capacity = int(state["alias_capacity"])
        if self.lut is not None:
            self.lut.load_state(state["lut"])


class TrainingUnit:
    """Per-PC last-address tracker (Triage keeps one, Triangel keeps two)."""

    def __init__(self, size: int = 256, depth: int = 2):
        self.size = size
        self.depth = depth
        self._table: "OrderedDict[int, List[int]]" = OrderedDict()

    def update(self, pc: int, blk: int) -> List[int]:
        """Record ``blk`` for ``pc``; returns the *previous* history
        (most recent first)."""
        hist = self._table.get(pc)
        if hist is None:
            if len(self._table) >= self.size:
                self._table.popitem(last=False)
            self._table[pc] = [blk]
            return []
        self._table.move_to_end(pc)
        prev = list(hist)
        hist.insert(0, blk)
        del hist[self.depth:]
        return prev

    def state_dict(self) -> Dict[str, object]:
        return {"table": [[pc, list(hist)]
                          for pc, hist in self._table.items()]}

    def load_state(self, state: Dict[str, object]) -> None:
        self._table = OrderedDict(
            (int(pc), [int(b) for b in hist])
            for pc, hist in state["table"])
