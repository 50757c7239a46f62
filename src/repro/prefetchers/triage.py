"""Triage [Wu+ MICRO'19]: the first on-chip temporal prefetcher.

Triage keeps a pairwise metadata store in a way-partition of the LLC,
compresses prefetch targets through a lookup table (16 correlations per
block), trains on L2 misses and prefetch hits, and chases correlations
up to degree 4.  Its partition is resized periodically to maximize the
trigger hit rate; we implement a hill-climbing resizer (grow when the
store is full and triggers hit, shrink when triggers don't) as a
functional stand-in for the Hawkeye-based scheme, since Triage here is a
baseline rather than the contribution under test.

:class:`IdealTriage` is the paper's irregular-subset oracle: Triage with
unlimited dedicated metadata and zero cost (Section V-A3).
"""

from __future__ import annotations

from typing import Dict, List

from ..memory.metadata_store import PartitionController
from .base import Prefetcher, TRAIN_SCOPE_TEMPORAL
from .pairwise import PairwiseStore, TrainingUnit


class TriagePrefetcher(Prefetcher):
    """On-chip pairwise temporal prefetcher with LUT-compressed targets."""

    name = "triage"
    level = "l2"
    train_scope = TRAIN_SCOPE_TEMPORAL

    def __init__(self, degree: int = 4, initial_ways: int = 8,
                 max_ways: int = 8, resize_epoch: int = 20_000,
                 adaptive: bool = True):
        super().__init__()
        self.degree = degree
        self.initial_ways = initial_ways
        self.max_ways = max_ways
        self.resize_epoch = resize_epoch
        self.adaptive = adaptive
        self.tu = TrainingUnit(size=256, depth=1)
        self.store: PairwiseStore = None  # built at attach()
        self.controller: PartitionController = None
        self._accesses = 0
        self._epoch_lookups = 0
        self._epoch_hits = 0

    def attach(self, hier) -> None:
        llc = hier.uncore.llc
        cores = hier.uncore.num_cores
        own_sets = llc.num_sets // cores
        self.controller = PartitionController(
            llc, max_bytes=self.max_ways * own_sets * 64,
            stripe_offset=hier.core_id, stripe_step=cores)
        self.store = PairwiseStore(
            own_sets, self.controller, entries_per_block=16,
            max_ways=self.max_ways, mrb_blocks=0, compressed=True)
        self.store.resize(self.initial_ways)
        self.controller.apply_way_partition(self.initial_ways)

    # -- resizing ------------------------------------------------------------

    def _maybe_resize(self) -> None:
        if not self.adaptive or self._accesses % self.resize_epoch:
            return
        hit_rate = (self._epoch_hits / self._epoch_lookups
                    if self._epoch_lookups else 0.0)
        occupancy = (self.store.valid_entries() /
                     max(1, self.store.capacity_entries()))
        ways = self.store.ways
        if hit_rate > 0.3 and occupancy > 0.9 and ways < self.max_ways:
            ways += 1
        elif hit_rate < 0.05 and ways > 1:
            ways -= 1
        if ways != self.store.ways:
            self.store.resize(ways)
            self.controller.apply_way_partition(ways)
        self._epoch_lookups = self._epoch_hits = 0

    # -- training/prefetching ---------------------------------------------------

    def train(self, pc: int, blk: int, hit: bool, prefetch_hit: bool,
              now: float) -> List[int]:
        self._accesses += 1
        before = self.controller.traffic.total_accesses
        prev = self.tu.update(pc, blk)
        if prev:
            self.store.insert(prev[0], blk)
        candidates: List[int] = []
        cur = blk
        for _ in range(self.degree):
            lookups0, hits0 = self.store.lookups, self.store.hits
            target = self.store.lookup(cur)
            self._epoch_lookups += self.store.lookups - lookups0
            self._epoch_hits += self.store.hits - hits0
            if target is None:
                break
            candidates.append(target)
            cur = target
        self._maybe_resize()
        # Metadata traffic occupies the shared LLC port.
        self.controller.replay_traffic(self.hier, before, now)
        return candidates

    def state_dict(self):
        state = super().state_dict()
        state["tu"] = self.tu.state_dict()
        state["store"] = self.store.state_dict()
        state["controller"] = self.controller.state_dict()
        state["accesses"] = self._accesses
        state["epoch_lookups"] = self._epoch_lookups
        state["epoch_hits"] = self._epoch_hits
        return state

    def load_state(self, state) -> None:
        super().load_state(state)
        self.tu.load_state(state["tu"])
        self.store.load_state(state["store"])
        self.controller.load_state(state["controller"])
        self._accesses = int(state["accesses"])
        self._epoch_lookups = int(state["epoch_lookups"])
        self._epoch_hits = int(state["epoch_hits"])


class IdealTriage(Prefetcher):
    """Triage with unlimited, free metadata (the irregular-subset oracle)."""

    name = "triage-ideal"
    level = "l2"
    train_scope = TRAIN_SCOPE_TEMPORAL

    def __init__(self, degree: int = 4):
        super().__init__()
        self.degree = degree
        self.tu = TrainingUnit(size=4096, depth=1)
        self._pairs: Dict[int, int] = {}

    def train(self, pc: int, blk: int, hit: bool, prefetch_hit: bool,
              now: float) -> List[int]:
        prev = self.tu.update(pc, blk)
        if prev:
            self._pairs[prev[0]] = blk
        candidates: List[int] = []
        cur = blk
        for _ in range(self.degree):
            target = self._pairs.get(cur)
            if target is None:
                break
            candidates.append(target)
            cur = target
        return candidates

    def state_dict(self):
        state = super().state_dict()
        state["tu"] = self.tu.state_dict()
        state["pairs"] = [[t, tgt] for t, tgt in self._pairs.items()]
        return state

    def load_state(self, state) -> None:
        super().load_state(state)
        self.tu.load_state(state["tu"])
        self._pairs = {int(t): int(tgt) for t, tgt in state["pairs"]}
