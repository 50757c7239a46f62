"""Three-level memory hierarchy: the demand path as straight-line code.

One :class:`CoreHierarchy` per core (private L1D + L2); the LLC, its
single R/W port, and DRAM are shared across cores via
:class:`SharedUncore`.  A demand access walks L1D → L2 → uncore in one
method: each level looks up and publishes the outcome, a miss descends,
data fills on the way back up, and dirty victims are handed to the level
below.  Everything level- or prefetcher-specific (training, partition
dueling, telemetry, probes) observes :class:`~repro.memory.events.EventBus`
events published at fixed points of that walk.

The flow per demand access matches the paper's setup:

* L1D prefetchers (IP-stride, Berti) subscribe to lookup events scoped
  to the L1D (they observe every L1D access) and prefetch into the L1D.
* L2-level prefetchers subscribe to ``demand-complete`` events, which
  fire for every access that reached the L2.  Their
  :attr:`~repro.prefetchers.base.Prefetcher.train_scope` declares what
  trains them: ``"all_l2"`` (IPCP/Bingo/SPP-PPF) trains on every L2
  access; ``"temporal_events"`` (Triage/Triangel/Streamline) trains on
  L2 misses and on L2 hits to prefetched lines.  They prefetch into the
  L2 at max degree 4.
* Temporal metadata lives in an LLC partition; metadata reads/writes go
  through the shared LLC port (modelled with a busy-until clock), are
  charged to the owning prefetcher's :class:`PartitionController`, and
  appear on the bus as ``metadata-read``/``metadata-write`` events.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..prefetchers.base import (Prefetcher, PrefetcherStats, TRAIN_SCOPES,
                                TRAIN_SCOPE_ALL_L2)
from .address import BLOCK_SHIFT
from .cache import Cache, CacheStats
from .dram import DRAM
from .events import (DEMAND, EV, METADATA, PREFETCH, WRITEBACK, EventBus,
                     HierarchyEvent)


class SharedUncore:
    """Shared LLC + port + DRAM, the event bus, and the prefetcher registry.

    The uncore owns the :class:`EventBus` because LLC-side events must
    reach every core's observers (dynamic partitioners duel at the LLC,
    so they see *every* core's demand traffic, as in hardware).  The
    registry maps owner ids to prefetchers, so each core can credit a
    prefetch event to the prefetcher that issued the line.
    """

    def __init__(self, llc: Cache, dram: DRAM, port_occupancy: float = 1.0,
                 num_cores: int = 1, bus: Optional[EventBus] = None):
        self.llc = llc
        self.dram = dram
        self.port_occupancy = port_occupancy
        self.num_cores = num_cores
        self._port_free = 0.0
        self.prefetchers: Dict[int, Prefetcher] = {}
        self._next_owner = 0
        self.demand_llc_accesses = 0
        self.metadata_llc_accesses = 0
        self.bus = bus if bus is not None else EventBus()

    def register(self, pf: Prefetcher) -> int:
        owner = self._next_owner
        self._next_owner += 1
        pf.owner_id = owner
        self.prefetchers[owner] = pf
        return owner

    def port_delay(self, now: float) -> float:
        """Queue on the single LLC port; returns the queueing delay."""
        free = self._port_free
        if free > now:
            self._port_free = free + self.port_occupancy
            return free - now
        self._port_free = now + self.port_occupancy
        return 0.0

    def reset_stats(self) -> None:
        self.llc.stats = CacheStats()
        self.dram.stats = type(self.dram.stats)()
        self.demand_llc_accesses = 0
        self.metadata_llc_accesses = 0
        self.bus.reset_counts()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """LLC + DRAM + port + bus counters; the prefetcher registry is
        wiring (snapshotted separately, in registration order, by the
        engine)."""
        return {"llc": self.llc.state_dict(),
                "dram": self.dram.state_dict(),
                "port_free": self._port_free,
                "demand_llc_accesses": self.demand_llc_accesses,
                "metadata_llc_accesses": self.metadata_llc_accesses,
                "bus": self.bus.state_dict()}

    def load_state(self, state: Dict[str, object]) -> None:
        self.llc.load_state(state["llc"])
        self.dram.load_state(state["dram"])
        self._port_free = float(state["port_free"])
        self.demand_llc_accesses = int(state["demand_llc_accesses"])
        self.metadata_llc_accesses = int(state["metadata_llc_accesses"])
        self.bus.load_state(state["bus"])


class CoreHierarchy:
    """One core's private L1D + L2 plus its view of the shared uncore."""

    def __init__(self, core_id: int, l1d: Cache, l2: Cache,
                 uncore: SharedUncore):
        self.core_id = core_id
        self.l1d = l1d
        self.l2 = l2
        self.uncore = uncore
        self.bus = uncore.bus
        self.l1_prefetcher: Optional[Prefetcher] = None
        self.l2_prefetchers: List[Prefetcher] = []
        # Trainer closures subscribed on behalf of attached prefetchers,
        # recorded so detach_prefetchers() can release them.
        self._pf_subs: List[tuple] = []
        # Demand L2 misses that had to go below (the "uncovered" count in
        # the coverage metric).
        self.uncovered_misses = 0
        self.demand_accesses = 0

    # -- wiring -------------------------------------------------------------

    def attach_l1_prefetcher(self, pf: Prefetcher) -> None:
        self.uncore.register(pf)
        pf.hier = self
        self.l1_prefetcher = pf
        pf.attach(self)
        for kind in (EV.LOOKUP_HIT, EV.LOOKUP_MISS):
            trainer = self._make_l1_trainer(pf)
            self.bus.subscribe(kind, trainer, level="l1d")
            self._pf_subs.append((kind, trainer))

    def attach_l2_prefetcher(self, pf: Prefetcher) -> None:
        if pf.train_scope not in TRAIN_SCOPES:
            raise ValueError(
                f"{pf.name}: train_scope must be one of {TRAIN_SCOPES}, "
                f"got {pf.train_scope!r}")
        self.uncore.register(pf)
        pf.hier = self
        self.l2_prefetchers.append(pf)
        pf.attach(self)
        trainer = self._make_l2_trainer(pf)
        self.bus.subscribe(EV.DEMAND_COMPLETE, trainer)
        self._pf_subs.append((EV.DEMAND_COMPLETE, trainer))

    def detach_prefetchers(self) -> None:
        """Release every bus subscription taken for this core's
        prefetchers: the trainer closures subscribed here, and whatever
        each prefetcher registered itself (LLC-side duelers).

        Idempotent.  Prefetcher and cache state stay readable — only
        event delivery stops — so post-run probes are unaffected.
        """
        for kind, fn in self._pf_subs:
            self.bus.unsubscribe(kind, fn)
        self._pf_subs.clear()
        pfs = list(self.l2_prefetchers)
        if self.l1_prefetcher is not None:
            pfs.append(self.l1_prefetcher)
        for pf in pfs:
            pf.detach(self)

    def _make_l1_trainer(self, pf: Prefetcher):
        """L1D training: every demand lookup at this core's L1D (the
        subscription is scoped to ``l1d``; the core is tested here)."""
        core_id = self.core_id

        def train(ev: HierarchyEvent) -> None:
            if ev.core_id != core_id:
                return
            for cand in pf.train(ev.pc, ev.blk, ev.hit, ev.was_prefetched,
                                 ev.now):
                self.issue_prefetch(cand, ev.pc, ev.now, pf.owner_id, "l1d")
        return train

    def _make_l2_trainer(self, pf: Prefetcher):
        """L2 training: gated by the prefetcher's declared train_scope."""
        all_l2 = pf.train_scope == TRAIN_SCOPE_ALL_L2
        core_id = self.core_id

        def train(ev: HierarchyEvent) -> None:
            if ev.core_id != core_id:
                return
            if all_l2 or not ev.hit or ev.was_prefetched:
                for cand in pf.train(ev.pc, ev.blk, ev.hit,
                                     ev.was_prefetched, ev.now):
                    self.issue_prefetch(cand, ev.pc, ev.now, pf.owner_id,
                                        "l2")
        return train

    # -- the demand path ---------------------------------------------------------

    def access(self, pc: int, addr: int, is_write: bool,
               now: float) -> float:
        """One demand access; returns its load-to-use latency in cycles.

        ``latency`` accumulates each level's contribution, so
        ``now + latency`` is the cycle at which the access stands at the
        current level (and at which data fills on the way back up).
        Only the L1D sees the write bit; dirtiness enters lower levels
        through writebacks.
        """
        self.demand_accesses += 1
        blk = addr >> BLOCK_SHIFT
        bus = self.bus
        core_id = self.core_id
        hit, latency, was_pf, owner = self.l1d.lookup(blk, now, is_write)
        bus.publish(EV.LOOKUP_HIT if hit else EV.LOOKUP_MISS, "l1d",
                    core_id, blk, pc, DEMAND, now, hit, was_pf, owner)
        if hit:
            if was_pf:
                self._prefetch_useful("l1d", blk, now, owner)
            return latency
        hit, lat, was_pf, owner = self.l2.lookup(blk, now + latency)
        bus.publish(EV.LOOKUP_HIT if hit else EV.LOOKUP_MISS, "l2",
                    core_id, blk, pc, DEMAND, now, hit, was_pf, owner)
        latency += lat
        if hit:
            if was_pf:
                self._prefetch_useful("l2", blk, now, owner)
        else:
            latency += self._llc_access(blk, pc, now + latency, DEMAND)
            self._fill(self.l2, blk, now + latency, pc)
        self._fill(self.l1d, blk, now + latency, pc)
        if not hit:
            self.uncovered_misses += 1
        bus.publish(EV.DEMAND_COMPLETE, "l2", core_id, blk, pc, DEMAND,
                    now, hit, was_pf, owner)
        return latency

    def _llc_access(self, blk: int, pc: int, now: float,
                    origin: str) -> float:
        """Shared LLC port + LLC, and DRAM on a miss (filling the LLC).

        Returns the whole uncore contribution from ``now``: port delay +
        LLC latency, plus DRAM on a miss.
        """
        uncore = self.uncore
        bus = self.bus
        core_id = self.core_id
        delay = uncore.port_delay(now)
        uncore.demand_llc_accesses += 1
        bus.publish(EV.ACCESS, "llc", core_id, blk, pc, origin, now)
        llc = uncore.llc
        hit, lat, was_pf, owner = llc.lookup(blk, now + delay)
        bus.publish(EV.LOOKUP_HIT if hit else EV.LOOKUP_MISS, "llc",
                    core_id, blk, pc, origin, now, hit, was_pf, owner)
        lat = delay + lat
        if not hit:
            lat += uncore.dram.access(blk, now + lat,
                                      is_prefetch=origin == PREFETCH)
            ready = now + lat
            victim = llc.fill(blk, ready, pc)
            bus.publish(EV.FILL, "llc", core_id, blk, pc, origin, ready)
            if victim is not None:
                bus.publish(EV.EVICTION, "llc", core_id, victim.blk,
                            victim.pc, origin, ready, False, False,
                            victim.owner, victim.dirty)
                if victim.dirty:
                    uncore.dram.access(victim.blk, ready, is_write=True)
        return lat

    def _fill(self, cache: Cache, blk: int, ready: float, pc: int,
              prefetch: bool = False, owner: int = -1,
              origin: str = DEMAND) -> None:
        """Install a block in a private level; credit and write back the
        victim if needed (an L1D victim lands in the L2, an L2 victim in
        the LLC)."""
        to_l1 = cache is self.l1d
        level = "l1d" if to_l1 else "l2"
        bus = self.bus
        victim = cache.fill(blk, ready, pc, prefetch, False, owner)
        bus.publish(EV.FILL, level, self.core_id, blk, pc,
                    PREFETCH if prefetch else origin, ready, False, False,
                    owner)
        if victim is None:
            return
        vblk, vpc, vowner, vdirty, vprefetched, vtouched = victim
        bus.publish(EV.EVICTION, level, self.core_id, vblk, vpc, origin,
                    ready, False, False, vowner, vdirty)
        if vprefetched and not vtouched:
            pf = self.uncore.prefetchers.get(vowner)
            if pf is not None:
                pf.note_useless(vblk, ready)
            bus.publish(EV.PREFETCH_USELESS, level, self.core_id, vblk, 0,
                        DEMAND, ready, False, False, vowner)
        if vdirty:
            if to_l1:
                self._l2_writeback(vblk, vpc, ready)
            else:
                self._llc_writeback(vblk, vpc, ready)

    def _l2_writeback(self, blk: int, pc: int, now: float) -> None:
        """A dirty L1D victim lands in the L2.

        The cascade (a victim of the writeback fill itself) is
        intentionally not modelled at private levels; only the uncore
        propagates writeback victims onward to DRAM.
        """
        victim = self.l2.fill(blk, now, pc, dirty=True)
        self.bus.publish(EV.FILL, "l2", self.core_id, blk, pc, WRITEBACK,
                         now, False, False, -1, True)
        if victim is not None:
            self.bus.publish(EV.EVICTION, "l2", self.core_id, victim.blk,
                             victim.pc, WRITEBACK, now, False, False,
                             victim.owner, victim.dirty)

    def _llc_writeback(self, blk: int, pc: int, now: float) -> None:
        """A dirty L2 victim lands in the LLC.

        Off the critical path: the port slot is consumed, but nobody
        waits on the queueing delay.
        """
        uncore = self.uncore
        uncore.port_delay(now)
        victim = uncore.llc.fill(blk, now, pc, dirty=True)
        self.bus.publish(EV.FILL, "llc", self.core_id, blk, pc, WRITEBACK,
                         now, False, False, -1, True)
        if victim is not None:
            self.bus.publish(EV.EVICTION, "llc", self.core_id, victim.blk,
                             victim.pc, WRITEBACK, now, False, False,
                             victim.owner, victim.dirty)
            if victim.dirty:
                uncore.dram.access(victim.blk, now, is_write=True)

    def _prefetch_useful(self, level: str, blk: int, now: float,
                         owner: int) -> None:
        """First demand touch of a prefetched line at ``level``."""
        pf = self.uncore.prefetchers.get(owner)
        if pf is not None:
            pf.note_useful(blk, now)
        self.bus.publish(EV.PREFETCH_USEFUL, level, self.core_id, blk, 0,
                         DEMAND, now, False, False, owner)

    # -- prefetch issue ---------------------------------------------------------

    def issue_prefetch(self, blk: int, pc: int, now: float, owner: int,
                       target: str = "l2") -> bool:
        """Fetch ``blk`` into ``target`` on behalf of prefetcher ``owner``.

        Returns False (and counts a drop) if the block is already cached
        at or above the target level.  An L1D prefetch that misses the L2
        fills the L2 on the way up, as a demand fill would.
        """
        to_l1 = target == "l1d"
        level = "l1d" if to_l1 else "l2"
        pf = self.uncore.prefetchers.get(owner)
        if (self.l1d if to_l1 else self.l2).probe(blk):
            if pf is not None:
                pf.stats.dropped += 1
            self.bus.publish(EV.PREFETCH_DROPPED, level, self.core_id,
                             blk, pc, PREFETCH, now, False, False, owner)
            return False
        if to_l1:
            if self.l2.probe(blk):
                lat: float = self.l2.latency
            else:
                lat = self.l2.latency + self._llc_access(blk, pc, now,
                                                         PREFETCH)
                self._fill(self.l2, blk, now + lat, pc)
            self._fill(self.l1d, blk, now + lat, pc, True, owner, PREFETCH)
        else:
            lat = self._llc_access(blk, pc, now, PREFETCH)
            self._fill(self.l2, blk, now + lat, pc, True, owner, PREFETCH)
        if pf is not None:
            pf.stats.issued += 1
        self.bus.publish(EV.PREFETCH_ISSUED, level, self.core_id, blk, pc,
                         PREFETCH, now, False, False, owner)
        return True

    # -- temporal metadata path --------------------------------------------------

    def metadata_access(self, now: float, is_write: bool = False) -> float:
        """One metadata block access through the shared LLC port."""
        uncore = self.uncore
        uncore.metadata_llc_accesses += 1
        delay = uncore.port_delay(now)
        self.bus.publish(EV.METADATA_WRITE if is_write else EV.METADATA_READ,
                         "llc", self.core_id, -1, 0, METADATA, now)
        return delay + uncore.llc.latency

    # -- stats ----------------------------------------------------------------

    def reset_stats(self) -> None:
        self.l1d.stats = CacheStats()
        self.l2.stats = CacheStats()
        self.uncovered_misses = 0
        self.demand_accesses = 0
        for pf in list(self.l2_prefetchers) + (
                [self.l1_prefetcher] if self.l1_prefetcher else []):
            pf.stats = PrefetcherStats()

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Private caches + demand counters; attached prefetchers are
        snapshotted separately by the engine."""
        return {"l1d": self.l1d.state_dict(),
                "l2": self.l2.state_dict(),
                "uncovered_misses": self.uncovered_misses,
                "demand_accesses": self.demand_accesses}

    def load_state(self, state: Dict[str, object]) -> None:
        self.l1d.load_state(state["l1d"])
        self.l2.load_state(state["l2"])
        self.uncovered_misses = int(state["uncovered_misses"])
        self.demand_accesses = int(state["demand_accesses"])
