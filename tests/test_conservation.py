"""Stats-conservation checks over the demand path and event bus.

Every demand access that misses a level must show up exactly once at
the level below, and the event-bus counters must agree with the
per-cache ``CacheStats`` counters maintained independently inside
``Cache``.  Any double-count or dropped-count bug in the hierarchy's
demand or prefetch path breaks one of these identities.
"""

from repro.core.streamline import StreamlinePrefetcher
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV
from repro.memory.hierarchy import CoreHierarchy, SharedUncore
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.engine import Engine
from repro.sim.multicore import build_multicore

from conftest import chase_trace


def build(l1_kb=4, l2_kb=16, llc_kb=64):
    l1 = Cache("L1D", l1_kb * 1024, 4, 5)
    l2 = Cache("L2", l2_kb * 1024, 8, 10)
    llc = Cache("LLC", llc_kb * 1024, 16, 20, replacement="srrip")
    uncore = SharedUncore(llc, DRAM(channels=1, base_latency=100.0))
    return CoreHierarchy(0, l1, l2, uncore), uncore


class EveryOther(Prefetcher):
    """Prefetches the next block on every other training event."""

    name = "every-other"
    train_scope = "all_l2"

    def __init__(self):
        super().__init__()
        self._n = 0

    def train(self, pc, blk, hit, prefetch_hit, now):
        self._n += 1
        return [blk + 1] if self._n % 2 == 0 else []


def check_identities(bus, l1d, l2, llc, cores=(0,)):
    """The conservation identities every finished run must satisfy."""
    # Bus lookup counts vs. each cache's own hit/miss counters.
    assert bus.count(EV.LOOKUP_HIT, "l1d") == l1d.stats.hits
    assert bus.count(EV.LOOKUP_MISS, "l1d") == l1d.stats.misses
    assert bus.count(EV.LOOKUP_HIT, "l2") == l2.stats.hits
    assert bus.count(EV.LOOKUP_MISS, "l2") == l2.stats.misses
    assert bus.count(EV.LOOKUP_HIT, "llc") == llc.stats.hits
    assert bus.count(EV.LOOKUP_MISS, "llc") == llc.stats.misses
    # Level-to-level flow: every L1D demand miss descends to exactly one
    # L2 lookup (and completes exactly once), every L2 demand miss to
    # exactly one LLC demand access.
    assert l2.stats.accesses == l1d.stats.misses
    assert bus.count(EV.DEMAND_COMPLETE) == l2.stats.accesses
    assert bus.count(EV.ACCESS, "llc", origin="demand") == l2.stats.misses
    # Eviction and prefetch bookkeeping.
    assert bus.count(EV.EVICTION, "l1d") == l1d.stats.evictions
    assert bus.count(EV.EVICTION, "l2") == l2.stats.evictions
    assert bus.count(EV.EVICTION, "llc") == llc.stats.evictions
    assert bus.count(EV.FILL, "l1d", origin="prefetch") == \
        l1d.stats.prefetch_fills
    assert bus.count(EV.FILL, "l2", origin="prefetch") == \
        l2.stats.prefetch_fills
    assert bus.count(EV.PREFETCH_USEFUL, "l1d") == l1d.stats.useful_prefetches
    assert bus.count(EV.PREFETCH_USEFUL, "l2") == l2.stats.useful_prefetches


class TestHierarchyConservation:
    def test_demand_only(self):
        core, uncore = build(l1_kb=1, l2_kb=4, llc_kb=16)
        for i in range(5000):
            addr = (i * 7919) % 1024 * 64
            core.access(0x1, addr, is_write=(i % 13 == 0), now=float(i))
        check_identities(uncore.bus, core.l1d, core.l2, uncore.llc)
        assert core.l1d.stats.misses > 0  # the run exercised every level
        assert uncore.llc.stats.misses > 0

    def test_with_l2_prefetcher(self):
        core, uncore = build(l1_kb=1, l2_kb=4, llc_kb=16)
        pf = EveryOther()
        core.attach_l2_prefetcher(pf)
        for i in range(5000):
            addr = (i * 7919) % 1024 * 64
            core.access(0x1, addr, False, float(i))
        check_identities(uncore.bus, core.l1d, core.l2, uncore.llc)
        assert pf.stats.issued > 0
        assert uncore.bus.count(EV.PREFETCH_ISSUED) == pf.stats.issued
        assert uncore.bus.count(EV.PREFETCH_DROPPED) == pf.stats.dropped
        assert uncore.bus.count(EV.PREFETCH_USELESS) == \
            pf.stats.useless_evictions

    def test_metadata_events_counted(self):
        core, uncore = build()
        core.metadata_access(0.0)
        core.metadata_access(1.0, is_write=True)
        assert uncore.bus.count(EV.METADATA_READ) == 1
        assert uncore.bus.count(EV.METADATA_WRITE) == 1
        assert uncore.metadata_llc_accesses == 2


class TestEngineConservation:
    def test_single_core(self, tiny_config):
        """Post-warmup identities hold: the warm-up reset clears cache
        stats and bus counters at the same access boundary."""
        engine = Engine([chase_trace(n=6000)], tiny_config,
                        l1_prefetcher=StridePrefetcher,
                        l2_prefetchers=[StreamlinePrefetcher])
        results = engine.run().collect()
        core, uncore = engine.cores[0], engine.uncore
        check_identities(engine.bus, core.l1d, core.l2, uncore.llc)
        # The flat counters on the result are the same bus counters.
        assert results[0].events == engine.bus.counts_flat()
        assert results[0].events[
            f"{EV.LOOKUP_MISS}@l1d:demand"] == core.l1d.stats.misses

    def test_multicore(self, tiny_config):
        """With staggered per-core warm-up resets the global bus counts
        are not comparable, so conservation is checked unwarmed."""
        cfg = tiny_config.scaled(warmup_fraction=0.0)
        engine = build_multicore(
            [chase_trace("a", seed=1, n=4000),
             chase_trace("b", seed=2, n=4000)],
            cfg, l2_prefetchers=[StreamlinePrefetcher])
        engine.run().collect()
        bus = engine.bus
        for level, caches in (
                ("l1d", [c.l1d for c in engine.cores]),
                ("l2", [c.l2 for c in engine.cores]),
                ("llc", [engine.uncore.llc])):
            assert bus.count(EV.LOOKUP_HIT, level) == \
                sum(c.stats.hits for c in caches)
            assert bus.count(EV.LOOKUP_MISS, level) == \
                sum(c.stats.misses for c in caches)
            assert bus.count(EV.EVICTION, level) == \
                sum(c.stats.evictions for c in caches)
        assert bus.count(EV.DEMAND_COMPLETE) == \
            sum(c.l2.stats.accesses for c in engine.cores)
        assert bus.count(EV.ACCESS, "llc", origin="demand") == \
            sum(c.l2.stats.misses for c in engine.cores)

    def test_uncore_reset_clears_bus_counts(self):
        core, uncore = build()
        core.access(0x1, 0x1000, False, 0.0)
        assert uncore.bus.counts
        uncore.reset_stats()
        assert not uncore.bus.counts
