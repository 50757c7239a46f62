"""Tests for the demand path, event bus, and train scopes."""

import pytest

from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV, EventBus
from repro.memory.hierarchy import CoreHierarchy, SharedUncore
from repro.prefetchers.base import (Prefetcher, TRAIN_SCOPE_ALL_L2,
                                    TRAIN_SCOPE_TEMPORAL)
from repro.sim.multicore import REGION_BITS, REGION_MASK, RegionView
from repro.sim.trace import TraceBuilder


def build(l1_kb=4, l2_kb=16, llc_kb=64):
    l1 = Cache("L1D", l1_kb * 1024, 4, 5)
    l2 = Cache("L2", l2_kb * 1024, 8, 10)
    llc = Cache("LLC", llc_kb * 1024, 16, 20, replacement="srrip")
    uncore = SharedUncore(llc, DRAM(channels=1, base_latency=100.0))
    return CoreHierarchy(0, l1, l2, uncore), uncore


class Recorder(Prefetcher):
    """Records every training event; prefetches nothing."""

    name = "recorder"

    def __init__(self, scope=TRAIN_SCOPE_TEMPORAL):
        super().__init__()
        self.train_scope = scope
        self.events = []

    def train(self, pc, blk, hit, prefetch_hit, now):
        self.events.append((pc, blk, hit, prefetch_hit))
        return []


class TestEventBus:
    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.subscribe("no-such-event", lambda ev: None)

    def test_counts_without_subscribers(self):
        bus = EventBus()
        bus.publish(EV.FILL, "l2", 0, 42)
        bus.publish(EV.FILL, "l2", 0, 43, origin="prefetch")
        assert bus.count(EV.FILL) == 2
        assert bus.count(EV.FILL, origin="prefetch") == 1
        assert bus.counts_flat() == {"fill@l2:demand": 1,
                                     "fill@l2:prefetch": 1}

    def test_delivery_order_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        first = lambda ev: seen.append(("first", ev.blk))   # noqa: E731
        second = lambda ev: seen.append(("second", ev.blk))  # noqa: E731
        bus.subscribe(EV.FILL, first)
        bus.subscribe(EV.FILL, second)
        bus.publish(EV.FILL, "l2", 0, 7)
        assert seen == [("first", 7), ("second", 7)]
        bus.unsubscribe(EV.FILL, first)
        bus.publish(EV.FILL, "l2", 0, 8)
        assert seen[-1] == ("second", 8)


def record_lookups(bus):
    """Subscribe a recorder of ``(level, hit)`` per lookup event."""
    seen = []
    for kind in (EV.LOOKUP_HIT, EV.LOOKUP_MISS):
        bus.subscribe(kind, lambda ev: seen.append((ev.level, ev.hit)))
    return seen


class TestRequestPipeline:
    def test_cold_miss_records_every_level(self):
        core, uncore = build()
        seen = record_lookups(uncore.bus)
        fills = []
        uncore.bus.subscribe(EV.FILL, lambda ev: fills.append(
            (ev.level, ev.now)))
        latency = core.access(0x1, 0x1000, False, 0.0)
        assert seen == [("l1d", False), ("l2", False), ("llc", False)]
        dram = uncore.dram
        assert latency == pytest.approx(
            core.l1d.latency + core.l2.latency + uncore.llc.latency
            + dram.base_latency + dram.service_cycles)
        assert latency > 100  # went to DRAM
        # Data lands everywhere when the access completes.
        assert [lv for lv, _ in fills] == ["llc", "l2", "l1d"]
        assert all(now == latency for _, now in fills)

    def test_l1_hit_stops_at_first_level(self):
        core, uncore = build()
        core.access(0x1, 0x1000, False, 0.0)
        seen = record_lookups(uncore.bus)
        assert core.access(0x1, 0x1000, False, 1000.0) == core.l1d.latency
        assert seen == [("l1d", True)]

    def test_cold_miss_event_order(self):
        core, uncore = build()
        order = []
        for kind in EV.ALL:
            uncore.bus.subscribe(
                kind, lambda ev, k=kind: order.append((k, ev.level)))
        core.access(0x1, 0x1000, False, 0.0)
        assert order == [
            (EV.LOOKUP_MISS, "l1d"),
            (EV.LOOKUP_MISS, "l2"),
            (EV.ACCESS, "llc"),
            (EV.LOOKUP_MISS, "llc"),
            (EV.FILL, "llc"),
            (EV.FILL, "l2"),
            (EV.FILL, "l1d"),
            (EV.DEMAND_COMPLETE, "l2"),
        ]

    def test_l1_hit_publishes_no_demand_complete(self):
        core, uncore = build()
        core.access(0x1, 0x1000, False, 0.0)
        before = uncore.bus.count(EV.DEMAND_COMPLETE)
        core.access(0x1, 0x1000, False, 1000.0)
        assert uncore.bus.count(EV.DEMAND_COMPLETE) == before


class TestTrainScopes:
    def test_invalid_scope_rejected_at_attach(self):
        core, _ = build()
        with pytest.raises(ValueError, match="train_scope"):
            core.attach_l2_prefetcher(Recorder(scope="bogus"))

    def test_every_shipped_prefetcher_declares_a_scope(self):
        from repro.core.streamline import StreamlinePrefetcher
        from repro.prefetchers import (BertiPrefetcher, BingoPrefetcher,
                                       IPCPPrefetcher, NullPrefetcher,
                                       SPPPrefetcher, StridePrefetcher,
                                       TriagePrefetcher, TriangelPrefetcher)
        from repro.prefetchers.triage import IdealTriage
        for cls, scope in [
                (StridePrefetcher, TRAIN_SCOPE_ALL_L2),
                (BertiPrefetcher, TRAIN_SCOPE_ALL_L2),
                (IPCPPrefetcher, TRAIN_SCOPE_ALL_L2),
                (BingoPrefetcher, TRAIN_SCOPE_ALL_L2),
                (SPPPrefetcher, TRAIN_SCOPE_ALL_L2),
                (TriagePrefetcher, TRAIN_SCOPE_TEMPORAL),
                (IdealTriage, TRAIN_SCOPE_TEMPORAL),
                (TriangelPrefetcher, TRAIN_SCOPE_TEMPORAL),
                (StreamlinePrefetcher, TRAIN_SCOPE_TEMPORAL),
                (NullPrefetcher, TRAIN_SCOPE_TEMPORAL)]:
            assert "train_scope" in vars(cls), cls.__name__
            assert cls.train_scope == scope, cls.__name__
            assert not hasattr(cls, "train_on_all_l2"), cls.__name__

    def test_temporal_scope_skips_clean_l2_hits(self):
        core, uncore = build()
        temporal = Recorder(TRAIN_SCOPE_TEMPORAL)
        broad = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l2_prefetcher(temporal)
        core.attach_l2_prefetcher(broad)
        bus = uncore.bus
        bus.publish(EV.DEMAND_COMPLETE, "l2", 0, 10, pc=1, hit=False)
        bus.publish(EV.DEMAND_COMPLETE, "l2", 0, 11, pc=1, hit=True)
        bus.publish(EV.DEMAND_COMPLETE, "l2", 0, 12, pc=1, hit=True,
                    was_prefetched=True)
        assert [e[1] for e in temporal.events] == [10, 12]
        assert [e[1] for e in broad.events] == [10, 11, 12]

    def test_training_filters_other_cores(self):
        core, uncore = build()
        pf = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l2_prefetcher(pf)
        uncore.bus.publish(EV.DEMAND_COMPLETE, "l2", 1, 10, hit=False)
        assert pf.events == []

    def test_l1_training_sees_every_l1_access(self):
        core, _ = build()
        pf = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l1_prefetcher(pf)
        core.access(0x1, 0x1000, False, 0.0)     # cold miss
        core.access(0x1, 0x1000, False, 1000.0)  # L1 hit
        assert [(blk_hit[2]) for blk_hit in pf.events] == [False, True]


class TestBiasedRegions:
    def _trace(self, addrs, name="t"):
        b = TraceBuilder(name)
        for a in addrs:
            b.add(0x1, a)
        return b.build()

    def test_core_zero_in_range_is_identity(self):
        addrs = [0x1000, 0x12345678, (1 << REGION_BITS) - 64]
        t = self._trace(addrs)
        assert [rec[1] for rec in RegionView(t, 0)] == addrs

    def test_matches_old_additive_bias_for_in_range_addresses(self):
        addrs = [0x1000, 0xDEAD_BEEF_00, (1 << 40) + 4096]
        t = self._trace(addrs)
        for core in (1, 3):
            got = [rec[1] for rec in RegionView(t, core)]
            assert got == [a + (core << REGION_BITS) for a in addrs]

    def test_regions_disjoint_even_for_oversized_footprints(self):
        # Addresses that overflow a region used to collide with the
        # next core under the additive bias; the fold keeps them home.
        huge = [(1 << REGION_BITS) + i * 64 for i in range(8)]
        t = self._trace(huge)
        blocks = {}
        for core in (0, 1, 2):
            for _, addr, _, _, _ in RegionView(t, core):
                assert addr >> REGION_BITS == core
                blocks.setdefault(core, set()).add(addr)
        assert not (blocks[0] & blocks[1])
        assert not (blocks[1] & blocks[2])

    def test_mask_covers_region(self):
        assert REGION_MASK == (1 << REGION_BITS) - 1

    def test_view_keeps_the_base_trace_identity(self):
        # Results name the workload and count its instructions, so the
        # view must report the base trace's, and seek like it.
        t = self._trace([0x1000 + 64 * i for i in range(10)], name="wl")
        view = RegionView(t, 2)
        assert (view.name, len(view), view.instructions) == \
            ("wl", len(t), t.instructions)
        assert list(view.iter_from(4)) == list(view)[4:]
