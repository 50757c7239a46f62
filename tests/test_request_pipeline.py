"""Tests for the demand path, event bus, and train scopes."""

import pytest

from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV, EventBus, HierarchyEvent
from repro.memory.hierarchy import CoreHierarchy, SharedUncore
from repro.prefetchers.base import (Prefetcher, TRAIN_SCOPE_ALL_L2,
                                    TRAIN_SCOPE_TEMPORAL)
from repro.sim.multicore import REGION_BITS, REGION_MASK, RegionView
from repro.sim.trace import TraceBuilder


def build(l1_kb=4, l2_kb=16, llc_kb=64, bus=None):
    l1 = Cache("L1D", l1_kb * 1024, 4, 5)
    l2 = Cache("L2", l2_kb * 1024, 8, 10)
    llc = Cache("LLC", llc_kb * 1024, 16, 20, replacement="srrip")
    uncore = SharedUncore(llc, DRAM(channels=1, base_latency=100.0),
                          bus=bus)
    return CoreHierarchy(0, l1, l2, uncore), uncore


class SpyBus(EventBus):
    """Logs ``(kind, level, origin)`` of every delivery, per handler."""

    def __init__(self):
        super().__init__()
        self.deliveries = {}

    def subscribe(self, kind, fn, **scope):
        log = self.deliveries.setdefault(getattr(fn, "__qualname__", ""),
                                         [])

        def spy(ev):
            log.append((ev.kind, ev.level, ev.origin))
            fn(ev)
        super().subscribe(kind, spy, **scope)


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

    def test_events_are_immutable_tuples(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EV.FILL, seen.append)
        bus.publish(EV.FILL, "l2", 3, 42, 7, "prefetch", 1.5, True, True,
                    2, True)
        (ev,) = seen
        assert isinstance(ev, tuple) and type(ev) is HierarchyEvent
        assert ev == HierarchyEvent(EV.FILL, "l2", 3, 42, 7, "prefetch",
                                    1.5, True, True, 2, True)
        with pytest.raises(AttributeError):
            ev.blk = 0

    def test_scoped_delivery_in_subscription_order(self):
        bus = EventBus()
        seen = []

        def sub(name, **scope):
            bus.subscribe(EV.FILL, lambda ev: seen.append(name), **scope)
        sub("any")
        sub("l2", level="l2")
        sub("prefetch", origin="prefetch")
        sub("l2-prefetch", level="l2", origin="prefetch")
        expected = {
            ("l1d", "demand"): ["any"],
            ("l1d", "prefetch"): ["any", "prefetch"],
            ("l2", "demand"): ["any", "l2"],
            ("l2", "prefetch"): ["any", "l2", "prefetch", "l2-prefetch"],
        }
        for (level, origin), names in expected.items():
            seen.clear()
            bus.publish(EV.FILL, level, 0, 1, origin=origin)
            assert seen == names, (level, origin)

    def test_subscribe_and_unsubscribe_rewire_published_keys(self):
        bus = EventBus()
        seen = []
        bus.publish(EV.FILL, "l2", 0, 1)   # slots exist before anyone
        bus.publish(EV.FILL, "l1d", 0, 2)  # subscribes
        late = seen.append
        bus.subscribe(EV.FILL, late, level="l2")
        bus.publish(EV.FILL, "l2", 0, 3)
        bus.publish(EV.FILL, "l1d", 0, 4)
        assert [ev.blk for ev in seen] == [3]
        bus.unsubscribe(EV.FILL, late)
        bus.publish(EV.FILL, "l2", 0, 5)
        assert [ev.blk for ev in seen] == [3]
        assert bus.count(EV.FILL) == 5

    def test_counts_keep_first_publish_order(self):
        bus = EventBus()
        bus.subscribe(EV.FILL, lambda ev: None, level="l2")
        keys = [(EV.FILL, "l2", "demand"), (EV.ACCESS, "llc", "prefetch"),
                (EV.FILL, "l1d", "demand")]
        for kind, level, origin in keys + keys[:1]:
            bus.publish(kind, level, 0, 1, origin=origin)
        assert list(bus.counts) == keys
        assert list(bus.counts.values()) == [2, 1, 1]
        state = bus.state_dict()
        assert [tuple(row[:3]) for row in state["counts"]] == keys
        # A reset forgets the order with the counts.
        bus.reset_counts()
        assert bus.counts == {} and bus.state_dict() == {"counts": []}
        for kind, level, origin in keys[::-1]:
            bus.publish(kind, level, 0, 1, origin=origin)
        assert list(bus.counts) == keys[::-1]
        # load_state restores the saved order, and the loaded slots
        # still deliver to (only) their matching subscribers.
        bus.load_state(state)
        assert bus.state_dict() == state
        assert list(bus.counts) == keys
        seen = []
        bus.subscribe(EV.FILL, seen.append, level="l1d")
        bus.publish(EV.FILL, "l1d", 0, 9)
        bus.publish(EV.FILL, "l2", 0, 10)
        assert [ev.blk for ev in seen] == [9]
        assert list(bus.counts.values()) == [3, 1, 2]
        fresh = EventBus()
        fresh.load_state(bus.state_dict())
        assert fresh.counts == bus.counts
        assert list(fresh.counts) == list(bus.counts)


class TestScopedSubscribers:
    """Observers subscribe with scopes, so events outside them are never
    delivered (the handlers no longer test level or origin)."""

    def test_l1_trainer_gets_only_l1d_lookups(self):
        bus = SpyBus()
        core, _ = build(bus=bus)
        pf = Recorder(TRAIN_SCOPE_ALL_L2)
        core.attach_l1_prefetcher(pf)
        core.access(0x1, 0x1000, False, 0.0)     # misses every level
        core.access(0x1, 0x1000, False, 1000.0)  # L1 hit
        (log,) = [v for k, v in bus.deliveries.items() if "l1" in k]
        assert log == [(EV.LOOKUP_MISS, "l1d", "demand"),
                       (EV.LOOKUP_HIT, "l1d", "demand")]
        assert len(pf.events) == 2

    @pytest.mark.parametrize("name", ["triangel", "streamline"])
    def test_dueler_gets_only_demand_accesses(self, name):
        from repro.core.streamline import StreamlinePrefetcher
        from repro.prefetchers import TriangelPrefetcher
        cls = {"triangel": TriangelPrefetcher,
               "streamline": StreamlinePrefetcher}[name]
        bus = SpyBus()
        core, _ = build(bus=bus)
        core.attach_l2_prefetcher(cls())
        core.access(0x1, 0x1000, False, 0.0)
        core.issue_prefetch(0x9000 >> 6, 0x1, 10.0, 0)
        core.access(0x1, 0x2000, False, 20.0)
        (log,) = [v for k, v in bus.deliveries.items()
                  if "_on_llc_demand" in k]
        assert log == [(EV.ACCESS, "llc", "demand")] * 2
        assert bus.count(EV.ACCESS, origin="prefetch") == 1

    def test_telemetry_pacing_gets_only_l1d_lookups(self):
        from repro.telemetry import TelemetryConfig
        from repro.telemetry.intervals import IntervalSampler
        bus = SpyBus()
        core, _ = build(bus=bus)
        sampler = IntervalSampler(bus, TelemetryConfig(interval=1))
        core.access(0x1, 0x1000, False, 0.0)
        core.access(0x1, 0x1000, False, 1000.0)
        (log,) = [v for k, v in bus.deliveries.items()
                  if "_on_l1d_lookup" in k]
        assert [level for _, level, _ in log] == ["l1d", "l1d"]
        assert sampler.series()["access"] == [1, 2]


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
