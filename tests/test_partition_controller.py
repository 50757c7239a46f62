"""Tests for the LLC PartitionController (way/set/hybrid + striping)."""

import pytest

from repro.memory.cache import Cache
from repro.memory.metadata_store import (MetadataTraffic,
                                         PartitionController)


def make_llc(kb=64):
    return Cache("LLC", kb * 1024, 16, 20)


class TestWayPartition:
    def test_cedes_ways_everywhere(self):
        llc = make_llc()
        ctl = PartitionController(llc, 1 << 20)
        ctl.apply_way_partition(4)
        assert all(llc.data_ways(s) == 12 for s in range(llc.num_sets))
        assert ctl.current_bytes == 4 * llc.num_sets * 64

    def test_shrink_reports_invalidations(self):
        llc = make_llc()
        for blk in range(16):  # fill set 0
            llc.fill(blk * llc.num_sets, 0.0)
        ctl = PartitionController(llc, 1 << 20)
        dropped = ctl.apply_way_partition(8)
        assert dropped == 8

    def test_dedicated_store_no_llc(self):
        ctl = PartitionController(None, 1 << 20)
        assert ctl.apply_way_partition(8) == 0


class TestSetPartition:
    def test_every_other_set(self):
        llc = make_llc()
        ctl = PartitionController(llc, 1 << 20)
        ctl.apply_set_partition(2, meta_ways=8)
        for s in range(llc.num_sets):
            expected = 8 if s % 2 == 0 else 16
            assert llc.data_ways(s) == expected

    def test_zero_size_keeps_permanent(self):
        llc = make_llc()
        ctl = PartitionController(llc, 1 << 20)
        ctl.apply_set_partition(0, meta_ways=8, permanent_every=8)
        ceded = [s for s in range(llc.num_sets) if llc.data_ways(s) < 16]
        assert ceded == [s for s in range(llc.num_sets) if s % 8 == 0]

    def test_hybrid_uses_fewer_ways(self):
        llc = make_llc()
        ctl = PartitionController(llc, 1 << 20)
        ctl.apply_hybrid_partition(2, meta_ways=4)
        assert llc.data_ways(0) == 12
        assert llc.data_ways(1) == 16


class TestStriping:
    def test_stripes_disjoint(self):
        llc = make_llc()
        a = PartitionController(llc, 1 << 20, stripe_offset=0,
                                stripe_step=2)
        b = PartitionController(llc, 1 << 20, stripe_offset=1,
                                stripe_step=2)
        a.apply_way_partition(8)
        b.apply_way_partition(4)
        for s in range(llc.num_sets):
            assert llc.data_ways(s) == (8 if s % 2 == 0 else 12)

    def test_own_sets(self):
        llc = make_llc()
        ctl = PartitionController(llc, 1 << 20, stripe_offset=1,
                                  stripe_step=4)
        assert ctl.own_sets == llc.num_sets // 4

    def test_stripe_set_matches_owned_sets(self):
        llc = make_llc()
        ctls = [PartitionController(llc, 1 << 20, stripe_offset=i,
                                    stripe_step=4) for i in range(4)]
        for blk in range(3 * llc.num_sets):
            owners = [(i, ctl.stripe_set(blk))
                      for i, ctl in enumerate(ctls)
                      if ctl.stripe_set(blk) >= 0]
            assert len(owners) == 1  # exactly one stripe per block
            i, own = owners[0]
            assert own * 4 + i == blk % llc.num_sets

    def test_invalid_stripe_rejected(self):
        with pytest.raises(ValueError):
            PartitionController(None, 1, stripe_offset=2, stripe_step=2)
        with pytest.raises(ValueError):
            PartitionController(None, 1, stripe_step=0)


class TestTraffic:
    def test_accounting_arithmetic(self):
        t = MetadataTraffic(reads=3, writes=2, rearrange_moves=4)
        assert t.total_accesses == 3 + 2 + 8
        assert t.bytes == 64 * 13

    def test_record_helpers(self):
        ctl = PartitionController(None, 1)
        ctl.record_read()
        ctl.record_write(2)
        ctl.record_rearrangement(5)
        assert ctl.traffic.reads == 1
        assert ctl.traffic.writes == 2
        assert ctl.traffic.rearrange_moves == 5

    def test_replay_reads_the_delta_on_the_port(self):
        class Port:
            def __init__(self):
                self.reads = []

            def metadata_access(self, now, is_write=False):
                assert not is_write
                self.reads.append(now)

        ctl = PartitionController(None, 1)
        ctl.record_read(2)
        before = ctl.traffic.total_accesses
        ctl.record_write()
        ctl.record_rearrangement(1)  # a read plus a write
        port = Port()
        ctl.replay_traffic(port, before, 7.0)
        assert port.reads == [7.0] * 3
