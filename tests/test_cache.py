"""Unit tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache


def make_cache(size=4096, ways=4, latency=5, replacement="lru"):
    return Cache("T", size, ways, latency, replacement)


class TestGeometry:
    def test_sets_derived_from_size(self):
        c = make_cache(size=4096, ways=4)       # 4096/(64*4) = 16 sets
        assert c.num_sets == 16

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ValueError, match="power of two"):
            Cache("bad", 3 * 64 * 4, 4, 1)

    def test_set_mapping_uses_low_bits(self):
        c = make_cache()
        assert c.set_of(17) == 17 % c.num_sets


class TestLookupAndFill:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(5, 0.0).hit
        c.fill(5, ready=0.0)
        assert c.lookup(5, 1.0).hit

    def test_hit_latency(self):
        c = make_cache(latency=7)
        c.fill(5, ready=0.0)
        assert c.lookup(5, 1.0).latency == 7

    def test_late_fill_adds_residual_latency(self):
        c = make_cache(latency=5)
        c.fill(5, ready=100.0)
        r = c.lookup(5, now=40.0)
        assert r.hit
        assert r.latency == 5 + 60.0

    def test_write_sets_dirty_and_eviction_reports_writeback(self):
        c = make_cache(size=64 * 2, ways=2)  # 1 set, 2 ways
        c.fill(0, 0.0)
        c.lookup(0, 0.0, is_write=True)
        c.fill(1, 0.0)
        evicted = c.fill(2, 0.0)
        assert evicted is not None and evicted.blk == 0 and evicted.dirty
        assert c.stats.writebacks == 1

    def test_eviction_follows_lru(self):
        c = make_cache(size=64 * 2, ways=2)
        c.fill(0, 0.0)
        c.fill(1, 0.0)
        c.lookup(0, 1.0)              # 1 becomes LRU
        evicted = c.fill(2, 0.0)
        assert evicted.blk == 1

    def test_refill_in_place_does_not_evict(self):
        c = make_cache(size=64 * 2, ways=2)
        c.fill(0, 0.0)
        c.fill(1, 0.0)
        assert c.fill(0, 0.0) is None

    def test_invalidate(self):
        c = make_cache()
        c.fill(9, 0.0)
        assert c.invalidate(9)
        assert not c.lookup(9, 0.0).hit
        assert not c.invalidate(9)


class TestPrefetchTracking:
    def test_first_touch_credits_prefetch_once(self):
        c = make_cache()
        c.fill(5, 0.0, prefetch=True, owner=3)
        r1 = c.lookup(5, 1.0)
        r2 = c.lookup(5, 2.0)
        assert r1.was_prefetched and r1.owner == 3
        assert not r2.was_prefetched
        assert c.stats.useful_prefetches == 1

    def test_late_prefetch_counted(self):
        c = make_cache()
        c.fill(5, ready=50.0, prefetch=True)
        c.lookup(5, now=10.0)
        assert c.stats.late_prefetch_hits == 1

    def test_evicted_line_carries_prefetch_state(self):
        c = make_cache(size=64 * 2, ways=2)
        c.fill(0, 0.0, prefetch=True, owner=7)
        c.fill(1, 0.0)
        evicted = c.fill(2, 0.0)
        assert evicted.prefetched and not evicted.pf_touched
        assert evicted.owner == 7


class TestPartitioning:
    def test_shrink_invalidates_ceded_ways(self):
        c = make_cache(size=64 * 4, ways=4)  # 1 set
        for blk in range(4):
            c.fill(blk, 0.0)
        dropped = c.set_data_ways(0, 2)
        assert dropped == 2
        assert c.stats.partition_invalidations == 2

    def test_lookup_ignores_ceded_ways(self):
        c = make_cache(size=64 * 4, ways=4)
        for blk in range(4):
            c.fill(blk, 0.0)
        c.set_data_ways(0, 2)
        hits = sum(c.lookup(blk, 0.0).hit for blk in range(4))
        assert hits == sum(1 for blk in range(2) if c.probe(blk))

    def test_zero_ways_bypasses_fill(self):
        c = make_cache(size=64 * 4, ways=4)
        c.set_data_ways(0, 0)
        assert c.fill(0, 0.0) is None
        assert not c.probe(0)

    def test_grow_restores_capacity(self):
        c = make_cache(size=64 * 4, ways=4)
        c.set_data_ways(0, 2)
        c.set_data_ways(0, 4)
        for blk in range(4):
            c.fill(blk, 0.0)
        assert all(c.probe(blk) for blk in range(4))

    def test_rejects_out_of_range(self):
        c = make_cache()
        with pytest.raises(ValueError):
            c.set_data_ways(0, 5)


class TestStats:
    def test_miss_rate(self):
        c = make_cache()
        c.lookup(1, 0.0)
        c.fill(1, 0.0)
        c.lookup(1, 0.0)
        assert c.stats.miss_rate == pytest.approx(0.5)

    def test_occupancy(self):
        c = make_cache(size=64 * 4, ways=4)
        assert c.occupancy() == 0.0
        c.fill(0, 0.0)
        assert c.occupancy() == pytest.approx(0.25)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                max_size=300))
def test_capacity_never_exceeded(blocks):
    """Property: valid lines never exceed ways per set."""
    c = make_cache(size=64 * 8, ways=2)  # 4 sets x 2 ways
    for blk in blocks:
        if not c.lookup(blk, 0.0).hit:
            c.fill(blk, 0.0)
    for set_idx in range(c.num_sets):
        valid = [l for l in c.lines[set_idx] if l.valid]
        assert len(valid) <= 2
        assert len({l.blk for l in valid}) == len(valid)  # no dup tags


def test_cache_free_ways_stays_exact():
    """``Cache.free_ways`` (the O(1) "any invalid way?" fill decision)
    must track the invalid-way count through fills, invalidations, and
    partition resizes."""
    cache = Cache("L", 64 * 4 * 8, 4, 1)

    def recount():
        return [sum(1 for line in row[:nd] if not line.valid)
                for row, nd in zip(cache.lines, cache._data_ways)]

    rng = np.random.default_rng(7)
    for blk in rng.integers(0, 256, size=400).tolist():
        cache.fill(int(blk), 0.0)
        assert cache.free_ways == recount()
    for blk in rng.integers(0, 256, size=64).tolist():
        cache.invalidate(int(blk))
        assert cache.free_ways == recount()
    for s in range(cache.num_sets):
        cache.set_data_ways(s, 2)
        assert cache.free_ways == recount()
        cache.set_data_ways(s, 4)
        assert cache.free_ways == recount()
    state = cache.state_dict()
    fresh = Cache("L", 64 * 4 * 8, 4, 1)
    fresh.load_state(state)
    assert fresh.free_ways == cache.free_ways
