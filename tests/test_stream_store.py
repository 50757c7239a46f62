"""Tests for the FTS stream metadata store and its Table I siblings."""

import pytest

from repro.core.metadata_store import StreamStore
from repro.core.replacement import make_stream_replacement
from repro.core.stream_entry import StreamEntry
from repro.memory.address import fold_hash
from repro.memory.metadata_store import PartitionController


def make_store(sets=64, **kwargs):
    controller = PartitionController(None, max_bytes=sets * 8 * 64)
    defaults = dict(stream_length=4, meta_ways=8,
                    replacement=make_stream_replacement("srrip"),
                    permanent_sets=8)
    defaults.update(kwargs)
    return StreamStore(sets, controller, **defaults), controller


def entry(trigger, targets=(), pc=0):
    return StreamEntry(trigger, 4, list(targets), pc=pc)


class TestBasicOps:
    def test_insert_then_lookup(self):
        store, _ = make_store()
        store.insert(entry(100, [101, 102, 103, 104]))
        got = store.lookup(100)
        assert got is not None
        assert got.targets == [101, 102, 103, 104]

    def test_lookup_returns_copy(self):
        store, _ = make_store()
        store.insert(entry(100, [101]))
        got = store.lookup(100)
        got.targets.append(999)
        assert store.lookup(100).targets == [101]

    def test_lookup_miss(self):
        store, _ = make_store()
        assert store.lookup(42) is None
        assert store.stats.lookups == 1 and store.stats.hits == 0

    def test_same_trigger_overwrites(self):
        store, _ = make_store()
        store.insert(entry(100, [1]))
        store.insert(entry(100, [2]))
        assert store.lookup(100).targets == [2]
        assert store.stats.overwrites == 1

    def test_mid_stream_address_is_not_a_trigger(self):
        """The stream format's coverage tax: only triggers index."""
        store, _ = make_store()
        store.insert(entry(100, [101, 102, 103, 104]))
        assert store.lookup(102) is None


class TestTraffic:
    def test_hit_costs_one_read(self):
        store, ctl = make_store()
        store.insert(entry(100, [101]))
        writes = ctl.traffic.writes
        store.lookup(100)
        assert ctl.traffic.reads == 1
        assert ctl.traffic.writes == writes

    def test_miss_costs_nothing(self):
        store, ctl = make_store()
        store.lookup(100)
        assert ctl.traffic.reads == 0

    def test_insert_costs_one_write(self):
        store, ctl = make_store()
        store.insert(entry(100, [101]))
        assert ctl.traffic.writes == 1

    def test_filtered_insert_costs_nothing(self):
        store, ctl = make_store()
        store.set_partition(every_nth=0)  # only permanent sets remain
        for t in range(200):
            store.insert(entry(t, [t + 1]))
        assert store.stats.filtered_inserts > 0
        assert ctl.traffic.writes < 200


class TestFilteredIndexing:
    def test_full_partition_filters_nothing(self):
        store, _ = make_store()
        for t in range(100):
            store.insert(entry(t, [t + 1]))
        assert store.stats.filtered_inserts == 0

    def test_half_partition_filters_roughly_half(self):
        store, _ = make_store(sets=256, permanent_sets=0)
        store.set_partition(every_nth=2)
        for t in range(2000):
            store.insert(entry(t, [t + 1]))
        frac = store.stats.filtered_inserts / store.stats.inserts
        assert 0.35 < frac < 0.65

    def test_resize_drops_without_traffic(self):
        store, ctl = make_store(sets=256, permanent_sets=0)
        for t in range(500):
            store.insert(entry(t, [t + 1]))
        before = ctl.traffic.total_accesses
        moved = store.set_partition(every_nth=2)
        assert moved == 0
        assert ctl.traffic.total_accesses == before
        assert ctl.traffic.rearrange_moves == 0

    def test_surviving_entries_still_found_after_resize(self):
        store, _ = make_store(sets=256, permanent_sets=0)
        triggers = list(range(500))
        for t in triggers:
            store.insert(entry(t, [t + 1]))
        store.set_partition(every_nth=2)
        found = sum(store.lookup(t) is not None for t in triggers)
        assert 0 < found < 500  # survivors findable, filtered gone
        # Everything still present maps to an allocated set.
        for t in triggers:
            if store.lookup(t) is not None:
                assert store.is_allocated(store.set_of(t))

    def test_permanent_sets_survive_zero_size(self):
        store, _ = make_store(sets=256, permanent_sets=32)
        for t in range(2000):
            store.insert(entry(t, [t + 1]))
        store.set_partition(every_nth=0)
        assert store.valid_entries() > 0


class TestRearrangedIndexing:
    def test_resize_charges_rearrangement(self):
        store, ctl = make_store(sets=256, indexing="rearranged",
                                permanent_sets=0)
        for t in range(500):
            store.insert(entry(t, [t + 1]))
        moved = store.set_partition(every_nth=2)
        assert moved > 0
        assert ctl.traffic.rearrange_moves == moved

    def test_rearranged_never_filters(self):
        store, _ = make_store(sets=256, indexing="rearranged",
                              permanent_sets=0)
        store.set_partition(every_nth=2)
        for t in range(500):
            store.insert(entry(t, [t + 1]))
        assert store.stats.filtered_inserts == 0


class TestAssociativity:
    def test_tagged_pool_capacity_is_ways_times_entries(self):
        store, _ = make_store()
        assert store.set_capacity() == 8 * 4  # 32-entry reach (FTS)

    def test_untagged_way_pool_is_tiny(self):
        store, _ = make_store(tagged=False, axis="way")
        assert store._pool_capacity() == 4

    def test_eviction_when_pool_full(self):
        store, _ = make_store(sets=1, meta_ways=1, permanent_sets=0)
        # 1 set x 1 way x 4 entries: the 5th distinct trigger evicts.
        for t in range(5):
            store.insert(entry(t * 7919, [1]))
        assert store.stats.evictions == 1
        assert store.valid_entries() == 4


class TestWayAxis:
    def test_way_axis_stores_and_finds(self):
        store, _ = make_store(axis="way", tagged=False,
                              indexing="rearranged")
        for t in range(100):
            store.insert(entry(t, [t + 1]))
        hits = sum(store.lookup(t) is not None for t in range(100))
        assert hits > 50

    def test_way_axis_filtering_by_way(self):
        store, _ = make_store(axis="way", tagged=False,
                              indexing="filtered")
        store.set_partition(ways=2)  # of meta_ways=8
        for t in range(400):
            store.insert(entry(t, [t + 1]))
        assert store.stats.filtered_inserts > 100


class TestHashCaches:
    """Resident entries cache their 10-bit hashed trigger and partial
    tag; every comparison must agree with re-hashing the trigger."""

    @staticmethod
    def _cached_fields_match(store):
        return all(s.hashed_trigger == fold_hash(s.entry.trigger, 10)
                   and s.partial_tag == fold_hash(s.entry.trigger, 6)
                   for pool in store._sets.values() for s in pool)

    def test_aliasing_overwrite_updates_partial_tag(self):
        store, _ = make_store(sets=16, permanent_sets=0)
        by_key = {}
        for t in range(1, 5000):  # two triggers: same set and hash
            key = (store.set_of(t), fold_hash(t, 10))
            old = by_key.setdefault(key, t)
            if fold_hash(old, 6) != fold_hash(t, 6):
                break
        first, alias = old, t
        store.insert(entry(first, [1]))
        store.insert(entry(alias, [2]))
        assert store.stats.overwrites == 1 and store.valid_entries() == 1
        (stored,) = store._sets[(store.set_of(alias), -1)]
        assert stored.entry.trigger == alias
        assert stored.partial_tag == fold_hash(alias, 6) != \
            fold_hash(first, 6)
        # A newcomer sharing only the *old* partial tag does not alias
        # any more; one sharing the new tag does.
        same_set = [t for t in range(1, 5000)
                    if store.set_of(t) == store.set_of(alias)
                    and fold_hash(t, 10) != fold_hash(alias, 10)]
        stale = next(t for t in same_set
                     if fold_hash(t, 6) == fold_hash(first, 6))
        store.insert(entry(stale, [3]))
        assert store.stats.alias_inserts == 0
        fresh = next(t for t in same_set
                     if fold_hash(t, 6) == fold_hash(alias, 6))
        store.insert(entry(fresh, [4]))
        assert store.stats.alias_inserts == 1
        assert self._cached_fields_match(store)

    def test_alias_inserts_match_a_recomputation(self):
        import random
        rng = random.Random(5)
        store, _ = make_store(sets=16, permanent_sets=0)
        expected = 0
        for _ in range(3000):
            t = rng.randrange(1, 4000)
            pool = store._sets.get((store.set_of(t), -1), [])
            triggers = [s.entry.trigger for s in pool]
            if all(fold_hash(u, 10) != fold_hash(t, 10) for u in triggers):
                expected += any(fold_hash(u, 6) == fold_hash(t, 6)
                                for u in triggers)
            store.insert(entry(t, [t + 1]))
        assert store.stats.overwrites > 0
        assert store.stats.alias_inserts == expected > 0
        assert self._cached_fields_match(store)

    def test_load_state_rebuilds_cached_fields(self):
        store, _ = make_store(sets=16, permanent_sets=0)
        for t in range(1, 400):
            store.insert(entry(t * 13, [t]))
        back, _ = make_store(sets=16, permanent_sets=0)
        back.load_state(store.state_dict())
        assert back.state_dict() == store.state_dict()
        assert self._cached_fields_match(back)
        assert [back.lookup(t * 13) is not None for t in range(1, 400)] \
            == [store.lookup(t * 13) is not None for t in range(1, 400)]


class TestDiagnostics:
    def test_alias_rate_bounded(self):
        store, _ = make_store(sets=16, permanent_sets=0)
        for t in range(300):
            store.insert(entry(t, [t + 1]))
        assert 0.0 <= store.alias_rate() <= 1.0

    def test_correlation_count(self):
        store, _ = make_store()
        store.insert(entry(1, [2, 3]))
        store.insert(entry(10, [11, 12, 13, 14]))
        assert store.correlation_count() == 6

    def test_capacity_entries_by_size(self):
        store, _ = make_store(sets=256, permanent_sets=0)
        full = store.capacity_entries()
        store.set_partition(every_nth=2)
        assert store.capacity_entries() == full // 2


class TestValidation:
    def test_bad_axis(self):
        with pytest.raises(ValueError):
            make_store(axis="diagonal")

    def test_bad_indexing(self):
        with pytest.raises(ValueError):
            make_store(indexing="hashed")

    def test_bad_stream_length(self):
        with pytest.raises(ValueError):
            make_store(stream_length=7)
