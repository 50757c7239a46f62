"""Unit tests for the cache replacement policies."""

import pytest

from repro.memory.replacement import (HawkeyeLitePolicy, LRUPolicy,
                                      RandomPolicy, SRRIPPolicy,
                                      make_policy)


class TestLRU:
    def test_victim_is_least_recent(self):
        p = LRUPolicy(1, 4)
        for w in range(4):
            p.on_fill(0, w)
        p.on_hit(0, 0)  # way 0 becomes MRU; way 1 is now LRU
        assert p.victim(0, 4) == 1

    def test_victim_restricted_to_candidates(self):
        # Only the first ``nd`` ways (the data partition) are candidates:
        # way 2 is least recent overall, way 0 among the first two.
        p = LRUPolicy(1, 4)
        for w in (2, 0, 1, 3):
            p.on_fill(0, w)
        assert p.victim(0, 4) == 2
        assert p.victim(0, 2) == 0

    def test_stack_distance(self):
        p = LRUPolicy(1, 4)
        for w in range(4):
            p.on_fill(0, w)
        assert p.stack_distance(0, 3) == 0   # MRU
        assert p.stack_distance(0, 0) == 3   # LRU

    def test_sets_independent(self):
        p = LRUPolicy(2, 2)
        p.on_fill(0, 0)
        p.on_fill(1, 1)
        p.on_fill(0, 1)
        assert p.victim(0, 2) == 0
        assert p.victim(1, 2) == 0  # way 0 of set 1 never touched


class TestSRRIP:
    def test_hit_promotes(self):
        p = SRRIPPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_fill(0, 1)
        p.on_hit(0, 0)
        # way 0 has RRPV 0, way 1 has 2: aging finds way 1 first.
        assert p.victim(0, 2) == 1

    def test_victim_ages_until_found(self):
        p = SRRIPPolicy(1, 2)
        p.on_fill(0, 0)
        p.on_hit(0, 0)
        p.on_fill(0, 1)
        p.on_hit(0, 1)
        w = p.victim(0, 2)
        assert w in (0, 1)  # aging terminates

    def test_untouched_ways_evicted_first(self):
        p = SRRIPPolicy(1, 4)
        p.on_fill(0, 0)
        # Ways 1-3 never filled: they sit at MAX_RRPV.
        assert p.victim(0, 4) in (1, 2, 3)


class TestRandom:
    def test_deterministic_sequence(self):
        a = RandomPolicy(1, 8, seed=42)
        b = RandomPolicy(1, 8, seed=42)
        seq_a = [a.victim(0, 8) for _ in range(20)]
        seq_b = [b.victim(0, 8) for _ in range(20)]
        assert seq_a == seq_b

    def test_victims_spread(self):
        p = RandomPolicy(1, 8)
        assert len({p.victim(0, 8) for _ in range(100)}) > 3


class TestHawkeyeLite:
    def test_scanning_pc_becomes_averse(self):
        p = HawkeyeLitePolicy(64, 4, sample_every=1)
        scan_pc = 0x999
        # A PC streaming fresh blocks never sees reuse: counters drop.
        for i in range(400):
            p.on_fill(i % 64, i % 4, blk=10_000 + i, pc=scan_pc)
        # A friendly PC re-touching a small set trains positive.
        friendly = 0x111
        for i in range(400):
            p.on_fill(0, i % 4, blk=i % 2, pc=friendly)
        assert p._predict_friendly(friendly) or \
            not p._predict_friendly(scan_pc)

    def test_victim_returns_candidate(self):
        p = HawkeyeLitePolicy(4, 4)
        for w in range(4):
            p.on_fill(0, w, blk=w, pc=1)
        assert p.victim(0, 4) in range(4)


def test_make_policy_known():
    for name in ("lru", "srrip", "random", "hawkeye"):
        assert make_policy(name, 4, 4).num_ways == 4


def test_make_policy_unknown():
    with pytest.raises(ValueError, match="unknown replacement"):
        make_policy("belady", 4, 4)
