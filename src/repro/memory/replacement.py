"""Cache replacement policies.

Each policy manages the replacement state for one set-associative cache.
The cache calls three hooks:

* ``on_hit(set_idx, way)``   - a lookup hit way ``way``
* ``on_fill(set_idx, way, blk, pc)`` - a new block was installed
* ``victim(set_idx, nd)``  - choose a way to evict among ways
  ``0 .. nd-1``: the ways that belong to the set's data partition, which
  is how LLC way-partitioning composes with replacement.

Implemented policies:

* :class:`LRUPolicy` - true LRU via a per-set timestamp.
* :class:`SRRIPPolicy` - 2-bit re-reference interval prediction [Jaleel+
  ISCA'10]; what Triangel uses for its metadata and what we use for LLC
  data.
* :class:`RandomPolicy` - deterministic pseudo-random victims.
* :class:`HawkeyeLitePolicy` - a sampled-Belady predictor in the spirit of
  Hawkeye [Jain&Lin ISCA'16]: per-PC counters trained by an OPTgen-style
  occupancy vector over sampled sets.  Triage uses Hawkeye for its
  metadata partition; we use this functional re-implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

import numpy as np

from .address import hash32


class ReplacementPolicy:
    """Interface: replacement state for ``num_sets`` x ``num_ways``."""

    name = "base"

    def __init__(self, num_sets: int, num_ways: int):
        self.num_sets = num_sets
        self.num_ways = num_ways

    def on_hit(self, set_idx: int, way: int) -> None:
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int, blk: int = 0, pc: int = 0) -> None:
        raise NotImplementedError

    def victim(self, set_idx: int, nd: int) -> int:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot of the policy's mutable state."""
        raise NotImplementedError

    def load_state(self, state: Dict[str, object]) -> None:
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used via a monotonically increasing clock."""

    name = "lru"

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._clock = 0
        self._stamp = [[0] * num_ways for _ in range(num_sets)]

    def on_hit(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def on_fill(self, set_idx: int, way: int, blk: int = 0, pc: int = 0) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def victim(self, set_idx: int, nd: int) -> int:
        # The first least-recent way: the first occurrence of the
        # minimum over ways 0..nd-1 lies below ``nd``.
        row = self._stamp[set_idx]
        return row.index(min(row[:nd]))

    def stack_distance(self, set_idx: int, way: int) -> int:
        """Number of ways in this set more recently used than ``way``.

        Used by the dynamic partitioners to answer "would this access have
        hit with only *w* data ways?" (it would iff distance < w).
        """
        stamps = self._stamp[set_idx]
        mine = stamps[way]
        return sum(1 for s in stamps if s > mine)

    def state_dict(self) -> Dict[str, object]:
        return {"clock": self._clock,
                "stamp": np.asarray(self._stamp, dtype=np.int64)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._clock = int(state["clock"])
        self._stamp = [[int(s) for s in row] for row in state["stamp"]]


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with 2-bit RRPVs (insert at 2, promote to 0 on hit)."""

    name = "srrip"
    MAX_RRPV = 3

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._rrpv = [[self.MAX_RRPV] * num_ways for _ in range(num_sets)]

    def on_hit(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = 0

    def on_fill(self, set_idx: int, way: int, blk: int = 0, pc: int = 0) -> None:
        self._rrpv[set_idx][way] = self.MAX_RRPV - 1

    def victim(self, set_idx: int, nd: int) -> int:
        # RRPVs never exceed MAX_RRPV (aging stops as soon as one way
        # reaches it), so the first distant way is an exact-match scan.
        rrpv = self._rrpv[set_idx]
        while True:
            try:
                return rrpv.index(self.MAX_RRPV, 0, nd)
            except ValueError:
                for w in range(nd):
                    rrpv[w] += 1

    def state_dict(self) -> Dict[str, object]:
        return {"rrpv": np.asarray(self._rrpv, dtype=np.int64)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._rrpv = [[int(v) for v in row] for row in state["rrpv"]]


class RandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random replacement (xorshift state)."""

    name = "random"

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0x9E3779B9):
        super().__init__(num_sets, num_ways)
        self._state = seed or 1

    def on_hit(self, set_idx: int, way: int) -> None:
        pass

    def on_fill(self, set_idx: int, way: int, blk: int = 0, pc: int = 0) -> None:
        pass

    def victim(self, set_idx: int, nd: int) -> int:
        s = self._state
        s ^= (s << 13) & 0xFFFFFFFF
        s ^= s >> 17
        s ^= (s << 5) & 0xFFFFFFFF
        self._state = s
        return s % nd

    def state_dict(self) -> Dict[str, object]:
        return {"state": self._state}

    def load_state(self, state: Dict[str, object]) -> None:
        self._state = int(state["state"])


class _OptGen:
    """OPTgen occupancy vector for one sampled set (Hawkeye's oracle).

    Decides, for each reuse interval, whether Belady's MIN would have
    cached the line, given ``capacity`` ways.
    """

    def __init__(self, capacity: int, horizon: int = 128):
        self.capacity = capacity
        self.horizon = horizon
        self._occ: deque = deque([0] * horizon, maxlen=horizon)
        self._last_seen: Dict[int, int] = {}
        self._time = 0

    def access(self, blk: int) -> Optional[bool]:
        """Record an access; return True/False if this was a reuse that
        MIN would have cached / not cached, or None on first touch."""
        t = self._time
        self._time += 1
        self._occ.append(0)
        prev = self._last_seen.get(blk)
        self._last_seen[blk] = t
        if prev is None or t - prev >= self.horizon:
            return None
        # interval covers occ slots for times (prev, t]
        start = self.horizon - (t - prev)
        occ = self._occ
        if all(occ[i] < self.capacity for i in range(start, self.horizon)):
            for i in range(start, self.horizon):
                occ[i] += 1
            return True
        return False

    def state_dict(self) -> Dict[str, object]:
        return {"occ": list(self._occ),
                "last_seen": [[b, t] for b, t in self._last_seen.items()],
                "time": self._time}

    def load_state(self, state: Dict[str, object]) -> None:
        self._occ = deque((int(o) for o in state["occ"]),
                          maxlen=self.horizon)
        self._last_seen = {int(b): int(t) for b, t in state["last_seen"]}
        self._time = int(state["time"])


class HawkeyeLitePolicy(ReplacementPolicy):
    """Sampled-Belady ("Hawkeye-like") replacement.

    A per-PC 3-bit counter predicts cache-friendly vs cache-averse lines;
    sampled sets train the counters with an OPTgen occupancy vector.
    Friendly lines behave like SRRIP-0 inserts, averse lines are inserted
    at distant RRPV and evicted first.
    """

    name = "hawkeye"

    def __init__(self, num_sets: int, num_ways: int, sample_every: int = 16):
        super().__init__(num_sets, num_ways)
        self._rrpv = [[7] * num_ways for _ in range(num_sets)]
        self._line_pc = [[0] * num_ways for _ in range(num_sets)]
        self._counters: Dict[int, int] = {}
        self._sample_every = max(1, sample_every)
        self._optgen: Dict[int, _OptGen] = {}
        self._opt_pc: Dict[int, Dict[int, int]] = {}

    def _predict_friendly(self, pc: int) -> bool:
        return self._counters.get(hash32(pc) & 0x1FFF, 4) >= 4

    def _train(self, set_idx: int, blk: int, pc: int) -> None:
        if set_idx % self._sample_every:
            return
        gen = self._optgen.setdefault(set_idx, _OptGen(self.num_ways))
        pcs = self._opt_pc.setdefault(set_idx, {})
        verdict = gen.access(blk)
        last_pc = pcs.get(blk)
        pcs[blk] = pc
        if verdict is None or last_pc is None:
            return
        key = hash32(last_pc) & 0x1FFF
        c = self._counters.get(key, 4)
        self._counters[key] = min(7, c + 1) if verdict else max(0, c - 1)

    def on_hit(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = 0

    def on_fill(self, set_idx: int, way: int, blk: int = 0, pc: int = 0) -> None:
        self._train(set_idx, blk, pc)
        self._line_pc[set_idx][way] = pc
        self._rrpv[set_idx][way] = 0 if self._predict_friendly(pc) else 7

    def victim(self, set_idx: int, nd: int) -> int:
        rrpv = self._rrpv[set_idx]
        best = rrpv.index(max(rrpv[:nd]))
        if rrpv[best] < 7:
            # age everyone, evict oldest friendly line
            for w in range(nd):
                rrpv[w] = min(6, rrpv[w] + 1)
        return best

    def state_dict(self) -> Dict[str, object]:
        return {
            "rrpv": np.asarray(self._rrpv, dtype=np.int64),
            "line_pc": np.asarray(self._line_pc, dtype=np.int64),
            "counters": [[k, v] for k, v in self._counters.items()],
            "optgen": [[s, g.state_dict()]
                       for s, g in self._optgen.items()],
            "opt_pc": [[s, [[b, p] for b, p in pcs.items()]]
                       for s, pcs in self._opt_pc.items()],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._rrpv = [[int(v) for v in row] for row in state["rrpv"]]
        self._line_pc = [[int(v) for v in row]
                         for row in state["line_pc"]]
        self._counters = {int(k): int(v) for k, v in state["counters"]}
        self._optgen = {}
        for set_idx, gstate in state["optgen"]:
            gen = _OptGen(self.num_ways)
            gen.load_state(gstate)
            self._optgen[int(set_idx)] = gen
        self._opt_pc = {int(s): {int(b): int(p) for b, p in pcs}
                        for s, pcs in state["opt_pc"]}


POLICIES = {
    "lru": LRUPolicy,
    "srrip": SRRIPPolicy,
    "random": RandomPolicy,
    "hawkeye": HawkeyeLitePolicy,
}


def make_policy(name: str, num_sets: int, num_ways: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; "
                         f"choose from {sorted(POLICIES)}") from None
    return cls(num_sets, num_ways)
