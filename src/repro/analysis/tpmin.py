"""Offline replacement oracles: Belady's MIN vs. TP-MIN (Section IV-D1).

Both policies manage a metadata store of fixed capacity (in pairwise
correlations) against a known future.  The difference is the oracle
question asked at eviction time:

* **MIN** evicts the correlation whose *trigger* is accessed furthest in
  the future (the Triage interpretation: maximize trigger hits).
* **TP-MIN** evicts the correlation *used* furthest in the future, where
  a correlation (t -> x) is "used" only when t is accessed *and* the
  next access is x -- i.e. when the stored metadata would actually have
  produced a correct prefetch.

Figure 6's point falls out directly: a trigger with an unstable target
is worthless to keep, however often the trigger itself recurs.
:func:`compare` replays a trace through both policies and reports the
correlation hit rate of each.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..memory.address import block_of
from ..sim.trace import TraceSource

INFINITY = 1 << 60


@dataclass
class OracleResult:
    """Outcome of one offline replay."""

    policy: str
    capacity: int
    lookups: int
    trigger_hits: int
    correlation_hits: int

    @property
    def trigger_hit_rate(self) -> float:
        return self.trigger_hits / self.lookups if self.lookups else 0.0

    @property
    def correlation_hit_rate(self) -> float:
        return self.correlation_hits / self.lookups if self.lookups else 0.0


def _correlation_events(trace: TraceSource) -> List[Tuple[int, int]]:
    """Per-PC (trigger, target) pairs in program order."""
    last: Dict[int, int] = {}
    events: List[Tuple[int, int]] = []
    for pc, addr, _w, _g, _d in trace:
        blk = block_of(addr)
        prev = last.get(pc)
        if prev is not None and prev != blk:
            events.append((prev, blk))
        last[pc] = blk
    return events


def _next_use_index(events: Sequence[Tuple[int, int]], mode: str
                    ) -> List[int]:
    """For each event i, the next index j > i at which the stored
    correlation would be *relevant* again.

    mode="trigger": next occurrence of the same trigger.
    mode="correlation": next occurrence of the same (trigger, target).
    """
    positions: Dict[object, List[int]] = defaultdict(list)
    for i, (t, x) in enumerate(events):
        key = t if mode == "trigger" else (t, x)
        positions[key].append(i)
    nxt = [INFINITY] * len(events)
    for i, (t, x) in enumerate(events):
        key = t if mode == "trigger" else (t, x)
        plist = positions[key]
        j = bisect.bisect_right(plist, i)
        if j < len(plist):
            nxt[i] = plist[j]
    return nxt


def replay(trace: TraceSource, capacity: int, policy: str = "tp-min"
           ) -> OracleResult:
    """Replay correlation events through an offline-optimal store.

    ``policy`` is ``"min"`` (trigger-based Belady) or ``"tp-min"``.
    The store holds one (trigger -> target) pair per trigger, capacity
    pairs total; on overflow it evicts the pair with the furthest next
    use per the policy's definition of "use".
    """
    if policy not in ("min", "tp-min"):
        raise ValueError("policy must be 'min' or 'tp-min'")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    events = _correlation_events(trace)
    mode = "trigger" if policy == "min" else "correlation"
    nxt = _next_use_index(events, mode)

    import heapq

    store: Dict[int, Tuple[int, int]] = {}  # trigger -> (target, next_use)
    # Max-heap of (-next_use, trigger) with lazy deletion for O(log n)
    # furthest-future victim selection.
    heap: List[Tuple[int, int]] = []
    lookups = trigger_hits = correlation_hits = 0
    for i, (trigger, target) in enumerate(events):
        lookups += 1
        held = store.get(trigger)
        if held is not None:
            trigger_hits += 1
            if held[0] == target:
                correlation_hits += 1
        # Update/insert the fresh correlation with its next relevant use.
        if held is not None or len(store) < capacity:
            store[trigger] = (target, nxt[i])
            heapq.heappush(heap, (-nxt[i], trigger))
        else:
            # Pop until the heap top reflects a live entry.
            while heap:
                neg_use, victim = heap[0]
                live = store.get(victim)
                if live is None or live[1] != -neg_use:
                    heapq.heappop(heap)  # stale
                    continue
                break
            if heap and -heap[0][0] > nxt[i]:
                _, victim = heapq.heappop(heap)
                del store[victim]
                store[trigger] = (target, nxt[i])
                heapq.heappush(heap, (-nxt[i], trigger))
    return OracleResult(policy, capacity, lookups, trigger_hits,
                        correlation_hits)


def compare(trace: TraceSource, capacity: int) -> Dict[str, OracleResult]:
    """Replay with both oracles; the paper's Section V-D3 comparison."""
    return {p: replay(trace, capacity, p) for p in ("min", "tp-min")}
