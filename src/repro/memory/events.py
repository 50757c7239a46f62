"""Hierarchy event bus: first-class observation of the demand path.

Every interesting thing the hierarchy does — a lookup resolving, a fill,
an eviction, a prefetch being issued or resolving useful/useless, a
metadata block crossing the LLC port — is published as a
:class:`HierarchyEvent` on the :class:`EventBus`.  Prefetcher training,
partition-controller dueling, telemetry, and post-run probes all
subscribe to the bus instead of being called inline from the demand
path, so adding a new observer never requires editing
:meth:`CoreHierarchy.access`.  (The one piece of bookkeeping the
hierarchy does inline — crediting a prefetch event to its owner's
``PrefetcherStats`` — happens immediately before the publish, so every
subscriber sees the credited stats.)

Events are delivered synchronously, in subscription order, at fixed
points of the demand path — the bus is an indirection, not a queue.

The bus also counts every published event by ``(kind, level, origin)``
even when nobody subscribes.  Those counters are the basis of the
stats-conservation checks (``tests/test_conservation.py``): bus counts
must agree with the per-cache :class:`~repro.memory.cache.CacheStats`
counters, which catches double-count bugs in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Event origins: what kind of request caused the event.
DEMAND = "demand"
PREFETCH = "prefetch"
WRITEBACK = "writeback"
METADATA = "metadata"


class EV:
    """Event-kind taxonomy (string constants, stable across versions)."""

    #: A request arrives at a level, *before* the tag lookup.  Published
    #: at the LLC for every descent (demand and prefetch); partition
    #: controllers duel on these, pre-lookup, because a partition resize
    #: may invalidate the very line the lookup is about to find.
    ACCESS = "access"
    LOOKUP_HIT = "lookup-hit"
    LOOKUP_MISS = "lookup-miss"
    FILL = "fill"
    EVICTION = "eviction"
    PREFETCH_ISSUED = "prefetch-issued"
    PREFETCH_DROPPED = "prefetch-dropped"
    PREFETCH_USEFUL = "prefetch-useful"
    PREFETCH_USELESS = "prefetch-useless"
    METADATA_READ = "metadata-read"
    METADATA_WRITE = "metadata-write"
    #: A demand access that reached the L2 has fully resolved (all fills
    #: done).  L2 prefetcher training subscribes here: training runs
    #: after the demand fills, exactly as the unrolled path did.
    DEMAND_COMPLETE = "demand-complete"

    ALL = (ACCESS, LOOKUP_HIT, LOOKUP_MISS, FILL, EVICTION,
           PREFETCH_ISSUED, PREFETCH_DROPPED, PREFETCH_USEFUL,
           PREFETCH_USELESS, METADATA_READ, METADATA_WRITE,
           DEMAND_COMPLETE)


@dataclass
class HierarchyEvent:
    """One observation from the hierarchy."""

    __slots__ = ("kind", "level", "core_id", "blk", "pc", "origin",
                 "now", "hit", "was_prefetched", "owner", "dirty")

    kind: str
    level: str          # "l1d" | "l2" | "llc"
    core_id: int
    blk: int
    pc: int
    origin: str         # request origin: demand/prefetch/writeback/metadata
    now: float
    hit: bool
    was_prefetched: bool
    owner: int
    dirty: bool


Subscriber = Callable[[HierarchyEvent], None]

#: Event counters are keyed by (kind, level, origin).
CountKey = Tuple[str, str, str]


class EventBus:
    """Synchronous pub/sub with per-(kind, level, origin) counters."""

    def __init__(self) -> None:
        self._subs: Dict[str, List[Subscriber]] = {}
        self.counts: Dict[CountKey, int] = {}

    def subscribe(self, kind: str, fn: Subscriber) -> None:
        """Register ``fn`` for ``kind``; delivery in subscription order."""
        if kind not in EV.ALL:
            raise ValueError(f"unknown event kind {kind!r}")
        self._subs.setdefault(kind, []).append(fn)

    def unsubscribe(self, kind: str, fn: Subscriber) -> None:
        """Remove ``fn`` from ``kind``; a no-op if it is not subscribed.

        Idempotent by design: detach paths (probes, telemetry, duelers)
        may run more than once, and a double-unsubscribe must not raise
        or remove someone else's handler.
        """
        subs = self._subs.get(kind)
        if subs and fn in subs:
            subs.remove(fn)
            if not subs:
                del self._subs[kind]

    def subscriber_count(self, kind: str = "") -> int:
        """Live subscribers for ``kind``, or across all kinds.

        The leak check: long-lived buses (in-process runners, REPLs)
        must see this return to its baseline after every run, or
        detached observers are still receiving events.
        """
        if kind:
            return len(self._subs.get(kind, ()))
        return sum(len(subs) for subs in self._subs.values())

    def publish(self, kind: str, level: str, core_id: int, blk: int,
                pc: int = 0, origin: str = DEMAND, now: float = 0.0,
                hit: bool = False, was_prefetched: bool = False,
                owner: int = -1, dirty: bool = False) -> None:
        """Count the event and deliver it to subscribers, synchronously."""
        key = (kind, level, origin)
        try:
            self.counts[key] += 1
        except KeyError:
            self.counts[key] = 1
        subs = self._subs.get(kind)
        if not subs:
            return
        event = HierarchyEvent(kind, level, core_id, blk, pc, origin,
                               now, hit, was_prefetched, owner, dirty)
        for fn in subs:
            fn(event)

    # -- counter helpers ---------------------------------------------------

    def count(self, kind: str, level: str = "", origin: str = "") -> int:
        """Total events matching ``kind`` (optionally level/origin)."""
        return sum(n for (k, lv, og), n in self.counts.items()
                   if k == kind and (not level or lv == level)
                   and (not origin or og == origin))

    def counts_flat(self) -> Dict[str, int]:
        """Counters as ``"kind@level:origin" -> n`` (JSON/pickle friendly)."""
        return {f"{k}@{lv}:{og}": n
                for (k, lv, og), n in sorted(self.counts.items())}

    def reset_counts(self) -> None:
        self.counts.clear()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Counters only; subscriptions are wiring, rebuilt on attach."""
        return {"counts": [[k, lv, og, n]
                           for (k, lv, og), n in self.counts.items()]}

    def load_state(self, state: Dict[str, object]) -> None:
        self.counts.clear()
        self.counts.update({(str(k), str(lv), str(og)): int(n)
                            for k, lv, og, n in state["counts"]})
