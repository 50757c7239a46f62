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
points of the demand path — the bus is an indirection, not a queue.  A
subscription may be scoped to one ``level`` and/or one ``origin``; a
scoped subscriber only ever sees matching events, so handlers need not
re-test what the scope already guarantees.

The bus also counts every published event by ``(kind, level, origin)``
even when nobody subscribes.  Those counters are the basis of the
stats-conservation checks (``tests/test_conservation.py``): bus counts
must agree with the per-cache :class:`~repro.memory.cache.CacheStats`
counters, which catches double-count bugs in the pipeline.

Each such key owns one *slot*, created the first time the key is
published: a list ``[count, *subscribers]`` whose subscribers are the
matching subscriptions, rewired whenever a subscription comes or goes.
Publishing therefore hashes one key, bumps one counter, and — when the
slot has subscribers — builds one :class:`HierarchyEvent` tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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


class HierarchyEvent(NamedTuple):
    """One observation from the hierarchy (a tuple: subscribers read it,
    none mutates it)."""

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


#: Builds a NamedTuple without its Python-level ``__new__`` (the idiom
#: :mod:`repro.memory.cache` uses for ``Lookup``/``Victim``).
_tuple_new = tuple.__new__

Subscriber = Callable[[HierarchyEvent], None]

#: Event counters are keyed by (kind, level, origin).
CountKey = Tuple[str, str, str]

#: One subscription: (level scope, origin scope, handler); None matches
#: anything.
_Subscription = Tuple[Optional[str], Optional[str], Subscriber]


class EventBus:
    """Synchronous pub/sub with per-(kind, level, origin) counters."""

    def __init__(self) -> None:
        # kind -> subscriptions, in subscription order.
        self._subs: Dict[str, List[_Subscription]] = {}
        # (kind, level, origin) -> [count, *matching subscribers], in
        # first-publish order (the order ``counts`` reports).
        self._slots: Dict[CountKey, list] = {}

    def subscribe(self, kind: str, fn: Subscriber, *,
                  level: Optional[str] = None,
                  origin: Optional[str] = None) -> None:
        """Register ``fn`` for ``kind`` events at ``level`` from
        ``origin`` (None: any); delivery in subscription order."""
        if kind not in EV.ALL:
            raise ValueError(f"unknown event kind {kind!r}")
        self._subs.setdefault(kind, []).append((level, origin, fn))
        self._rewire(kind)

    def unsubscribe(self, kind: str, fn: Subscriber) -> None:
        """Remove ``fn``'s earliest subscription to ``kind``, whatever
        its scope; a no-op if it is not subscribed.

        Idempotent by design: detach paths (probes, telemetry, duelers)
        may run more than once, and a double-unsubscribe must not raise
        or remove someone else's handler.
        """
        subs = self._subs.get(kind, [])
        for i, (_, _, sub) in enumerate(subs):
            if sub == fn:
                del subs[i]
                if not subs:
                    del self._subs[kind]
                self._rewire(kind)
                return

    def _matching(self, key: CountKey) -> List[Subscriber]:
        """The subscribers ``key``'s events reach, in subscription order."""
        kind, level, origin = key
        return [fn for lv, og, fn in self._subs.get(kind, ())
                if (lv is None or lv == level)
                and (og is None or og == origin)]

    def _rewire(self, kind: str) -> None:
        for key, slot in self._slots.items():
            if key[0] == kind:
                slot[1:] = self._matching(key)

    def subscriber_count(self, kind: str = "") -> int:
        """Live subscriptions for ``kind``, or across all kinds.

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
            slot = self._slots[key]
        except KeyError:
            slot = self._slots[key] = [0, *self._matching(key)]
        slot[0] += 1
        if len(slot) == 1:
            return
        event = _tuple_new(HierarchyEvent, (kind, level, core_id, blk, pc,
                                            origin, now, hit,
                                            was_prefetched, owner, dirty))
        for fn in slot[1:]:
            fn(event)

    # -- counter helpers ---------------------------------------------------

    @property
    def counts(self) -> Dict[CountKey, int]:
        """Events published per ``(kind, level, origin)``, in
        first-publish order (derived from the slots)."""
        return {key: slot[0] for key, slot in self._slots.items()}

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
        """Zero every counter: the slots go, and the next publish of a
        key rebuilds its slot (so first-publish order restarts too)."""
        self._slots.clear()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Counters only; subscriptions are wiring, rebuilt on attach."""
        return {"counts": [[k, lv, og, n]
                           for (k, lv, og), n in self.counts.items()]}

    def load_state(self, state: Dict[str, object]) -> None:
        self._slots.clear()
        for k, lv, og, n in state["counts"]:
            key = (str(k), str(lv), str(og))
            self._slots[key] = [int(n), *self._matching(key)]
