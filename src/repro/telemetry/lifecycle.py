"""Prefetch-lifecycle tracing: issue → fill → first use / eviction.

Whole-run accuracy says *whether* a prefetch was touched; it says
nothing about *when* the fill landed relative to the demand that needed
it — and timeliness is the metric Triangel and the paper argue actually
separates on-chip temporal prefetchers.  The
:class:`PrefetchLifecycleTracer` reconstructs each prefetch's life from
bus events alone and classifies it:

* **on-time** — the fill completed at or before the demand's issue time;
  the demand paid a hit.
* **late** — the demand arrived while the fill was still in flight; it
  paid the *remaining* latency (partial credit — the cache model already
  charges exactly this, see ``Cache.lookup``).  The tracer also
  accumulates how late (fill-ready minus demand-issue cycles).
* **unused** — evicted without a demand touch (pure pollution), or
  silently invalidated by a partition resize and then re-prefetched.
* **in-flight** — still resident and untouched when the run ended;
  neither credited nor condemned.

Per prefetcher (owner) and per core, the identity

``issued == on_time + late + unused + in_flight``

holds by construction and is asserted by :meth:`check_conservation`,
which the telemetry tests run against the bus's own
``prefetch-issued`` counters.

Event plumbing detail: the hierarchy publishes the prefetch ``fill``
(carrying the fill-completion time) immediately *before* the matching
``prefetch-issued`` event, so the tracer stages fill times in a pending
map and binds them when the issue event names the owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..memory.events import EV, EventBus, HierarchyEvent

#: Lifecycle classes, in export order.
ON_TIME = "on_time"
LATE = "late"
UNUSED = "unused"
IN_FLIGHT = "in_flight"
CLASSES = (ON_TIME, LATE, UNUSED, IN_FLIGHT)

#: Prefetches are tracked at the levels they are issued into.
_TRACKED_LEVELS = ("l1d", "l2")

Key = Tuple[str, int]  # (level, blk): at most one live prefetch per line


@dataclass
class _Record:
    """One outstanding prefetch."""

    __slots__ = ("owner", "core_id", "issued_at", "ready")

    owner: int
    core_id: int
    issued_at: float
    ready: float


@dataclass
class LifecycleCounts:
    """Per-(owner, core) lifecycle tallies."""

    issued: int = 0
    on_time: int = 0
    late: int = 0
    unused: int = 0
    in_flight: int = 0
    late_cycles: float = 0.0    # summed (ready - demand issue) over lates

    @property
    def resolved(self) -> int:
        return self.on_time + self.late + self.unused

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "issued": self.issued, "on_time": self.on_time,
            "late": self.late, "unused": self.unused,
            "in_flight": self.in_flight,
        }
        d["avg_late_cycles"] = (self.late_cycles / self.late
                                if self.late else 0.0)
        return d

    def merge(self, other: "LifecycleCounts") -> None:
        self.issued += other.issued
        self.on_time += other.on_time
        self.late += other.late
        self.unused += other.unused
        self.in_flight += other.in_flight
        self.late_cycles += other.late_cycles


class PrefetchLifecycleTracer:
    """Follows every prefetch from issue to resolution, via bus events."""

    def __init__(self, bus: EventBus):
        self.bus = bus
        self._pending_fill: Dict[Key, float] = {}
        self._records: Dict[Key, _Record] = {}
        self.counts: Dict[Tuple[int, int], LifecycleCounts] = {}
        self._finalized = False
        self._handlers = [
            (EV.FILL, self._on_fill),
            (EV.PREFETCH_ISSUED, self._on_issued),
            (EV.PREFETCH_USEFUL, self._on_useful),
            (EV.PREFETCH_USELESS, self._on_useless),
        ]
        for kind, fn in self._handlers:
            bus.subscribe(kind, fn)

    def _counts(self, owner: int, core_id: int) -> LifecycleCounts:
        key = (owner, core_id)
        c = self.counts.get(key)
        if c is None:
            c = self.counts[key] = LifecycleCounts()
        return c

    # -- event handlers -----------------------------------------------------

    def _on_fill(self, ev: HierarchyEvent) -> None:
        if ev.origin == "prefetch" and ev.level in _TRACKED_LEVELS:
            # ev.now is the fill-completion ("ready") time.
            self._pending_fill[(ev.level, ev.blk)] = ev.now

    def _on_issued(self, ev: HierarchyEvent) -> None:
        if ev.level not in _TRACKED_LEVELS:
            return
        key = (ev.level, ev.blk)
        stale = self._records.pop(key, None)
        if stale is not None:
            # The line vanished without an eviction event (a partition
            # resize invalidates ceded ways silently): it was never
            # used, so the old prefetch resolves as unused.
            self._counts(stale.owner, stale.core_id).unused += 1
        ready = self._pending_fill.pop(key, ev.now)
        self._records[key] = _Record(ev.owner, ev.core_id, ev.now, ready)
        self._counts(ev.owner, ev.core_id).issued += 1

    def _on_useful(self, ev: HierarchyEvent) -> None:
        rec = self._records.pop((ev.level, ev.blk), None)
        if rec is None:
            return  # issued before the warm-up reset; not ours to classify
        c = self._counts(rec.owner, rec.core_id)
        if rec.ready <= ev.now:
            c.on_time += 1
        else:
            c.late += 1
            c.late_cycles += rec.ready - ev.now

    def _on_useless(self, ev: HierarchyEvent) -> None:
        rec = self._records.pop((ev.level, ev.blk), None)
        if rec is None:
            return
        self._counts(rec.owner, rec.core_id).unused += 1

    # -- lifecycle ----------------------------------------------------------

    def finalize(self) -> None:
        """Classify still-outstanding prefetches as in-flight."""
        if self._finalized:
            return
        self._finalized = True
        for rec in self._records.values():
            self._counts(rec.owner, rec.core_id).in_flight += 1

    def reset(self) -> None:
        """Drop warm-up observations, including unresolved records: a
        prefetch issued before the reset must not be classified after it
        (the issue counters it would be checked against were reset too).
        """
        self._pending_fill.clear()
        self._records.clear()
        self.counts.clear()
        self._finalized = False

    def detach(self) -> None:
        for kind, fn in self._handlers:
            self.bus.unsubscribe(kind, fn)
        self._handlers = []

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "pending_fill": [[lvl, blk, t] for (lvl, blk), t
                             in self._pending_fill.items()],
            "records": [[lvl, blk, r.owner, r.core_id, r.issued_at,
                         r.ready]
                        for (lvl, blk), r in self._records.items()],
            "counts": [[owner, core, c.issued, c.on_time, c.late,
                        c.unused, c.in_flight, c.late_cycles]
                       for (owner, core), c in self.counts.items()],
            "finalized": self._finalized,
        }

    def load_state(self, state: dict) -> None:
        self._pending_fill = {(str(lvl), int(blk)): float(t)
                              for lvl, blk, t in state["pending_fill"]}
        self._records = {
            (str(lvl), int(blk)): _Record(int(owner), int(core),
                                          float(issued_at), float(ready))
            for lvl, blk, owner, core, issued_at, ready
            in state["records"]}
        self.counts = {
            (int(owner), int(core)): LifecycleCounts(
                issued=int(issued), on_time=int(on_time), late=int(late),
                unused=int(unused), in_flight=int(in_flight),
                late_cycles=float(late_cycles))
            for owner, core, issued, on_time, late, unused, in_flight,
            late_cycles in state["counts"]}
        self._finalized = bool(state["finalized"])

    # -- results ------------------------------------------------------------

    def by_owner(self) -> Dict[int, LifecycleCounts]:
        out: Dict[int, LifecycleCounts] = {}
        for (owner, _core), c in self.counts.items():
            agg = out.get(owner)
            if agg is None:
                agg = out[owner] = LifecycleCounts()
            agg.merge(c)
        return out

    def summary(self, owner_names: Dict[int, str]) -> Dict[str, object]:
        """Per-prefetcher (merged across cores sharing a name) tallies,
        with a per-core breakdown nested under each."""
        per_name: Dict[str, LifecycleCounts] = {}
        per_name_core: Dict[str, Dict[int, LifecycleCounts]] = {}
        for (owner, core), c in sorted(self.counts.items()):
            name = owner_names.get(owner, f"owner{owner}")
            agg = per_name.get(name)
            if agg is None:
                agg = per_name[name] = LifecycleCounts()
            agg.merge(c)
            cores = per_name_core.setdefault(name, {})
            core_agg = cores.get(core)
            if core_agg is None:
                core_agg = cores[core] = LifecycleCounts()
            core_agg.merge(c)
        out: Dict[str, object] = {}
        for name, agg in per_name.items():
            entry = agg.as_dict()
            entry["per_core"] = {str(core): c.as_dict()
                                 for core, c in
                                 sorted(per_name_core[name].items())}
            out[name] = entry
        return out

    def check_conservation(self) -> List[str]:
        """Violations of issued == on_time + late + unused + in_flight
        (empty after :meth:`finalize` unless the tracer has a bug)."""
        errors = []
        for (owner, core), c in sorted(self.counts.items()):
            if c.issued != c.resolved + c.in_flight:
                errors.append(
                    f"owner {owner} core {core}: issued {c.issued} != "
                    f"{c.on_time}+{c.late}+{c.unused}+{c.in_flight}")
        return errors
