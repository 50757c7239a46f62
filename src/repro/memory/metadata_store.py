"""LLC metadata-partition plumbing shared by all on-chip temporal prefetchers.

Triage/Triangel way-partition the LLC (every set cedes ``m`` ways to
metadata); Streamline set-partitions it (a subset of sets cede 8 ways
each).  Either way the *data* side of the story is the same: the LLC's
data capacity shrinks, resizes invalidate data lines, and every metadata
read/write is an LLC access that consumes port bandwidth and (for
Triangel's rearrangement) moves blocks around.

:class:`PartitionController` owns that story.  The actual metadata
*contents* live in prefetcher-specific stores
(:mod:`repro.prefetchers.pairwise`, :mod:`repro.core.metadata_store`);
they call back into the controller for traffic accounting so that the
paper's traffic figures (13b, 14) can be regenerated from one set of
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from .address import BLOCK_SIZE
from .cache import Cache


@dataclass
class MetadataTraffic:
    """LLC traffic attributable to prefetcher metadata, in block accesses."""

    reads: int = 0
    writes: int = 0
    rearrange_moves: int = 0   # blocks shuffled by Triangel-style resizes

    @property
    def total_accesses(self) -> int:
        # A rearrangement move is a read plus a write of one block.
        return self.reads + self.writes + 2 * self.rearrange_moves

    @property
    def bytes(self) -> int:
        return BLOCK_SIZE * self.total_accesses


class PartitionController:
    """Mediates between a metadata store and the LLC it lives in.

    Parameters
    ----------
    llc:
        The (possibly shared) last-level cache.
    max_bytes:
        Largest metadata partition this prefetcher will ever use; filtered
        indexing (Streamline) indexes against this maximum.
    """

    def __init__(self, llc: Optional[Cache], max_bytes: int,
                 stripe_offset: int = 0, stripe_step: int = 1):
        if stripe_step < 1 or not 0 <= stripe_offset < stripe_step:
            raise ValueError("invalid stripe")
        self.llc = llc
        self.max_bytes = max_bytes
        self.stripe_offset = stripe_offset
        self.stripe_step = stripe_step
        self.traffic = MetadataTraffic()
        self.current_bytes = 0
        self._mode = "none"
        # LLC sets of every stripe together (the stripe test's modulus).
        self._stripe_sets = self.own_sets * stripe_step

    # -- geometry ---------------------------------------------------------

    @property
    def own_sets(self) -> int:
        """LLC sets owned by this controller's stripe (one per core)."""
        if self.llc is None:
            return 0
        return self.llc.num_sets // self.stripe_step

    def stripe_set(self, blk: int) -> int:
        """This stripe's own index of ``blk``'s LLC set, or -1 when the
        set belongs to another core's stripe (needs an LLC)."""
        step = self.stripe_step
        llc_set = blk % self._stripe_sets
        if llc_set % step != self.stripe_offset:
            return -1
        return llc_set // step

    def _owned_llc_sets(self):
        """(own index, LLC set index) pairs for this stripe."""
        if self.llc is None:
            return
        for own in range(self.own_sets):
            yield own, own * self.stripe_step + self.stripe_offset

    # -- geometry changes ---------------------------------------------------

    def apply_way_partition(self, meta_ways: int) -> int:
        """Cede ``meta_ways`` ways of every owned LLC set (Triangel).

        Returns the number of data lines invalidated by shrinking.
        """
        self._mode = "way"
        dropped = 0
        if self.llc is not None:
            keep = self.llc.ways - meta_ways
            count = 0
            for _own, s in self._owned_llc_sets():
                dropped += self.llc.set_data_ways(s, keep)
                count += 1
            self.current_bytes = meta_ways * count * BLOCK_SIZE
        else:
            self.current_bytes = meta_ways * BLOCK_SIZE  # dedicated store
        return dropped

    def apply_set_partition(self, every_nth: int, meta_ways: int = 8,
                            permanent_every: int = 0) -> int:
        """Cede ``meta_ways`` ways in every ``every_nth``-th owned set.

        ``every_nth == 0`` releases everything except the permanently
        allocated sample sets (every ``permanent_every``-th owned set),
        which Streamline keeps so a zero-sized partition can still
        measure metadata utility.  Returns data lines invalidated.
        """
        self._mode = "set"
        dropped = 0
        if self.llc is None:
            return 0
        allocated = 0
        for own, s in self._owned_llc_sets():
            owned = (every_nth and own % every_nth == 0) or \
                (permanent_every and own % permanent_every == 0)
            if owned:
                dropped += self.llc.set_data_ways(
                    s, self.llc.ways - meta_ways)
                allocated += 1
            else:
                self.llc.set_data_ways(s, self.llc.ways)
        self.current_bytes = allocated * meta_ways * BLOCK_SIZE
        return dropped

    def apply_hybrid_partition(self, every_nth: int, meta_ways: int,
                               permanent_every: int = 0) -> int:
        """Hybrid set+way partitioning (Section V-D6's extension)."""
        dropped = self.apply_set_partition(every_nth, meta_ways,
                                           permanent_every)
        self._mode = "hybrid"
        return dropped

    # -- traffic accounting ---------------------------------------------------

    def record_read(self, n: int = 1) -> None:
        self.traffic.reads += n

    def record_write(self, n: int = 1) -> None:
        self.traffic.writes += n

    def record_rearrangement(self, moved_blocks: int) -> None:
        self.traffic.rearrange_moves += moved_blocks

    def replay_traffic(self, hier: Any, before: int, now: float) -> None:
        """Occupy ``hier``'s LLC port with the traffic recorded since
        ``before`` (a ``traffic.total_accesses`` reading): one metadata
        read per block access, all at ``now``."""
        access = hier.metadata_access
        for _ in range(self.traffic.total_accesses - before):
            access(now)

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Traffic counters and partition bookkeeping only.  The LLC's
        ``_data_ways`` map (the partition's effect) is restored with the
        cache itself, so restore never re-applies partitions."""
        return {"traffic": {"reads": self.traffic.reads,
                            "writes": self.traffic.writes,
                            "rearrange_moves": self.traffic.rearrange_moves},
                "current_bytes": self.current_bytes,
                "mode": self._mode}

    def load_state(self, state: Dict[str, object]) -> None:
        t = state["traffic"]
        self.traffic = MetadataTraffic(
            reads=int(t["reads"]), writes=int(t["writes"]),
            rearrange_moves=int(t["rearrange_moves"]))
        self.current_bytes = int(state["current_bytes"])
        self._mode = str(state["mode"])
