"""The Streamline prefetcher (Section IV-E7, Figure 8).

Streamline is assembled from the components in this package:

* stream-based metadata entries (:mod:`.stream_entry`),
* a per-PC training unit with a 3-entry metadata buffer
  (:mod:`.training_unit`),
* stream alignment and realignment (:mod:`.alignment`),
* a filtered, tagged, set-partitioned LLC metadata store
  (:mod:`.metadata_store`),
* TP-Mockingjay replacement (:mod:`.replacement`),
* utility-aware dynamic partitioning (:mod:`.partitioner`),
* stability-based degree control (:mod:`.degree`).

Every component can be disabled or swapped through constructor flags;
:mod:`repro.core.variants` builds the paper's ablation matrix from them.

Operation per trained access (L2 miss or prefetch hit) to block ``A`` by
PC ``X``:

1. *Training*: append ``A`` to X's current stream; when the stream
   fills, align it against X's metadata buffer, realign if its trigger
   is filtered, and write it back to the metadata partition.
2. *Prefetching*: find the entry covering ``A`` in the metadata buffer
   (fetching from the store on a miss, which is what the instability
   counters measure), then issue the next ``degree`` stream addresses,
   chasing into successor entries as needed.
3. *Bookkeeping*: the utility-aware partitioner sees every access and
   resizes the partition at epoch boundaries -- with filtered indexing,
   a resize moves no metadata at all.
"""

from __future__ import annotations

from typing import List, Optional

from ..memory.events import DEMAND, EV
from ..memory.metadata_store import PartitionController
from ..prefetchers.base import Prefetcher, TRAIN_SCOPE_TEMPORAL
from .alignment import align, find_alignable, realign
from .degree import FixedDegreeController, StabilityDegreeController
from .metadata_store import StreamStore
from .partitioner import UtilityAwarePartitioner
from .replacement import make_stream_replacement
from .stream_entry import StreamEntry
from .training_unit import StreamTrainingUnit


class StreamlinePrefetcher(Prefetcher):
    """On-chip temporal prefetcher with stream-based metadata.

    The default configuration is the paper's full design; the flags give
    the ablation space:

    stream_length:
        Targets per stream entry (4).
    buffer_size:
        Per-PC metadata buffer entries (3); 0 disables it.
    stream_alignment / realignment:
        Enable the alignment/realignment operations.
    axis / tagged / indexing / skewed:
        Partitioning scheme (Table I); defaults are FTS.
    replacement:
        "tp-mockingjay" (default) or "srrip".
    dynamic:
        Utility-aware dynamic partitioning on/off; when off the store
        stays at ``initial_every_nth``.
    equal_weight_partitioner:
        Score metadata hits like Triangel (ablation for Section V-D3).
    stability_degree:
        Stability-based degree control; when False a fixed degree is
        used (Figure 10f's sweep).
    """

    name = "streamline"
    level = "l2"
    train_scope = TRAIN_SCOPE_TEMPORAL

    def __init__(self, stream_length: int = 4, degree: int = 4,
                 buffer_size: int = 3, stream_alignment: bool = True,
                 realignment: bool = True, axis: str = "set",
                 tagged: bool = True, indexing: str = "filtered",
                 skewed: bool = False, replacement: str = "tp-mockingjay",
                 dynamic: bool = True, initial_every_nth: int = 1,
                 meta_ways: int = 8, permanent_sets: int = 64,
                 equal_weight_partitioner: bool = False,
                 stability_degree: bool = True,
                 degree_epoch: int = 1024,
                 partition_epoch: int = 1 << 13,
                 accuracy_epoch: int = 512,
                 tu_size: int = 256):
        super().__init__()
        self.stream_length = stream_length
        self.max_degree = degree
        self.buffer_size = buffer_size
        self.stream_alignment = stream_alignment
        self.realignment = realignment
        self.axis = axis
        self.tagged = tagged
        self.indexing = indexing
        self.skewed = skewed
        if replacement not in ("tp-mockingjay", "srrip"):
            raise ValueError(
                f"replacement must be 'tp-mockingjay' or 'srrip', "
                f"got {replacement!r}")
        self.replacement_name = replacement
        self.dynamic = dynamic
        self.initial_every_nth = initial_every_nth
        self.meta_ways = meta_ways
        self.permanent_sets = permanent_sets
        self.equal_weight_partitioner = equal_weight_partitioner
        self.partition_epoch = partition_epoch
        self.accuracy_epoch = accuracy_epoch
        self.tu = StreamTrainingUnit(size=tu_size, buffer_size=buffer_size)
        if stability_degree:
            self.degree_ctrl = StabilityDegreeController(
                epoch=degree_epoch, max_degree=degree)
        else:
            self.degree_ctrl = FixedDegreeController(degree)
        self.store: Optional[StreamStore] = None
        self.controller: Optional[PartitionController] = None
        self.partitioner: Optional[UtilityAwarePartitioner] = None
        # Online prefetch-accuracy estimate (epochs of 2048 resolutions).
        self.current_accuracy = 0.5
        self._epoch_useful = 0
        self._epoch_resolved = 0
        # Component statistics the figures read.
        self.alignments = 0
        self.realignments = 0
        self.filtered_drops = 0
        self.completed_streams = 0
        self._duel_bus = None  # the bus holding our dueling handler

    # -- wiring ---------------------------------------------------------------

    def attach(self, hier) -> None:
        llc = hier.uncore.llc
        cores = hier.uncore.num_cores
        own_sets = llc.num_sets // cores
        self.controller = PartitionController(
            llc, max_bytes=self.meta_ways * own_sets * 64,
            stripe_offset=hier.core_id, stripe_step=cores)
        self.store = StreamStore(
            own_sets, self.controller,
            stream_length=self.stream_length, meta_ways=self.meta_ways,
            replacement=make_stream_replacement(self.replacement_name),
            axis=self.axis, tagged=self.tagged, indexing=self.indexing,
            skewed=self.skewed, permanent_sets=self.permanent_sets)
        self.store.every_nth = self.initial_every_nth
        self.partitioner = UtilityAwarePartitioner(
            own_sets, llc.ways, meta_ways=self.meta_ways,
            epoch=self.partition_epoch,
            permanent_every=self.store.permanent_every,
            equal_weights=self.equal_weight_partitioner,
            correlations_per_hit=self.stream_length)
        self._apply_partition(self.initial_every_nth)
        # Dueling happens at the LLC: observe every core's demand
        # traffic to the sets this core's partition controls.  The bus
        # publishes the LLC access event *before* the tag lookup, so a
        # partition resize here can still invalidate the line the lookup
        # is about to find — as in the hardware race it models.
        if self.dynamic:
            hier.bus.subscribe(EV.ACCESS, self._on_llc_demand,
                               origin=DEMAND)
            self._duel_bus = hier.bus

    def detach(self, hier) -> None:
        if self._duel_bus is not None:
            self._duel_bus.unsubscribe(EV.ACCESS, self._on_llc_demand)
            self._duel_bus = None

    def _on_llc_demand(self, ev) -> None:
        """LLC-side dueling feed (any core's demand access; the
        subscription is scoped to the demand origin)."""
        blk = ev.blk
        set_idx = self.controller.stripe_set(blk)
        if set_idx < 0:
            return  # outside this core's stripe: common to all sizes
        self.partitioner.observe_data(blk, set_idx=set_idx)
        if self.partitioner.epoch_elapsed:
            every_nth = self.partitioner.decide(self.store.every_nth)
            if every_nth != self.store.every_nth:
                self.store.set_partition(every_nth=every_nth)
                self._apply_partition(every_nth)

    def _apply_partition(self, every_nth: int) -> None:
        if self.axis == "way":
            self.controller.apply_way_partition(self.store.cur_ways)
            return
        self.controller.apply_set_partition(
            every_nth, self.meta_ways,
            permanent_every=self.store.permanent_every)

    # -- accuracy feedback ---------------------------------------------------------

    def note_useful(self, blk: int, now: float) -> None:
        super().note_useful(blk, now)
        self._epoch_useful += 1
        self._bump_accuracy_epoch()

    def note_useless(self, blk: int, now: float) -> None:
        super().note_useless(blk, now)
        self._bump_accuracy_epoch()

    def _bump_accuracy_epoch(self) -> None:
        self._epoch_resolved += 1
        if self._epoch_resolved >= self.accuracy_epoch:
            self.current_accuracy = self._epoch_useful / self._epoch_resolved
            self._epoch_useful = 0
            self._epoch_resolved = 0
        elif self._epoch_resolved % 128 == 0:
            # Warm running estimate so the first epoch is not blind.
            self.current_accuracy = self._epoch_useful / self._epoch_resolved

    def reset_epoch_stats(self) -> None:
        """Post-warmup reset of counters that feed the reported stats."""
        self.alignments = 0
        self.realignments = 0
        self.filtered_drops = 0
        self.completed_streams = 0

    # -- training path -----------------------------------------------------------------

    def _complete_stream(self, st, entry: StreamEntry) -> None:
        """Align, (re)align-for-filtering, and write back one full entry."""
        self.completed_streams += 1
        leftover: List[int] = []
        if self.stream_alignment and st.buffer:
            old = find_alignable(st.buffer, entry)
            if old is not None:
                entry, leftover = align(old, entry)
                st.buffer = [e for e in st.buffer
                             if e.trigger != old.trigger]
                self.alignments += 1
        # Filtered trigger?  Try realignment to the preceding access.
        if self.axis == "set" and self.indexing == "filtered":
            set_idx = self.store.set_of(entry.trigger)
            if not self.store.is_allocated(set_idx):
                replacement_entry = (realign(entry, st.prev_addr)
                                     if self.realignment else None)
                if replacement_entry is not None and self.store.is_allocated(
                        self.store.set_of(replacement_entry.trigger)):
                    entry = replacement_entry
                    self.realignments += 1
                else:
                    self.filtered_drops += 1
        self.store.insert(entry)
        # Keep the freshly written entry visible for alignment/prefetch.
        if self.buffer_size:
            st.buffer = [e for e in st.buffer
                         if e.trigger != entry.trigger]
            st.buffer.insert(0, entry.copy())
            del st.buffer[self.buffer_size:]
        # Bootstrap the next stream: it starts at this entry's last
        # address; remember the one before it for realignment.
        addrs = entry.addresses
        st.prev_addr = addrs[-2] if len(addrs) >= 2 else None
        next_stream = StreamEntry(entry.last, self.stream_length, pc=st.pc)
        for t in leftover[:self.stream_length]:
            next_stream.append(t)
        st.stream = next_stream

    def _train(self, st, blk: int) -> None:
        if st.stream is None:
            st.stream = StreamEntry(blk, self.stream_length, pc=st.pc)
            return
        if st.stream.last == blk:
            return  # same-block rerun; nothing new to record
        st.stream.append(blk)
        if st.stream.full:
            self._complete_stream(st, st.stream)

    # -- prefetch path -----------------------------------------------------------------

    def _prefetch(self, st, blk: int, degree: int) -> List[int]:
        candidates: List[int] = []
        cur = blk
        for _ in range(degree):
            entry = st.buffer_find(cur, need_successors=True)
            if entry is None:
                # A buffer miss forces a metadata read attempt; this is
                # the instability signal of Section IV-E6 whether or not
                # the store has the entry.
                st.epoch_insertions += 1
                fetched = self.store.lookup(cur)
                if fetched is None:
                    break
                self._note_metadata_hit(cur)
                st.buffer_insert(fetched)
                entry = fetched
            successors = entry.successors_after(cur)
            if not successors:
                break
            room = degree - len(candidates)
            candidates.extend(successors[:room])
            if len(candidates) >= degree:
                break
            cur = candidates[-1]
        return candidates

    def _note_metadata_hit(self, trigger: int) -> None:
        if self.partitioner is None or self.axis != "set":
            return
        set_idx = self.store.set_of(trigger)
        if self.store.is_permanent(set_idx):
            self.partitioner.observe_metadata_hit(
                set_idx, self.current_accuracy)

    # -- checkpointing ---------------------------------------------------------------------

    def state_dict(self):
        state = super().state_dict()
        state["tu"] = self.tu.state_dict()
        state["store"] = self.store.state_dict()
        state["controller"] = self.controller.state_dict()
        state["partitioner"] = self.partitioner.state_dict()
        state["current_accuracy"] = self.current_accuracy
        state["epoch_useful"] = self._epoch_useful
        state["epoch_resolved"] = self._epoch_resolved
        state["alignments"] = self.alignments
        state["realignments"] = self.realignments
        state["filtered_drops"] = self.filtered_drops
        state["completed_streams"] = self.completed_streams
        return state

    def load_state(self, state) -> None:
        super().load_state(state)
        self.tu.load_state(state["tu"])
        self.store.load_state(state["store"])
        self.controller.load_state(state["controller"])
        self.partitioner.load_state(state["partitioner"])
        self.current_accuracy = float(state["current_accuracy"])
        self._epoch_useful = int(state["epoch_useful"])
        self._epoch_resolved = int(state["epoch_resolved"])
        self.alignments = int(state["alignments"])
        self.realignments = int(state["realignments"])
        self.filtered_drops = int(state["filtered_drops"])
        self.completed_streams = int(state["completed_streams"])
        # The partition itself (LLC _data_ways) is restored with the
        # cache; do not re-apply it here.

    def _override_degree(self, value) -> None:
        degree = int(value)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.max_degree = degree
        if isinstance(self.degree_ctrl, FixedDegreeController):
            self.degree_ctrl.degree = degree
        else:
            self.degree_ctrl.max_degree = degree

    # -- main hook -------------------------------------------------------------------------

    def train(self, pc: int, blk: int, hit: bool, prefetch_hit: bool,
              now: float) -> List[int]:
        before = self.controller.traffic.total_accesses
        st = self.tu.get(pc)
        degree = self.degree_ctrl.on_access(st)

        self._train(st, blk)
        candidates = self._prefetch(st, blk, degree)

        self.controller.replay_traffic(self.hier, before, now)
        return candidates
