"""Trace-driven engine with a lightweight OoO timing proxy.

The core model is deliberately simple (see DESIGN.md): instructions issue
at ``commit_width`` per cycle; loads occupy one of ``mlp`` miss slots
until their data returns, and a load whose data is outstanding blocks
retirement once the ROB fills.  This yields the two effects temporal
prefetching papers rely on: (1) covered misses shorten load latency, and
(2) memory-level parallelism caps how much latency overlaps.

One :class:`Engine` drives N cores over one shared uncore: with one core
the min-heap interleave degenerates to the plain serial loop, and with
several it always steps the core whose local clock is furthest behind,
so shared structures (LLC contents, LLC port, DRAM channels) see
accesses in an order consistent with the per-core clocks.
:func:`run_single` and :mod:`repro.sim.multicore` are both thin
front-ends over the same build/step/collect code.

The engine owns warm-up handling: statistics are reset after the warm-up
fraction so every reported number describes steady state.  Every core
reads its records through ``TraceSource.iter_from``, and progress marks
fire from one step counter.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..memory.cache import Cache
from ..memory.dram import DRAM
from ..memory.events import EventBus
from ..memory.hierarchy import CoreHierarchy, SharedUncore
from ..prefetchers.base import Prefetcher
from ..telemetry import TelemetryHarness
from ..tracestream.chunk import Record
from .config import SystemConfig
from .stats import PrefetchReport, SimResult
from .trace import TraceSource

PrefetcherFactory = Callable[[], Prefetcher]


class CoreModel:
    """The timing proxy for one core."""

    def __init__(self, config: SystemConfig):
        self.width = config.commit_width
        self.rob = config.rob_size
        self.mlp = config.mlp
        self.clock = 0.0
        self.instrs = 0
        self._outstanding: deque = deque()  # (completion_cycle, instr_idx)
        self._last_load_completion = 0.0

    def advance(self, gap: int) -> float:
        """Dispatch ``gap`` non-memory instructions plus the memory op."""
        self.instrs += gap + 1
        self.clock += (gap + 1) / self.width
        # ROB back-pressure: cannot run further than `rob` instructions
        # past the oldest incomplete load.
        while self._outstanding:
            completion, idx = self._outstanding[0]
            if self.instrs - idx <= self.rob:
                break
            self.clock = max(self.clock, completion)
            self._outstanding.popleft()
        return self.clock

    def issue_time(self, dep: bool) -> float:
        """Cycle at which the next memory op can issue.

        A dependent load (``dep``) waits for the previous load's data:
        this serialization is what makes pointer chases latency-bound,
        and it is also the time at which prefetch timeliness must be
        judged (an in-flight prefetch may complete during the wait).
        """
        if dep:
            return max(self.clock, self._last_load_completion)
        return self.clock

    def complete_access(self, issue: float, latency: float,
                        is_write: bool) -> None:
        """Register the memory op's latency with the MLP window."""
        if is_write:
            return  # stores retire via the store buffer
        if len(self._outstanding) >= self.mlp:
            completion, _ = self._outstanding.popleft()
            self.clock = max(self.clock, completion)
        completion = issue + latency
        self._last_load_completion = completion
        self._outstanding.append((completion, self.instrs))

    def drain(self) -> float:
        """Wait for every outstanding load; returns the final clock."""
        while self._outstanding:
            completion, _ = self._outstanding.popleft()
            self.clock = max(self.clock, completion)
        return self.clock

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "clock": self.clock,
            "instrs": self.instrs,
            "outstanding": [[c, i] for c, i in self._outstanding],
            "last_load_completion": self._last_load_completion,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.clock = float(state["clock"])
        self.instrs = int(state["instrs"])
        self._outstanding = deque((float(c), int(i))
                                  for c, i in state["outstanding"])
        self._last_load_completion = float(state["last_load_completion"])


def build_uncore(config: SystemConfig) -> SharedUncore:
    """Construct the shared LLC + DRAM for a system."""
    llc = Cache("LLC", config.llc_size, config.llc_ways, config.llc_latency,
                replacement=config.llc_replacement)
    dram = DRAM(channels=config.channels,
                mt_per_sec=config.dram_mt_per_sec,
                base_latency=config.dram_base_latency,
                bandwidth_scale=config.dram_bandwidth_scale)
    return SharedUncore(llc, dram, num_cores=config.num_cores)


def build_core(core_id: int, config: SystemConfig,
               uncore: SharedUncore,
               l1_prefetcher: Optional[PrefetcherFactory] = None,
               l2_prefetchers: Sequence[PrefetcherFactory] = ()
               ) -> CoreHierarchy:
    """Construct one core's private hierarchy and attach its prefetchers."""
    l1d = Cache("L1D", config.l1d_size, config.l1d_ways, config.l1d_latency,
                replacement="lru")
    l2 = Cache("L2", config.l2_size, config.l2_ways, config.l2_latency,
               replacement="lru")
    core = CoreHierarchy(core_id, l1d, l2, uncore)
    if l1_prefetcher is not None:
        core.attach_l1_prefetcher(l1_prefetcher())
    for factory in l2_prefetchers:
        core.attach_l2_prefetcher(factory())
    return core


def collect_result(workload: str, core: CoreHierarchy, model: CoreModel,
                   cycles: float, instructions: int, accesses: int,
                   events: Optional[Dict[str, int]] = None) -> SimResult:
    """Assemble one core's steady-state statistics into a SimResult."""
    uncore = core.uncore
    reports: List[PrefetchReport] = []
    pfs = list(core.l2_prefetchers)
    if core.l1_prefetcher is not None:
        pfs.insert(0, core.l1_prefetcher)
    for pf in pfs:
        pf.finalize(model.clock)
        s = pf.stats
        rep = PrefetchReport(
            name=pf.name, issued=s.issued, useful=s.useful,
            useless=s.useless_evictions, dropped=s.dropped,
            accuracy=(s.useful / s.issued if s.issued else 0.0),
            coverage=s.coverage(core.uncovered_misses))
        controller = getattr(pf, "controller", None)
        if controller is not None:
            rep.metadata_reads = controller.traffic.reads
            rep.metadata_writes = controller.traffic.writes
            rep.metadata_rearrange_moves = controller.traffic.rearrange_moves
        reports.append(rep)
    kilo_instr = instructions / 1000.0 if instructions else 1.0
    return SimResult(
        workload=workload,
        cycles=cycles,
        instructions=instructions,
        accesses=accesses,
        l1d_miss_rate=core.l1d.stats.miss_rate,
        l2_miss_rate=core.l2.stats.miss_rate,
        llc_miss_rate=uncore.llc.stats.miss_rate,
        llc_mpki=uncore.llc.stats.misses / kilo_instr,
        uncovered_misses=core.uncovered_misses,
        dram_reads=uncore.dram.stats.reads,
        dram_writes=uncore.dram.stats.writes,
        dram_queue_delay=uncore.dram.stats.avg_queue_delay,
        prefetchers=reports,
        events=dict(events) if events is not None else None,
    )


class Engine:
    """One simulated system: N cores, their traces, and the shared uncore.

    Build → :meth:`run` → :meth:`collect`.  The engine is parametric
    over core count: :func:`run_single` wraps one-trace engines and
    :func:`repro.sim.multicore.run_multicore` wraps N-trace engines
    around the very same loop, which steps whichever core's local clock
    is furthest behind (degenerating to the plain serial loop at N=1).
    """

    def __init__(self, traces: Sequence[TraceSource],
                 config: Optional[SystemConfig] = None,
                 l1_prefetcher: Optional[PrefetcherFactory] = None,
                 l2_prefetchers: Sequence[PrefetcherFactory] = (),
                 warmup_counts: Optional[Sequence[int]] = None):
        """``warmup_counts`` overrides the per-core warm-up boundary in
        *records* (instead of ``len(trace) * config.warmup_fraction``).
        Windowed simulations (:mod:`repro.sampling`) use it to warm up
        over exactly the bounded prefix preceding a representative
        interval; a count of 0 means "no warm-up boundary" with the same
        semantics as a zero-length fractional warm-up.
        """
        self.traces = list(traces)
        if not self.traces:
            raise ValueError("need at least one trace")
        num_cores = len(self.traces)
        config = config or SystemConfig()
        if config.num_cores != num_cores:
            config = config.scaled(num_cores=num_cores)
        self.config = config
        self.uncore = build_uncore(config)
        self.bus: EventBus = self.uncore.bus
        self.cores = [build_core(i, config, self.uncore, l1_prefetcher,
                                 l2_prefetchers)
                      for i in range(num_cores)]
        self.models = [CoreModel(config) for _ in range(num_cores)]
        if warmup_counts is not None:
            if len(warmup_counts) != num_cores:
                raise ValueError("need one warm-up count per trace")
            for w, t in zip(warmup_counts, self.traces):
                if not 0 <= w < len(t):
                    raise ValueError(
                        f"warm-up count {w} out of range for trace of "
                        f"length {len(t)}")
        self._warmup_counts = list(warmup_counts) \
            if warmup_counts is not None else None
        self._warm_marks: List[Optional[Tuple[float, int]]] = \
            [None] * num_cores
        self._ran = False
        # Incremental-stepping state, built lazily by _start() so a
        # fresh engine can be restored from a checkpoint instead.
        self._started = False
        self._iters: List[Iterator[Record]] = []
        self._warmups: List[int] = []
        self._counts: List[int] = []
        self._warmed = 0
        self._heap: List[Tuple[float, int]] = []
        self._measured_steps = 0
        self._mark_every = 0
        self._on_mark: Optional[Callable[["Engine"], None]] = None
        # Observability: pure bus subscribers, built only on opt-in.
        # The harness is reset at the warm-up boundary alongside the
        # uncore/bus counters and finalized in collect().
        self.telemetry: Optional[TelemetryHarness] = None
        if config.telemetry is not None:
            names = {oid: pf.name
                     for oid, pf in self.uncore.prefetchers.items()}
            self.telemetry = TelemetryHarness(
                self.bus, config.telemetry, num_cores=num_cores,
                owner_names=names, gauges=self._telemetry_gauges())

    def _telemetry_gauges(self) -> Dict[str, Callable[[], float]]:
        """Pull-based gauges the interval sampler reads at snapshot time."""
        prefetchers = self.uncore.prefetchers

        def meta_entries() -> float:
            total = 0
            for pf in prefetchers.values():
                store = getattr(pf, "store", None)
                if store is not None and hasattr(store, "valid_entries"):
                    total += store.valid_entries()
            return float(total)

        def meta_bytes() -> float:
            total = 0
            for pf in prefetchers.values():
                controller = getattr(pf, "controller", None)
                if controller is not None:
                    total += controller.current_bytes
            return float(total)

        return {"meta_entries": meta_entries, "meta_bytes": meta_bytes,
                "llc_occupancy": self.uncore.llc.occupancy}

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def l2_prefetchers(self) -> List[Prefetcher]:
        """All attached L2 prefetchers, in attach order across cores."""
        pfs: List[Prefetcher] = []
        for core in self.cores:
            pfs.extend(core.l2_prefetchers)
        return pfs

    @property
    def prefetchers(self) -> List[Prefetcher]:
        """Every registered prefetcher (L1 and L2), registration order."""
        return list(self.uncore.prefetchers.values())

    # -- stepping ------------------------------------------------------------

    def _start(self) -> None:
        """Materialize iterators and the scheduling heap (idempotent)."""
        if self._started:
            return
        self._started = True
        self._iters = [iter(t) for t in self.traces]
        self._warmups = list(self._warmup_counts) \
            if self._warmup_counts is not None \
            else [int(len(t) * self.config.warmup_fraction)
                  for t in self.traces]
        self._counts = [0] * self.num_cores
        self._warmed = 0
        # Min-heap keyed by core-local clock keeps shared-resource
        # ordering consistent across cores.
        self._heap = [(0.0, i) for i in range(self.num_cores)]
        heapq.heapify(self._heap)

    def _drive(self, until_warm: bool) -> None:
        """The stepping loop: one trace record at a time on the
        furthest-behind core, until every stream is exhausted — or, with
        ``until_warm``, until every core has crossed its warm-up boundary.

        Between records each heap entry equals its core's current local
        clock, which is what makes a snapshot taken there (the warm-up
        boundary, a progress mark) restorable: the heap can be rebuilt
        from the model clocks alone.

        The measured region is only ever entered from a warm-up drive,
        so ``_measured_steps`` never counts the boundary step.  A set
        mark hook fires after measured step ``k*every - 1``: the
        boundary record opens the first interval, which puts a
        single-core mark after record ``warm - 1 + k*every``.
        """
        heap = self._heap
        iters, models, cores = self._iters, self.models, self.cores
        counts, warmups = self._counts, self._warmups
        warm_marks = self._warm_marks
        num_cores = self.num_cores
        hook = self._on_mark
        every = self._mark_every if self.warmed and not until_warm else 0
        last = every - 1
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            if until_warm and self._warmed == num_cores:
                return
            _, i = heappop(heap)
            try:
                pc, addr, is_write, gap, dep = next(iters[i])
            except StopIteration:
                continue
            model = models[i]
            model.advance(gap)
            now = model.issue_time(dep)
            latency = cores[i].access(pc, addr, is_write, now)
            model.complete_access(now, latency, is_write)
            counts[i] += 1
            if counts[i] == warmups[i] and warm_marks[i] is None:
                self._cross_warmup(i)
            heappush(heap, (model.clock, i))
            if every:
                steps = self._measured_steps = self._measured_steps + 1
                if steps % every == last and hook is not None:
                    hook(self)

    def _cross_warmup(self, i: int) -> None:
        """Core ``i`` just processed its last warm-up record: drain it,
        remember where the measured region starts, and reset its stats
        (and, once every core is warm, the shared ones)."""
        model = self.models[i]
        model.drain()
        self._warm_marks[i] = (model.clock, model.instrs)
        self.cores[i].reset_stats()
        self._warmed += 1
        if self._warmed == self.num_cores:
            self.uncore.reset_stats()
            for pf in self.uncore.prefetchers.values():
                reset = getattr(pf, "reset_epoch_stats", None)
                if reset is not None:
                    reset()
            if self.telemetry is not None:
                self.telemetry.reset()

    @property
    def warmed(self) -> bool:
        """True once every core has crossed its warm-up boundary."""
        return self._started and self._warmed == self.num_cores

    def run_warmup(self) -> "Engine":
        """Drive every core exactly to the warm-up boundary, then stop.

        The engine state at this point is what the checkpoint layer
        snapshots: everything after it is the measured region.  No-op
        when any core has a zero-length warm-up (the boundary would
        never fire) and once the engine is warm.
        """
        if self._ran:
            raise RuntimeError("Engine.run() already completed")
        self._start()
        self._warm_up()
        return self

    def _warm_up(self) -> None:
        if self.warmed or any(w == 0 for w in self._warmups):
            return
        self._drive(until_warm=True)

    def set_mark_hook(self, every: int,
                      callback: Callable[["Engine"], None]) -> None:
        """Invoke ``callback(self)`` once per ``every`` measured steps
        (periodic progress marks for resumable runs; :meth:`_drive`
        says where they fall)."""
        if every < 1:
            raise ValueError("mark interval must be >= 1")
        self._mark_every = every
        self._on_mark = callback

    def run(self) -> "Engine":
        """Drive every core through its trace, handling warm-up resets.

        The warm-up runs first unless :meth:`run_warmup` (or a restored
        snapshot) already crossed it, so both ways into the measured
        region step, count and fire marks identically.
        """
        if self._ran:
            raise RuntimeError("Engine.run() may only be called once")
        self._start()
        self._warm_up()
        self._drive(until_warm=False)
        self._ran = True
        return self

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Snapshot every mutable piece of the simulated system.

        Valid only between steps (engine code never calls it mid-step).
        The trace iterators are not serialized; a restore re-derives
        them with ``iter_from(counts[i])``, so the restoring engine must
        be built from the same traces/config.
        """
        return {
            "counts": list(self._counts),
            "warmed": self._warmed,
            "measured_steps": self._measured_steps,
            "warm_marks": [list(m) if m is not None else None
                           for m in self._warm_marks],
            "models": [m.state_dict() for m in self.models],
            "cores": [c.state_dict() for c in self.cores],
            "uncore": self.uncore.state_dict(),
            "prefetchers": [[pf.name, pf.state_dict()]
                            for pf in self.uncore.prefetchers.values()],
            "telemetry": (self.telemetry.state_dict()
                          if self.telemetry is not None else None),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot into a freshly built engine.

        The engine must have been constructed from the same traces,
        config, and prefetcher factories as the one snapshotted;
        mismatched shapes raise before any state is touched.
        """
        if self._started or self._ran:
            raise RuntimeError(
                "load_state() requires a fresh engine (not yet stepped)")
        counts = [int(c) for c in state["counts"]]
        if len(counts) != self.num_cores or \
                len(state["models"]) != self.num_cores or \
                len(state["cores"]) != self.num_cores:
            raise ValueError("snapshot core count does not match engine")
        snap_names = [name for name, _ in state["prefetchers"]]
        own_names = [pf.name for pf in self.uncore.prefetchers.values()]
        if snap_names != own_names:
            raise ValueError(
                f"snapshot prefetchers {snap_names} != engine "
                f"prefetchers {own_names}")
        self._start()
        # O(1) chunk-level seek past the records the snapshot processed
        # (decisive for streaming 100M+ traces).
        self._iters = [t.iter_from(count)
                       for t, count in zip(self.traces, counts)]
        self._counts = counts
        self._warmed = int(state["warmed"])
        self._measured_steps = int(state["measured_steps"])
        self._warm_marks = [
            (float(m[0]), int(m[1])) if m is not None else None
            for m in state["warm_marks"]]
        for model, mstate in zip(self.models, state["models"]):
            model.load_state(mstate)
        for core, cstate in zip(self.cores, state["cores"]):
            core.load_state(cstate)
        self.uncore.load_state(state["uncore"])
        for pf, (_, pstate) in zip(self.uncore.prefetchers.values(),
                                   state["prefetchers"]):
            pf.load_state(pstate)
        if self.telemetry is not None:
            if state["telemetry"] is not None:
                self.telemetry.load_state(state["telemetry"])
            else:
                # Snapshot came from a telemetry-off run (observers are
                # bit-neutral); start the harness clean.
                self.telemetry.reset()
        # Rebuild the scheduler: between steps every heap entry equals
        # its model's clock, and exhausted cores would pop straight to
        # StopIteration, so they can simply be left out.
        lengths = [len(t) for t in self.traces]
        self._heap = [(self.models[i].clock, i)
                      for i in range(self.num_cores)
                      if counts[i] < lengths[i]]
        heapq.heapify(self._heap)

    # -- results ---------------------------------------------------------------

    def collect(self) -> List[SimResult]:
        """Drain every core and assemble per-core steady-state results.

        Single-core engines also attach the event-bus counters to the
        result (``SimResult.events``) for observability and the
        conservation checks.
        """
        if self.telemetry is not None:
            self.telemetry.finalize()
        events = self.bus.counts_flat() if self.num_cores == 1 else None
        results: List[SimResult] = []
        for i, core in enumerate(self.cores):
            model = self.models[i]
            model.drain()
            mark = self._warm_marks[i] or (0.0, 0)
            cycles = model.clock - mark[0]
            instrs = model.instrs - mark[1]
            warmup = self._warmups[i] if self._started else \
                int(len(self.traces[i]) * self.config.warmup_fraction)
            results.append(collect_result(
                self.traces[i].name, core, model, cycles, instrs,
                len(self.traces[i]) - warmup, events=events))
        # Teardown: release observer subscriptions so a finished engine
        # holds no live handlers on the bus.  State (stats, stores,
        # telemetry payloads) stays readable for post-run probes; all
        # detach paths are idempotent, so collect() stays re-callable.
        for core in self.cores:
            core.detach_prefetchers()
        if self.telemetry is not None:
            self.telemetry.detach()
        return results


def run_single(trace: TraceSource, config: Optional[SystemConfig] = None,
               l1_prefetcher: Optional[PrefetcherFactory] = None,
               l2_prefetchers: Sequence[PrefetcherFactory] = ()
               ) -> SimResult:
    """Simulate one trace on a one-core system; returns steady-state stats."""
    config = config or SystemConfig()
    if config.num_cores != 1:
        config = config.scaled(num_cores=1)
    engine = Engine([trace], config, l1_prefetcher, l2_prefetchers)
    return engine.run().collect()[0]
