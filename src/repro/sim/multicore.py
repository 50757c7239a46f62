"""Multi-core front-end: N cores sharing the LLC and DRAM.

All the machinery — build, the clock-ordered interleave, warm-up, and
collection — lives in :class:`repro.sim.engine.Engine`; this module only
adds what is specific to multiprogrammed mixes: a disjoint per-core
address region for each trace, and mix-level metrics (weighted speedup,
IPC throughput) over the per-core results.

The per-core regions matter because the synthetic workloads reuse the
same virtual ranges: without separation, two cores running (say) lbm
would alias in the shared LLC and fake sharing/thrashing that
multiprogrammed mixes do not have.  Each trace is folded into its core's
region by masking to ``REGION_BITS`` and installing the core index in
the bits above — provably disjoint for any footprint, unlike a raw
``addr + bias`` offset, which can collide once a trace's span crosses a
region boundary.  The fold is a :class:`RegionView` over each trace,
so the engine reads every core as a plain trace source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..tracestream.chunk import ChunkedSource, TraceChunk
from .config import SystemConfig
from .engine import Engine, PrefetcherFactory
from .stats import SimResult
from .trace import TraceSource

#: Bits of private address space per core.  Every folded address is
#: ``(addr mod 2**REGION_BITS) | core << REGION_BITS``: region
#: membership is determined by the high bits alone, so two cores can
#: never touch the same block no matter their footprints.
REGION_BITS = 44
REGION_MASK = (1 << REGION_BITS) - 1


class RegionView(ChunkedSource):
    """``trace`` with every address folded into ``core``'s region.

    A trace source in its own right: ``chunk_at`` applies the fold as
    one vectorized mask-or per chunk, and name, length and instruction
    count are the base trace's (results report the workload, not the
    view).
    """

    def __init__(self, trace: TraceSource, core: int):
        self.trace = trace
        self.name = trace.name
        self._region = core << REGION_BITS

    def __len__(self) -> int:
        return len(self.trace)

    @property
    def instructions(self) -> int:
        return self.trace.instructions

    def chunk_at(self, start: int, stop: int) -> TraceChunk:
        c = self.trace.chunk_at(start, stop)
        return c.replace(addrs=(c.addrs & REGION_MASK) | self._region)


@dataclass
class MulticoreResult:
    """Per-core results of one multi-core run."""

    cores: List[SimResult]

    def weighted_speedup(self, singles: Sequence[SimResult]) -> float:
        """Sum of per-core IPC ratios vs. isolated single-core runs."""
        if len(singles) != len(self.cores):
            raise ValueError("need one single-core baseline per core")
        return sum(c.ipc / s.ipc for c, s in zip(self.cores, singles))

    def ipc_sum(self) -> float:
        return sum(c.ipc for c in self.cores)


def build_multicore(traces: Sequence[TraceSource],
                    config: Optional[SystemConfig] = None,
                    l1_prefetcher: Optional[PrefetcherFactory] = None,
                    l2_prefetchers: Sequence[PrefetcherFactory] = ()
                    ) -> Engine:
    """Build (but do not run) the shared-LLC engine for a mix."""
    num_cores = len(traces)
    if num_cores == 0:
        raise ValueError("need at least one trace")
    config = (config or SystemConfig()).scaled(num_cores=num_cores)
    return Engine([RegionView(t, i) for i, t in enumerate(traces)],
                  config, l1_prefetcher, l2_prefetchers)


def run_multicore(traces: Sequence[TraceSource],
                  config: Optional[SystemConfig] = None,
                  l1_prefetcher: Optional[PrefetcherFactory] = None,
                  l2_prefetchers: Sequence[PrefetcherFactory] = ()
                  ) -> MulticoreResult:
    """Simulate ``traces`` (one per core) on a shared-LLC system.

    ``l1_prefetcher`` / ``l2_prefetchers`` are factories invoked once per
    core, so every core gets private prefetcher state (as in the paper:
    per-core training units, shared LLC metadata capacity).
    """
    engine = build_multicore(traces, config, l1_prefetcher, l2_prefetchers)
    return MulticoreResult(cores=engine.run().collect())
