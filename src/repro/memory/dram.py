"""A channel-level DRAM bandwidth/latency model.

Table II of the paper specifies DDR4-3200 with an 8-byte channel and
1/2/2/4 channels for 1/2/4/8 cores.  We model each channel as a server
with a fixed per-access service time (the time to stream one 64-byte
block across an 8B-wide 3200 MT/s channel, plus average bank timing), a
base access latency (tRCD + tCAS at 4 GHz core cycles), and FCFS
queueing.  Blocks interleave across channels by block address.

This captures what the paper's bandwidth experiments (Fig. 10c) need:
extra prefetch/metadata traffic raises queueing delay, and shrinking the
channel count makes inaccurate prefetchers hurt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

CORE_GHZ = 4.0


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    prefetch_reads: int = 0
    total_queue_cycles: float = 0.0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def bytes_transferred(self) -> int:
        return 64 * self.accesses

    @property
    def avg_queue_delay(self) -> float:
        return self.total_queue_cycles / self.accesses if self.accesses else 0.0


class DRAM:
    """Multi-channel DRAM with FCFS per-channel queueing.

    Parameters
    ----------
    channels:
        Number of independent channels (scaled with core count per Table II).
    mt_per_sec:
        Transfer rate in mega-transfers/s (3200 for DDR4-3200).
    base_latency:
        Idle-bank access latency in core cycles (row activate + CAS).
    bandwidth_scale:
        Multiplier on effective bandwidth; Fig. 10c sweeps this down to
        model bandwidth-limited systems (0.5 = half bandwidth).
    """

    def __init__(self, channels: int = 1, mt_per_sec: float = 3200.0,
                 base_latency: float = 100.0, bandwidth_scale: float = 1.0):
        if channels < 1:
            raise ValueError("need at least one channel")
        if bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")
        self.channels = channels
        self.base_latency = base_latency
        # 64B block over an 8B-wide channel = 8 transfers.
        xfer_ns = 8.0 / (mt_per_sec * 1e6) * 1e9
        # ~ +50% average bank-conflict overhead folded into service time.
        self.service_cycles = xfer_ns * CORE_GHZ * 1.5 / bandwidth_scale
        self._free: List[float] = [0.0] * channels
        self.stats = DRAMStats()

    def access(self, blk: int, now: float, is_write: bool = False,
               is_prefetch: bool = False) -> float:
        """Issue one block transfer; returns its latency in cycles."""
        ch = blk % self.channels
        free = self._free[ch]
        start = free if free > now else now
        queue = start - now
        self._free[ch] = start + self.service_cycles
        self.stats.total_queue_cycles += queue
        if is_write:
            self.stats.writes += 1
            return 0.0  # writebacks are off the critical path
        self.stats.reads += 1
        if is_prefetch:
            self.stats.prefetch_reads += 1
        return queue + self.base_latency + self.service_cycles

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {"free": list(self._free),
                "stats": {"reads": self.stats.reads,
                          "writes": self.stats.writes,
                          "prefetch_reads": self.stats.prefetch_reads,
                          "total_queue_cycles":
                              self.stats.total_queue_cycles}}

    def load_state(self, state: Dict[str, object]) -> None:
        free = [float(f) for f in state["free"]]
        if len(free) != self.channels:
            raise ValueError(
                f"checkpoint has {len(free)} DRAM channels, "
                f"model has {self.channels}")
        self._free = free
        s = state["stats"]
        self.stats = DRAMStats(
            reads=int(s["reads"]), writes=int(s["writes"]),
            prefetch_reads=int(s["prefetch_reads"]),
            total_queue_cycles=float(s["total_queue_cycles"]))
