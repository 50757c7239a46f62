"""Simulated system configuration (Table II of the paper).

The defaults mirror the paper's Ice Lake-like setup: 4 GHz 6-wide OoO
core with a 352-entry ROB, 48KB/12-way L1D, 512KB/8-way L2, 2MB/core
16-way LLC, and DDR4-3200 with channel counts scaled by core count.
Latencies are in core cycles.

The config also carries the reproduction-specific knobs (trace length,
warmup fraction) that have no counterpart in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..telemetry.config import TelemetryConfig


#: Table II: "1/2/4/8C: 1/2/2/4 channels"
CHANNELS_BY_CORES: Dict[int, int] = {1: 1, 2: 2, 4: 2, 8: 4}


def _size(nbytes: int) -> str:
    """``2MB`` for whole megabytes, else ``512KB``."""
    mb = 1024 * 1024
    return f"{nbytes // mb}MB" if nbytes % mb == 0 else f"{nbytes // 1024}KB"


@dataclass(frozen=True)
class SystemConfig:
    """Everything the engine needs to build one simulated system."""

    num_cores: int = 1

    # Core timing proxy
    commit_width: int = 6
    rob_size: int = 352
    mlp: int = 16              # max overlapped outstanding misses (L1D MSHRs)

    # L1D (we do not model the L1I; traces contain data accesses only)
    l1d_size: int = 48 * 1024
    l1d_ways: int = 12
    l1d_latency: int = 5

    # L2
    l2_size: int = 512 * 1024
    l2_ways: int = 8
    l2_latency: int = 10

    # LLC (per core; scaled by num_cores for shared LLC)
    llc_size_per_core: int = 2 * 1024 * 1024
    llc_ways: int = 16
    llc_latency: int = 20
    llc_replacement: str = "srrip"

    # DRAM
    dram_mt_per_sec: float = 3200.0
    dram_base_latency: float = 100.0
    dram_bandwidth_scale: float = 1.0
    dram_channels: int = 0      # 0 = derive from CHANNELS_BY_CORES

    # Reproduction knobs
    warmup_fraction: float = 0.2

    # Observability (None = off: no subscribers, bit-identical results).
    # Participates in job fingerprints, so telemetry-on runs key their
    # own cache entries.  See repro.telemetry.
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")

    @property
    def llc_size(self) -> int:
        """Total shared LLC capacity."""
        return self.llc_size_per_core * self.num_cores

    @property
    def channels(self) -> int:
        if self.dram_channels:
            return self.dram_channels
        return CHANNELS_BY_CORES.get(self.num_cores,
                                     max(1, self.num_cores // 2))

    def scaled(self, **overrides) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def scaled_down(self, factor: int = 4) -> "SystemConfig":
        """Shrink every cache by ``factor`` (same ways and latencies).

        The experiments run on a 1/4-scale hierarchy so that Python-sized
        traces (~100-200K accesses) exercise the same capacity pressure
        the paper's 800M-instruction traces put on the full-size system.
        Partition sizes scale with the LLC, so the paper's "1MB / 0.5MB
        metadata store" become "half the LLC / a quarter of the LLC" -
        the same set/way arithmetic at every scale.
        """
        if factor < 1 or not (factor & (factor - 1)) == 0:
            raise ValueError("factor must be a power of two >= 1")
        return replace(
            self,
            l1d_size=self.l1d_size // factor,
            l2_size=self.l2_size // factor,
            llc_size_per_core=self.llc_size_per_core // factor,
        )

    def table(self) -> str:
        """Render the configuration as the paper's Table II."""
        rows = [
            ("Core", f"4GHz, {self.commit_width}-wide OoO, "
                     f"{self.rob_size}-entry ROB (timing proxy)"),
            ("L1D", f"{self.l1d_size // 1024}KB, {self.l1d_ways}-way, "
                    f"{self.l1d_latency}-cycle latency"),
            ("L2", f"{self.l2_size // 1024}KB, {self.l2_ways}-way, "
                   f"{self.l2_latency}-cycle latency"),
            ("LLC", f"{_size(self.llc_size)} "
                    f"({_size(self.llc_size_per_core)}/core), "
                    f"{self.llc_ways}-way, {self.llc_latency}-cycle latency"),
            ("DRAM", f"{self.dram_mt_per_sec:.0f} MT/s, "
                     f"{self.channels} channel(s), "
                     f"bandwidth x{self.dram_bandwidth_scale:g}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}} | {v}" for k, v in rows)


DEFAULT_CONFIG = SystemConfig()
