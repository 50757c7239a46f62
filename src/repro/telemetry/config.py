"""Telemetry configuration.

:class:`TelemetryConfig` is the opt-in knob carried by
:class:`repro.sim.config.SystemConfig` (``telemetry=None`` keeps the
engine exactly as it was — no subscribers, no overhead, bit-identical
results).  It lives here, not in ``repro.sim``, so the telemetry package
never has to import the simulator: everything in ``repro.telemetry``
observes the :class:`repro.memory.events.EventBus` and nothing else.

Because the config is a frozen dataclass nested inside ``SystemConfig``,
it participates in job fingerprints: enabling telemetry (or changing the
sampling interval) keys distinct cache entries, so telemetry-on results
never shadow the golden telemetry-off ones.

Environment knobs (read by :meth:`TelemetryConfig.from_env`, used by the
experiment layer):

* ``REPRO_TELEMETRY=1`` — enable telemetry in experiments that support
  it (fig9 gains timeliness columns; default off keeps goldens stable).
* ``REPRO_TELEMETRY_INTERVAL=<n>`` — demand accesses per interval
  sample (default :data:`DEFAULT_INTERVAL`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..envknobs import env_flag, env_int

#: Default sampling period, in committed demand accesses.
DEFAULT_INTERVAL = 1000

#: The standard counter set sampled per interval; see
#: :data:`repro.telemetry.intervals.COUNTER_SPECS` for definitions.
DEFAULT_COUNTERS: Tuple[str, ...] = (
    "l1d_misses", "l2_misses", "llc_misses",
    "pf_issued", "pf_dropped", "pf_fills", "pf_useful", "pf_useless",
    "meta_reads", "meta_writes",
)


@dataclass(frozen=True)
class TelemetryConfig:
    """What to observe, and how often to sample.

    ``interval``
        Demand accesses between interval snapshots.
    ``intervals`` / ``lifecycle``
        Independently toggle the time-series sampler and the
        prefetch-lifecycle tracer.
    ``counters``
        Names from ``repro.telemetry.intervals.COUNTER_SPECS`` sampled
        each interval (the gauge columns are always sampled).
    ``max_intervals``
        Safety bound on the series length; sampling stops (with a
        ``truncated`` marker in the export) once reached.
    """

    interval: int = DEFAULT_INTERVAL
    intervals: bool = True
    lifecycle: bool = True
    counters: Tuple[str, ...] = DEFAULT_COUNTERS
    max_intervals: int = 100_000

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("telemetry interval must be >= 1")
        if self.max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")
        if not self.intervals and not self.lifecycle:
            raise ValueError(
                "telemetry config enables neither intervals nor lifecycle; "
                "use SystemConfig(telemetry=None) to disable telemetry")

    @classmethod
    def from_env(cls) -> Optional["TelemetryConfig"]:
        """The experiment-layer opt-in: None unless ``REPRO_TELEMETRY=1``
        (junk values raise naming the variable)."""
        if not env_flag("REPRO_TELEMETRY", False):
            return None
        return cls(interval=env_int("REPRO_TELEMETRY_INTERVAL",
                                    DEFAULT_INTERVAL))
