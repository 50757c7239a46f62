"""repro.telemetry: interval time-series + prefetch-lifecycle tracing.

The observability subsystem over the hierarchy's
:class:`~repro.memory.events.EventBus`.  Three pillars:

* :mod:`repro.telemetry.intervals` — :class:`IntervalSampler`, a
  columnar time-series of counter deltas (misses, prefetch traffic,
  metadata traffic, occupancy gauges, per-core rate) every N demand
  accesses.
* :mod:`repro.telemetry.lifecycle` — :class:`PrefetchLifecycleTracer`,
  following each prefetch from issue through fill to first demand use or
  eviction, classified on-time / late / unused / in-flight.
* :mod:`repro.telemetry.export` / :mod:`repro.telemetry.report` — JSONL
  export with a checked-in schema, and text reports; both also power
  ``python -m repro telemetry run|validate``.

Opt in by putting a :class:`TelemetryConfig` on
``SystemConfig(telemetry=...)``; add the ``"telemetry"`` probe to a
:class:`~repro.runner.jobs.SimJob` to ship the payload with the cached
result.  Everything subscribes; nothing hooks the hot path, so disabled
runs are bit-identical to a build without this package.
"""

from .config import (DEFAULT_COUNTERS, DEFAULT_INTERVAL, TelemetryConfig)
from .export import (SCHEMA, iter_records, load_schema, to_jsonl,
                     validate_jsonl, validate_records, write_jsonl)
from .harness import TELEMETRY_SCHEMA_VERSION, TelemetryHarness
from .intervals import COUNTER_SPECS, IntervalSampler
from .lifecycle import (CLASSES, IN_FLIGHT, LATE, ON_TIME, UNUSED,
                        LifecycleCounts, PrefetchLifecycleTracer)
from .report import render, render_intervals, render_lifecycle

__all__ = [
    "DEFAULT_COUNTERS", "DEFAULT_INTERVAL", "TelemetryConfig",
    "SCHEMA", "iter_records", "load_schema", "to_jsonl",
    "validate_jsonl", "validate_records", "write_jsonl",
    "TELEMETRY_SCHEMA_VERSION", "TelemetryHarness",
    "COUNTER_SPECS", "IntervalSampler",
    "CLASSES", "IN_FLIGHT", "LATE", "ON_TIME", "UNUSED",
    "LifecycleCounts", "PrefetchLifecycleTracer",
    "render", "render_intervals", "render_lifecycle",
]
