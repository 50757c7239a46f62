"""repro.obs — observability for the simulator itself.

Five layers, all opt-in or free-by-default:

* :mod:`.runlog` — structured JSONL run logs (per-job wall time, cache
  and checkpoint effectiveness), merged across pool workers.  On by
  default, ``REPRO_OBS=0`` disables.
* :mod:`.profile` — the ``REPRO_PROFILE=1`` span profiler; nested
  wall-clock spans over job phases and hot-path components, attached to
  ``SimResult.profile`` and the runlog.
* :mod:`.trace` — distributed trace contexts (trace_id + span
  parentage, W3C-traceparent wire form) minted at the outermost entry
  point and bound into every runlog record and profiler span, so one
  request is reconstructable across server and worker processes.  On by
  default, ``REPRO_TRACE=0`` disables.
* :mod:`.metrics` — the dependency-free metrics registry (counters,
  gauges, fixed-bucket histograms) behind the serve server's
  ``GET /metrics`` Prometheus endpoint and the ``metrics`` section of
  ``job_end`` records.  On by default, ``REPRO_METRICS=0`` disables.
* :mod:`.progress` — the TTY-aware live sweep progress line
  (``REPRO_PROGRESS`` override).

``python -m repro obs`` (see :mod:`repro.__main__`) reports over merged
run logs — including ``report --trace <id>`` span trees and the metrics
roll-up.  Telemetry (:mod:`repro.telemetry`) answers what the simulated
hardware did; obs answers what the simulator did.
"""

from . import metrics, profile, progress, report, runlog, trace
from .metrics import MetricsRegistry
from .trace import TraceContext

__all__ = ["metrics", "profile", "progress", "report", "runlog",
           "trace", "MetricsRegistry", "TraceContext"]
