"""repro.obs — observability for the simulator itself.

Five layers:

* :mod:`.runlog` — structured JSONL run logs (per-job wall time, cache
  and checkpoint effectiveness), merged across pool workers.  On by
  default, ``REPRO_OBS=0`` disables.
* :mod:`.profile` — the ``REPRO_PROFILE=1`` span profiler; nested
  wall-clock spans over job phases and hot-path components, attached to
  ``SimResult.profile`` and the runlog.
* :mod:`.trace` — distributed trace contexts (trace_id + span
  parentage, W3C-traceparent wire form) minted at the outermost entry
  point and bound into every runlog record and profiler span, so one
  request is reconstructable across server and worker processes.
* :mod:`.metrics` — the dependency-free metrics registry (counters,
  gauges, fixed-bucket histograms) behind the serve server's
  ``GET /metrics`` Prometheus endpoint.
* :mod:`.progress` — the live sweep progress line, drawn only when
  stderr is a TTY.

``python -m repro obs`` (see :mod:`repro.__main__`) reports over merged
run logs — including ``report --trace <id>`` span trees and the metrics
row folded from ``job_end`` records.  Telemetry
(:mod:`repro.telemetry`) answers what the simulated hardware did; obs
answers what the simulator did.
"""

from . import metrics, profile, progress, report, runlog, trace
from .metrics import MetricsRegistry
from .trace import TraceContext

__all__ = ["metrics", "profile", "progress", "report", "runlog",
           "trace", "MetricsRegistry", "TraceContext"]
