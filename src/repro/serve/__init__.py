"""Simulation-as-a-service: an async job server over the result cache.

``python -m repro serve run`` promotes :mod:`repro.runner` from a library
into a long-running service: a stdlib-only asyncio HTTP/JSON API that
accepts :class:`~repro.runner.SimJob` batches in their canonical
fingerprint JSON (:mod:`repro.serve.wire`), routes them through an
async producer–consumer queue onto the existing process pool
(:mod:`repro.serve.broker`), deduplicates in-flight work by
fingerprint, serves cached results directly from the two-level result
cache, and streams per-job progress from the :mod:`repro.obs` runlog
to any number of concurrent clients (:mod:`repro.serve.server`).
One instance runs the whole batch and survives restarts via the
on-disk result-cache and checkpoint stores.  :mod:`repro.serve.client`
is the matching thin client (``REPRO_SERVE_URL`` re-points experiment
drivers at it).

Served results are byte-identical to direct :class:`SimRunner` calls —
the wire moves the same pickled :class:`JobResult` payloads the cache
stores — pinned by ``tests/test_serve.py``.  See DESIGN.md §8.

Observability (DESIGN.md §10): every submission can carry a
``traceparent`` envelope key that follows the job through broker, pool
worker, and runlog; ``GET /metrics`` exposes each instance's
:class:`repro.obs.metrics.MetricsRegistry` in Prometheus text format,
and ``GET /healthz`` answers liveness.
"""

from .broker import BrokerStats, JobBroker
from .client import ServeClient, ServeRunner, ServeUnavailable, serve_url
from .server import Server, ServerThread
from .wire import (WIRE_VERSION, WireError, job_from_wire, job_to_wire,
                   result_from_wire, result_to_wire)

__all__ = ["BrokerStats", "JobBroker", "ServeClient", "ServeRunner",
           "ServeUnavailable", "serve_url", "Server", "ServerThread",
           "WIRE_VERSION", "WireError", "job_from_wire", "job_to_wire",
           "result_from_wire", "result_to_wire"]
