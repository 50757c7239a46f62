"""The asyncio HTTP/JSON simulation server.

A deliberately small HTTP/1.1 implementation over
``asyncio.start_server`` — stdlib only, one connection per request
(``Connection: close``), JSON in and out — fronting a
:class:`repro.serve.broker.JobBroker`:

* ``GET  /healthz``                  — liveness + wire version.
* ``POST /v1/jobs``                  — submit a batch; per-job status
  (``cached`` / ``accepted`` / ``joined``, or ``invalid`` + error).
* ``GET  /v1/results/<fp>``          — long-poll one result
  (``?timeout=<s>``); 200 result, 202 still pending, 404 unknown.
* ``GET  /v1/events``                — server-sent events tailing the
  ``repro.obs`` runlog (``?fingerprint=<fp>`` filters to one job);
  delivers ``job_start``/``job_end``/``prewarm``/``run_*`` records to
  any number of concurrent clients while batches execute.
* ``GET  /metrics``                  — Prometheus text exposition of
  this instance's :class:`repro.obs.metrics.MetricsRegistry`: broker
  and cache counters, queue depth and event-stream clients are
  *pulled* from their owners at render time; per-job series (wall
  time, events/s, restores) are *folded* from the fields of tailed
  ``job_end`` runlog records, which is how worker processes ship their
  numbers across the process boundary.
  Broker/cache series are instance-local; folded job series cover every
  run under the obs root this instance tails.

Restart needs no recovery protocol: all durable state lives in the
result cache / checkpoint stores, so a fresh instance serves its
predecessor's results from disk.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import metrics as obs_metrics
from ..obs import runlog as obs_runlog
from ..obs import trace as obs_trace
from ..version import __version__
from .broker import JobBroker
from .wire import WIRE_VERSION, WireError, job_from_wire, result_to_wire

#: Events forwarded to ``/v1/events`` subscribers (the progress-relevant
#: subset of the runlog taxonomy; unknown future kinds pass through the
#: filter only when unfiltered clients ask for everything).
PROGRESS_EVENTS = ("run_start", "prewarm", "job_start", "job_end",
                   "run_end", "cache_evict")

#: Hard cap on request bodies (a batch of canonical jobs is a few KiB
#: each; anything near this is a client bug, not a workload).
MAX_BODY = 32 * 1024 * 1024

#: Default long-poll patience for ``/v1/results`` (seconds).
RESULT_WAIT = 30.0

#: What ``/v1/results/<fingerprint>`` accepts: a job's sha256 in hex.
_FINGERPRINT = re.compile(r"[0-9a-fA-F]{64}")


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message}


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            500: "Internal Server Error"}


class Server:
    """One serve instance: HTTP front end + broker + event hub."""

    def __init__(self, broker: Optional[JobBroker] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 obs_root=None, poll_interval: float = 0.15):
        self.broker = broker if broker is not None else JobBroker()
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self._tailer = obs_runlog.RunLogTailer(obs_root)
        self._subscribers: Set[Tuple[asyncio.Queue, Optional[str]]] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tail_task: Optional["asyncio.Task[None]"] = None
        self.metrics = self._build_registry()

    # -- metrics ---------------------------------------------------------------

    def _build_registry(self) -> obs_metrics.MetricsRegistry:
        """This instance's metric series.

        Broker and cache series are pull collectors over counters their
        owners already maintain monotonically — no hot-path
        instrumentation, and each in-process ``Server`` reads *its own*
        broker, so two servers in one process (the restart test runs
        a predecessor and its successor) never merge.
        """
        registry = obs_metrics.MetricsRegistry()
        broker = self.broker
        registry.counter(
            "repro_broker_jobs_total",
            "jobs executed by this instance's runner (cold work)",
            fn=lambda: broker.stats.executed)
        registry.counter(
            "repro_broker_submitted_total",
            "jobs received after wire decode",
            fn=lambda: broker.stats.submitted)
        registry.counter(
            "repro_broker_joined_total",
            "jobs that shared an already-in-flight execution",
            fn=lambda: broker.stats.joined)
        registry.counter(
            "repro_broker_batches_total",
            "consumer drains handed to the runner",
            fn=lambda: broker.stats.batches)
        registry.counter(
            "repro_broker_failures_total",
            "jobs whose execution raised",
            fn=lambda: broker.stats.failures)
        registry.counter(
            "repro_cache_hits_total",
            "jobs resolved straight from the result cache (cache-aside)",
            fn=lambda: broker.stats.cache_hits)
        registry.counter(
            "repro_cache_memo_hits_total",
            "result-cache in-memory hits",
            fn=lambda: broker.cache.stats.memo_hits)
        registry.counter(
            "repro_cache_disk_hits_total",
            "result-cache on-disk hits",
            fn=lambda: broker.cache.stats.disk_hits)
        registry.counter(
            "repro_cache_misses_total",
            "result-cache misses",
            fn=lambda: broker.cache.stats.misses)
        registry.counter(
            "repro_cache_evictions_total",
            "corrupt result-cache entries evicted on read",
            fn=lambda: broker.cache.stats.evictions)
        registry.gauge(
            "repro_broker_queue_depth",
            "jobs waiting in the broker queue",
            fn=lambda: broker.queue_depth)
        registry.gauge(
            "repro_broker_inflight_jobs",
            "jobs queued or executing with unresolved futures",
            fn=lambda: broker.inflight_count)
        registry.gauge(
            "repro_serve_sse_clients",
            "connected /v1/events subscribers",
            fn=lambda: len(self._subscribers))
        queue_wait = registry.histogram(
            "repro_broker_queue_wait_seconds",
            "seconds a job waited in the queue before its batch drained")
        broker.on_queue_wait = queue_wait.observe
        # Folded from tailed job_end records: see _fold_record.
        registry.histogram(
            "repro_job_wall_seconds",
            "per-job wall-clock execution seconds")
        registry.counter(
            "repro_job_events_total",
            "simulated accesses across completed jobs")
        registry.counter(
            "repro_ckpt_restores_total",
            "jobs that restored a warm-up/progress checkpoint")
        registry.counter(
            "repro_trace_store_hits_total",
            "on-disk trace store hits across completed jobs")
        registry.gauge(
            "repro_engine_events_per_second",
            "simulated accesses per wall second of the last folded job")
        return registry

    def _fold_record(self, record: Dict[str, Any]) -> None:
        """Fold one tailed ``job_end`` record's fields in."""
        if record.get("event") != "job_end":
            return
        wall = float(record.get("wall_seconds", 0.0))
        events = float(record.get("events", 0))
        self.metrics.get("repro_job_wall_seconds").observe(wall)
        self.metrics.get("repro_job_events_total").inc(events)
        self.metrics.get("repro_ckpt_restores_total").inc(
            float(bool(record.get("restored"))))
        self.metrics.get("repro_trace_store_hits_total").inc(
            float((record.get("trace_store") or {}).get("hits", 0)))
        self.metrics.get("repro_engine_events_per_second").set(
            events / wall if wall > 0 else 0.0)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self.broker.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        # Prime the tailer past pre-existing runlogs: folded job
        # metrics are live-only, not a replay of every old run under
        # the obs root, and event-stream subscribers only ever see
        # records polled after they connected.
        await asyncio.get_running_loop().run_in_executor(
            None, self._tailer.poll)
        self._tail_task = asyncio.get_running_loop().create_task(
            self._tail_loop())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._tail_task is not None:
            self._tail_task.cancel()
            try:
                await self._tail_task
            except asyncio.CancelledError:
                pass
            self._tail_task = None
        # Wake event-stream handlers (blocked on their queues) so their
        # connections close instead of being destroyed with the loop.
        for queue, _fingerprint in list(self._subscribers):
            queue.put_nowait(None)
        await asyncio.sleep(0)
        await self.broker.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- event hub -------------------------------------------------------------

    async def _tail_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # File I/O off the loop thread; records fan out on it.
            records = await loop.run_in_executor(None, self._tailer.poll)
            for record in records:
                self._fold_record(record)
                self._dispatch(record)
            await asyncio.sleep(self.poll_interval)

    def _dispatch(self, record: Dict[str, Any]) -> None:
        event = record.get("event")
        if event not in PROGRESS_EVENTS:
            return
        for queue, fingerprint in self._subscribers:
            if fingerprint is not None \
                    and record.get("fingerprint") != fingerprint:
                continue
            queue.put_nowait(record)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            method, path, query, body = await self._read_request(reader)
            await self._route(method, path, query, body, writer)
        except _HttpError as exc:
            await self._send_json(writer, exc.status, exc.payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/stream
        except Exception as exc:  # never kill the accept loop
            try:
                await self._send_json(writer, 500, {"error": repr(exc)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode(
            "latin-1").rstrip("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line "
                                  f"{request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            raise _HttpError(400, f"request body of {length} bytes "
                                  f"exceeds the {MAX_BODY} limit")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method, split.path, query, body

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _send_text(self, writer: asyncio.StreamWriter, status: int,
                         text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ---------------------------------------------------------------

    async def _route(self, method: str, path: str, query: Dict[str, str],
                     body: bytes, writer: asyncio.StreamWriter) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, self._describe())
        elif path == "/metrics" and method == "GET":
            await self._send_text(
                writer, 200, self.metrics.render(),
                "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/v1/jobs":
            if method != "POST":
                raise _HttpError(405, "POST /v1/jobs")
            await self._handle_jobs(body, writer)
        elif path.startswith("/v1/results/"):
            if method != "GET":
                raise _HttpError(405, "GET /v1/results/<fingerprint>")
            await self._handle_result(
                path[len("/v1/results/"):], query, writer)
        elif path == "/v1/events":
            if method != "GET":
                raise _HttpError(405, "GET /v1/events")
            await self._handle_events(query, writer)
        else:
            raise _HttpError(404, f"no route {method} {path}")

    def _describe(self) -> Dict[str, Any]:
        return {"status": "ok", "wire": WIRE_VERSION,
                "version": __version__,
                "workers": self.broker.runner.workers}

    async def _handle_jobs(self, body: bytes,
                           writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") \
                from None
        if not isinstance(payload, dict) \
                or payload.get("wire") != WIRE_VERSION:
            raise _HttpError(400, f"expected a wire-version-{WIRE_VERSION}"
                                  f" envelope")
        jobs = payload.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise _HttpError(400, "envelope carries no jobs")
        statuses: List[Dict[str, Any]] = []
        for entry in jobs:
            try:
                job, fingerprint = job_from_wire(entry)
            except WireError as exc:
                statuses.append({"status": "invalid", "error": str(exc),
                                 "fingerprint": None})
                continue
            # The optional traceparent envelope key: this hop runs as a
            # *child* span of the client's context, so the runlog shows
            # client -> server -> job causality.  Absent or malformed
            # values (junk) simply mean an untraced job.
            parent = obs_trace.parse_or_none(entry.get("traceparent"))
            context = parent.child() if parent is not None else None
            was_inflight = self.broker.is_inflight(fingerprint)
            future = self.broker.submit(job, fingerprint, context)
            status = "cached" if future.done() \
                else ("joined" if was_inflight else "accepted")
            statuses.append({"status": status, "fingerprint": fingerprint})
        await self._send_json(writer, 200,
                              {"wire": WIRE_VERSION, "jobs": statuses})

    async def _handle_result(self, fingerprint: str, query: Dict[str, str],
                             writer: asyncio.StreamWriter) -> None:
        if not _FINGERPRINT.fullmatch(fingerprint):
            raise _HttpError(400, "a fingerprint is 64 hex digits")
        try:
            timeout = float(query.get("timeout", RESULT_WAIT))
        except ValueError:
            raise _HttpError(400, "timeout must be a number") from None
        future = self.broker.lookup(fingerprint)
        if future is None:
            raise _HttpError(
                404, f"fingerprint {fingerprint} was never submitted "
                     f"here and is not cached")
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), timeout=max(0.0, timeout))
        except asyncio.TimeoutError:
            await self._send_json(writer, 202, {"status": "pending"})
            return
        except Exception as exc:
            raise _HttpError(500, f"job failed: {exc}") from None
        await self._send_json(writer, 200, result_to_wire(result))

    async def _handle_events(self, query: Dict[str, str],
                             writer: asyncio.StreamWriter) -> None:
        fingerprint = query.get("fingerprint")
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        subscription = (queue, fingerprint)
        self._subscribers.add(subscription)
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        try:
            writer.write(head)
            await writer.drain()
            while True:
                record = await queue.get()
                if record is None:  # server shutting down
                    break
                data = json.dumps(record, sort_keys=True)
                writer.write(f"data: {data}\n\n".encode("utf-8"))
                await writer.drain()
        finally:
            self._subscribers.discard(subscription)


class ServerThread:
    """An in-process server on a background event loop.

    The tests run instances this way: same process, real sockets, no
    subprocess plumbing.  ``start()`` blocks until the port is bound;
    ``stop()`` tears the loop down and raises if the thread outlives
    its timeout, so a hung shutdown never passes silently.
    """

    def __init__(self, server: Server):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        import threading
        started = threading.Event()
        failure: List[BaseException] = []

        def main() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def boot() -> None:
                try:
                    await self.server.start()
                finally:
                    started.set()

            try:
                loop.run_until_complete(boot())
                loop.run_forever()
            except BaseException as exc:  # surfaced by start()
                failure.append(exc)
                started.set()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-serve", daemon=True)
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("server thread did not start in time")
        if failure:
            raise RuntimeError(
                f"server thread failed to start: {failure[0]!r}")
        return self

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        def shutdown() -> None:
            task = loop.create_task(self.server.stop())
            task.add_done_callback(lambda _t: loop.stop())

        loop.call_soon_threadsafe(shutdown)
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError(
                f"server thread {thread.name!r} did not stop within "
                f"{timeout:g}s")
        self._loop = None
        self._thread = None
