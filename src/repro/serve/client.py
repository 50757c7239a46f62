"""The thin client: stdlib ``urllib`` against a serve instance.

:class:`ServeClient` speaks the wire protocol (submit a batch, long-poll
results, tail the SSE event stream) to the one server it was given;
:class:`ServeRunner` wraps it in the :meth:`repro.runner.SimRunner.run`
interface — same signature, same input-order/dedup semantics — so any
experiment driver becomes a thin client by swapping its runner
(``experiments.common.job_runner()`` does exactly that from
``REPRO_SERVE_URL``).

The client computes fingerprints locally from the real :class:`SimJob`
objects it holds, so in-batch dedup needs no round trip, and the
server's fingerprint verification closes the loop.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..envknobs import env_url
from ..obs import trace as obs_trace
from ..runner.jobs import JobResult, SimJob
from .wire import WIRE_VERSION, WireError, job_to_wire, result_from_wire


def serve_url() -> Optional[str]:
    """The client-side opt-in: a base URL from ``REPRO_SERVE_URL``, or
    None (unset/empty/``0``) meaning "execute in-process as always".

    A pure execution-routing knob, like ``resume``: it
    never enters job fingerprints, so served and direct runs share
    cache entries (and must be byte-identical — pinned by
    ``tests/test_serve.py``).
    """
    return env_url("REPRO_SERVE_URL")


class ServeUnavailable(RuntimeError):
    """The server could not be reached or refused the request."""


class ServeClient:
    """One serve instance, addressed by its base URL."""

    def __init__(self, base_url: str, timeout: float = 60.0,
                 poll_timeout: float = 20.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.poll_timeout = poll_timeout
        #: The trace context of the most recent :meth:`submit` — the
        #: handle callers pass to ``python -m repro obs report --trace``.
        self.last_context: Optional[obs_trace.TraceContext] = None

    # -- low-level HTTP --------------------------------------------------------

    def _request(self, url: str, body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        data = json.dumps(body).encode("utf-8") if body is not None \
            else None
        request = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # Structured errors (400/404/...) carry a JSON body worth
            # keeping; re-raise with it attached.
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                payload = {"error": str(exc)}
            payload["http_status"] = exc.code
            raise ServeUnavailable(
                f"{url} -> HTTP {exc.code}: "
                f"{payload.get('error', '?')}") from None
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise ServeUnavailable(f"{url} unreachable: {exc}") from None

    def _get_raw(self, url: str, timeout: Optional[float] = None):
        """GET returning ``(status, json payload)`` without raising on
        structured non-200s (long-polling needs 202 as data)."""
        request = urllib.request.Request(url)
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.timeout) as response:
                return response.status, json.loads(
                    response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                return exc.code, json.loads(exc.read().decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                raise ServeUnavailable(
                    f"{url} -> HTTP {exc.code}") from None
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise ServeUnavailable(f"{url} unreachable: {exc}") from None

    # -- endpoints -------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request(f"{self.base_url}/healthz")

    def submit(self, jobs: Sequence[SimJob]) -> List[JobResult]:
        """Run a batch through the service; results in input order.

        Mirrors :meth:`SimRunner.run`: duplicate fingerprints are
        submitted once and fan back out.  Every job is posted in one
        batch and every result long-polled at ``base_url``; the client
        never follows an address a server names.

        This is an outermost tracing entry point: one root context is
        minted per call (or inherited from an installed ambient one)
        and sent with every job's wire envelope, so the whole batch
        shares one trace_id (``self.last_context`` keeps the handle).
        """
        context = obs_trace.ambient()
        self.last_context = context
        fingerprints = [job.fingerprint() for job in jobs]
        unique: Dict[str, SimJob] = {}
        for job, fingerprint in zip(jobs, fingerprints):
            unique.setdefault(fingerprint, job)
        self._place(unique, context.to_traceparent())
        results = {fp: self._await_result(fp) for fp in unique}
        return [results[fp] for fp in fingerprints]

    def _place(self, unique: Dict[str, SimJob], traceparent: str) -> None:
        """Post every unique job in one batch; a job the server did not
        take (``invalid``, or any unknown status) raises WireError."""
        payload = {"wire": WIRE_VERSION,
                   "jobs": [job_to_wire(job, traceparent)
                            for job in unique.values()]}
        reply = self._request(f"{self.base_url}/v1/jobs", body=payload)
        for fingerprint, status in zip(unique, reply.get("jobs", [])):
            state = status.get("status")
            if state not in ("accepted", "cached", "joined"):
                raise WireError(
                    f"server refused job {fingerprint}: "
                    f"{status.get('error', state)}")

    def _await_result(self, fingerprint: str) -> JobResult:
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeUnavailable(
                    f"timed out waiting for result {fingerprint}")
            wait = min(self.poll_timeout, remaining)
            status, payload = self._get_raw(
                f"{self.base_url}/v1/results/{fingerprint}"
                f"?timeout={wait:g}",
                timeout=wait + self.timeout)
            if status == 200:
                return result_from_wire(payload)
            if status == 202:
                continue  # still executing; poll again
            raise ServeUnavailable(
                f"result {fingerprint}: HTTP {status} "
                f"{payload.get('error', payload)}")

    def events(self, fingerprint: Optional[str] = None,
               timeout: Optional[float] = None) \
            -> Iterator[Dict[str, Any]]:
        """Yield progress records from the server's event stream.

        Blocks on the socket between events; stops when the server
        closes the stream or the read times out.  Callers break out
        once they have seen what they were waiting for (e.g. the
        ``job_end`` of their fingerprint).
        """
        url = f"{self.base_url}/v1/events"
        if fingerprint:
            url += f"?fingerprint={fingerprint}"
        request = urllib.request.Request(url)
        try:
            response = urllib.request.urlopen(
                request, timeout=timeout or self.timeout)
        except (urllib.error.URLError, OSError) as exc:
            raise ServeUnavailable(f"{url} unreachable: {exc}") from None
        try:
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("data: "):
                    try:
                        yield json.loads(line[len("data: "):])
                    except json.JSONDecodeError:
                        continue
        except (OSError, TimeoutError):
            return  # stream closed / idle timeout: subscriber is done
        finally:
            response.close()


class ServeRunner:
    """A drop-in for :class:`repro.runner.SimRunner` backed by HTTP.

    Only the run interface is provided — cache and worker management
    belong to the server side.  Experiment helpers that take a
    ``runner=`` argument accept this unchanged.
    """

    def __init__(self, client: ServeClient):
        self.client = client

    @classmethod
    def from_env(cls) -> Optional["ServeRunner"]:
        url = serve_url()
        return cls(ServeClient(url)) if url else None

    def run(self, jobs: Sequence[SimJob]) -> List[JobResult]:
        return self.client.submit(jobs)

    def run_one(self, job: SimJob) -> JobResult:
        return self.run([job])[0]
