"""The job broker: async producer–consumer queue over ``SimRunner``.

Submissions land on an :class:`asyncio.Queue`; one consumer task drains
whatever has accumulated (up to ``max_batch``) and hands it to the
blocking :meth:`repro.runner.SimRunner.run` on a single executor
thread.  While a batch simulates, new submissions pile up into the next
batch — the classic producer–consumer shape, which is what lets many
concurrent HTTP clients share one process pool without stepping on each
other.

Two dedup layers sit in front of execution:

* **cache-aside** — a fingerprint already in the two-level result cache
  resolves immediately, without touching the queue (and the runner
  would re-check anyway, so a race only costs a memo lookup);
* **in-flight sharing** — a fingerprint already queued or executing
  returns the *same* future, so two clients posting the identical job
  observe exactly one execution (pinned by ``tests/test_serve.py``).
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.trace import TraceContext
from ..runner.cache import ResultCache
from ..runner.jobs import JobResult, SimJob
from ..runner.runner import SimRunner


@dataclass
class BrokerStats:
    """Served/executed counters, exported on ``/metrics``."""

    submitted: int = 0      # jobs received (after wire decode)
    cache_hits: int = 0     # resolved straight from the result cache
    joined: int = 0         # shared an already-in-flight execution
    enqueued: int = 0       # entered the work queue
    executed: int = 0       # ran on the SimRunner (cold work)
    batches: int = 0        # consumer drains handed to the runner
    failures: int = 0       # jobs whose execution raised


class JobBroker:
    """Owns the queue, the in-flight map, and the runner thread."""

    def __init__(self, runner: Optional[SimRunner] = None,
                 max_batch: int = 64):
        self.runner = runner if runner is not None else SimRunner()
        self.max_batch = max_batch
        self.stats = BrokerStats()
        #: Set by the owning server to its queue-wait histogram's
        #: ``observe`` — the broker measures, the server's registry owns
        #: the series (keeping two in-process instances separate).
        self.on_queue_wait: Optional[Callable[[float], None]] = None
        self._inflight: Dict[str, "asyncio.Future[JobResult]"] = {}
        # Queue items: (fingerprint, job, submit context, enqueue time).
        self._queue: "asyncio.Queue[Tuple[str, SimJob, "\
            "Optional[TraceContext], float]]" = asyncio.Queue()
        # One thread: batches serialize, submissions accumulate behind
        # the running batch, and the runner's own process pool provides
        # the intra-batch parallelism.
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-runner")
        self._consumer: Optional["asyncio.Task[None]"] = None

    @property
    def cache(self) -> ResultCache:
        return self.runner.cache

    @property
    def queue_depth(self) -> int:
        """Jobs waiting in the queue (not yet drained into a batch)."""
        return self._queue.qsize()

    @property
    def inflight_count(self) -> int:
        """Jobs queued or executing whose futures are unresolved."""
        return len(self._inflight)

    def start(self) -> None:
        if self._consumer is None:
            self._consumer = asyncio.get_running_loop().create_task(
                self._consume())

    async def close(self) -> None:
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
        for future in self._inflight.values():
            if not future.done():
                future.cancelled() or future.set_exception(
                    RuntimeError("server shutting down"))
        self._inflight.clear()
        self._pool.shutdown(wait=True)

    # -- submission ------------------------------------------------------------

    def submit(self, job: SimJob, fingerprint: str,
               context: Optional[TraceContext] = None) \
            -> "asyncio.Future[JobResult]":
        """Route one job; returns a future for its result.

        Must run on the event-loop thread (the HTTP handlers do).
        ``context`` is the submitting request's trace hop; it rides the
        queue so the runner executes the job under the client's trace.
        """
        self.stats.submitted += 1
        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            self.stats.joined += 1
            return inflight
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[JobResult]" = loop.create_future()
        cached = self.cache.get(fingerprint)
        if cached is not None:
            self.stats.cache_hits += 1
            future.set_result(cached)
            return future
        self.stats.enqueued += 1
        self._inflight[fingerprint] = future
        self._queue.put_nowait((fingerprint, job, context,
                                time.monotonic()))
        return future

    def is_inflight(self, fingerprint: str) -> bool:
        return fingerprint in self._inflight

    def lookup(self, fingerprint: str) \
            -> Optional["asyncio.Future[JobResult]"]:
        """The in-flight future for a fingerprint, or a resolved one
        from the cache — None when the server has never seen it."""
        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            return inflight
        cached = self.cache.get(fingerprint)
        if cached is None:
            return None
        future: "asyncio.Future[JobResult]" = \
            asyncio.get_running_loop().create_future()
        future.set_result(cached)
        return future

    # -- the consumer ----------------------------------------------------------

    async def _consume(self) -> None:
        while True:
            batch: List[Tuple[str, SimJob, Optional[TraceContext],
                              float]] = [await self._queue.get()]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[Tuple[
            str, SimJob, Optional[TraceContext], float]]) -> None:
        loop = asyncio.get_running_loop()
        jobs = [job for _, job, _, _ in batch]
        contexts = [context for _, _, context, _ in batch]
        if self.on_queue_wait is not None:
            drained = time.monotonic()
            for _, _, _, enqueued_at in batch:
                self.on_queue_wait(drained - enqueued_at)
        self.stats.batches += 1
        try:
            results = await loop.run_in_executor(
                self._pool, functools.partial(
                    self.runner.run, jobs, contexts=contexts))
        except Exception as exc:  # surface to every waiter, keep serving
            self.stats.failures += len(batch)
            for fingerprint, _, _, _ in batch:
                future = self._inflight.pop(fingerprint, None)
                if future is not None and not future.done():
                    future.set_exception(
                        RuntimeError(f"job execution failed: {exc}"))
            return
        self.stats.executed += len(batch)
        for (fingerprint, _, _, _), result in zip(batch, results):
            future = self._inflight.pop(fingerprint, None)
            if future is not None and not future.done():
                future.set_result(result)
