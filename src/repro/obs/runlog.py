"""Structured run logs: what the *simulator* did, as JSONL.

Every :meth:`repro.runner.SimRunner.run` batch that executes at least
one cold job gets a run directory under ``benchmarks/.obs/<run_id>/``.
The parent process appends ``run_start``/``run_end`` records (batch
size, cache and prewarm effectiveness, wall time); every worker process
— installed via the pool initializer — appends ``job_start``/``job_end``
records (job fingerprint, workloads, wall seconds, checkpoint-restore
flag, trace-store counters, simulated accesses and cycles, and the span
profile when ``REPRO_PROFILE`` is on) to its own shard.  After the pool
drains, the parent merges all shards into one ``runlog.jsonl`` ordered
by ``(ts, pid, seq)``, which is what ``python -m repro obs`` reports
over.

Records are one JSON object per line with a common envelope::

    {"ts": <unix seconds>, "pid": <writer pid>, "seq": <per-writer
     counter>, "event": "<type>", ...payload...}

Knobs (mirroring the result cache / checkpoint store):

* ``REPRO_OBS=0``    — disable run logging entirely.
* ``REPRO_OBS_DIR``  — override the log directory.

Writers flush per record, so a killed worker loses at most the line it
was writing; the merge skips torn trailing lines rather than failing.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from ..envknobs import env_flag
from ..store import store_dir
from . import trace as obs_trace

#: Version of the runlog record layout (bump when fields change shape).
#: v2: ``job_end`` records ``events`` and ``sim_cycles`` at top level
#: and no longer carry a ``metrics`` section repeating their own fields.
RUNLOG_SCHEMA_VERSION = 2

#: Merged log filename inside a run directory.
MERGED = "runlog.jsonl"


def enabled() -> bool:
    """Run logging is on unless ``REPRO_OBS=0`` (junk values raise)."""
    return env_flag("REPRO_OBS", True)


def obs_dir() -> pathlib.Path:
    """Root directory for run logs (``REPRO_OBS_DIR`` overrides)."""
    return store_dir("obs", "REPRO_OBS_DIR")


class RunLogWriter:
    """Appends envelope-wrapped JSONL records to one shard file."""

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._seq = 0

    def emit(self, event: str, **payload: Any) -> None:
        record = {"ts": time.time(), "pid": os.getpid(), "seq": self._seq,
                  "event": event}
        # Bind the installed trace context into every record so one
        # request is reconstructable across server and worker shards.
        context = obs_trace.current()
        if context is not None:
            record.update(context.fields())
        record.update(payload)
        self._seq += 1
        self._fh.write(json.dumps(record, sort_keys=True,
                                  default=repr) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


# -- the per-process current writer --------------------------------------------

_current: Optional[RunLogWriter] = None


def current() -> Optional[RunLogWriter]:
    """The writer installed for this process (None = logging off)."""
    return _current


def install(writer: Optional[RunLogWriter]) -> None:
    global _current
    _current = writer


def uninstall() -> None:
    install(None)


def init_worker(directory: str) -> None:
    """Pool-worker initializer: open this worker's shard.

    Passed as the ``ProcessPoolExecutor`` initializer by
    :class:`repro.runner.SimRunner`, so every job a worker executes logs
    into ``<run dir>/worker-<pid>.jsonl``.
    """
    install(RunLogWriter(
        pathlib.Path(directory) / f"worker-{os.getpid()}.jsonl"))


# -- run directories -----------------------------------------------------------

_run_counter = 0


def _new_run_id() -> str:
    global _run_counter
    _run_counter += 1
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{os.getpid()}-{_run_counter}"


class RunLog:
    """One run directory: the parent shard, worker shards, and the merge."""

    def __init__(self, run_id: str, directory: pathlib.Path):
        self.run_id = run_id
        self.directory = pathlib.Path(directory)

    @classmethod
    def create(cls, root: Optional[pathlib.Path] = None) -> "RunLog":
        root = pathlib.Path(root) if root is not None else obs_dir()
        run_id = _new_run_id()
        directory = root / run_id
        directory.mkdir(parents=True, exist_ok=True)
        return cls(run_id, directory)

    def parent_writer(self) -> RunLogWriter:
        return RunLogWriter(self.directory / "parent.jsonl")

    def merge(self) -> pathlib.Path:
        """Merge every shard into ``runlog.jsonl``, ordered by
        ``(ts, pid, seq)``, and remove the shards.

        The sort key makes the merged log globally ordered even though
        workers write concurrently: ``ts`` orders across processes (one
        machine, one clock), and ``(pid, seq)`` breaks ties
        deterministically while preserving each writer's own order.
        """
        records: List[Dict[str, Any]] = []
        shards = [p for p in sorted(self.directory.glob("*.jsonl"))
                  if p.name != MERGED]
        for shard in shards:
            for line in shard.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn trailing line from a killed worker
        records.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0),
                                    r.get("seq", 0)))
        merged = self.directory / MERGED
        with open(merged, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        for shard in shards:
            try:
                shard.unlink()
            except OSError:
                pass
        return merged


class RunLogTailer:
    """Incrementally read *new* records from every log under a root.

    ``repro.serve`` streams per-job progress to HTTP clients by polling
    this over the obs directory while the runner works: worker shards
    are flushed per record, so ``job_start``/``job_end`` lines become
    visible mid-run, long before the end-of-run merge.  The tailer
    remembers a byte offset per file (only complete, newline-terminated
    lines are consumed, mirroring the merge's torn-line tolerance) and
    dedups by the ``(ts, pid, seq)`` envelope — the merge step rewrites
    every shard record into ``runlog.jsonl``, and without the dedup a
    late subscriber's history replay would double every event.

    A tracked file that is *replaced* mid-tail (rotated, or rewritten by
    a merge reusing the name) is detected by inode change or size shrink
    and re-read from the start instead of silently going quiet with a
    stale offset; the ``(ts, pid, seq)`` dedup absorbs the re-read of
    records already delivered.
    """

    #: Bound on the dedup window; old keys are forgotten in FIFO order
    #: (a record can only reappear shortly after it was first seen — at
    #: merge time — so a modest window is plenty).
    MAX_SEEN = 65536

    def __init__(self, root: Optional[pathlib.Path] = None):
        self.root = pathlib.Path(root) if root is not None else obs_dir()
        self._offsets: Dict[pathlib.Path, int] = {}
        self._inodes: Dict[pathlib.Path, int] = {}
        self._seen: "OrderedDict[tuple, None]" = OrderedDict()

    def _record_key(self, record: Dict[str, Any]) -> tuple:
        return (record.get("ts"), record.get("pid"), record.get("seq"))

    def poll(self) -> List[Dict[str, Any]]:
        """All records that appeared since the last call, in
        ``(ts, pid, seq)`` order.  Missing/vanished files (shards are
        deleted by the merge) are simply dropped from tracking."""
        records: List[Dict[str, Any]] = []
        if not self.root.is_dir():
            return records
        paths = sorted(self.root.glob("*/*.jsonl"))
        for stale in set(self._offsets) - set(paths):
            del self._offsets[stale]
            self._inodes.pop(stale, None)
        for path in paths:
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as fh:
                    stat = os.fstat(fh.fileno())
                    if (self._inodes.get(path, stat.st_ino) != stat.st_ino
                            or stat.st_size < offset):
                        # Replaced (rotated/merged) or truncated file:
                        # the remembered offset points into the *old*
                        # contents, so restart from the top.  The
                        # (ts, pid, seq) dedup drops any re-read lines.
                        offset = 0
                    self._inodes[path] = stat.st_ino
                    fh.seek(offset)
                    data = fh.read()
            except OSError:
                continue  # deleted between glob and open
            # Only consume complete lines; a torn tail is re-read whole
            # on the next poll once the writer finishes it.
            end = data.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[path] = offset + end + 1
            for line in data[:end].splitlines():
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue
                key = self._record_key(record)
                if key in self._seen:
                    continue
                self._seen[key] = None
                while len(self._seen) > self.MAX_SEEN:
                    self._seen.popitem(last=False)
                records.append(record)
        records.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0),
                                    r.get("seq", 0)))
        return records


def load_runlog(path: pathlib.Path) -> List[Dict[str, Any]]:
    """Read one merged runlog (invalid lines are skipped, not fatal)."""
    records: List[Dict[str, Any]] = []
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records


def list_runs(root: Optional[pathlib.Path] = None) -> List[pathlib.Path]:
    """Merged run directories under ``root``, oldest first."""
    root = pathlib.Path(root) if root is not None else obs_dir()
    if not root.is_dir():
        return []
    runs = [d for d in root.iterdir() if (d / MERGED).is_file()]
    runs.sort(key=lambda d: (d / MERGED).stat().st_mtime)
    return runs
