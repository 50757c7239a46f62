"""Chunked, mmap-backed, checksummed on-disk trace store.

Layout (one directory per trace, keyed by ``(workload, n, seed)``)::

    <root>/<workload>-n<EXP>-s<SEED>/
        header.json            # format, shape, dtypes, per-file sha256
        c000000.pcs.npy        # chunk 0, one .npy per column
        c000000.addrs.npy
        ...

Chunks are fixed-size (:data:`~repro.tracestream.chunk.CHUNK_RECORDS`
records; the last partial), each column a plain ``.npy`` opened with
``mmap_mode="r"`` on read — so replaying a 100M-access trace touches
O(chunk) resident memory, not O(n).  Everything lands in a temp
directory that is ``os.replace``d into place after the header (written
last) commits the content digests; a racing writer loses cleanly and
adopts the winner.

The root, eviction and maintenance come from :mod:`repro.store`: a
corrupt entry (bad header, wrong version, missing/mis-sized chunk file)
is evicted to a miss on ``get`` — counted, warned about and logged —
while ``verify`` rechecks the full sha256 content digests, which no
open does (rehashing 100M records per open would defeat the store).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import shutil
import tempfile
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..store import Store, StoreCorrupt, check_key, oldest_first, \
    store_dir
from .chunk import (CHUNK_RECORDS, ChunkedSource, TraceChunk,
                    concat_chunks)
from .stages import rechunk

#: On-disk format version; a mismatch is treated as corrupt, never read.
FORMAT_VERSION = 1

_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pcs", "int64"), ("addrs", "int64"), ("writes", "bool"),
    ("gaps", "int32"), ("deps", "bool"))

_KEY_SAFE = re.compile(r"[^A-Za-z0-9._-]")

ENV_DIR = "REPRO_TRACE_DIR"


def default_root() -> pathlib.Path:
    """Store root: ``REPRO_TRACE_DIR`` or ``benchmarks/.traces``."""
    return store_dir("traces", ENV_DIR)


def entry_key(workload: str, n: int, seed: int) -> str:
    """Directory name for one trace (filesystem-safe, collision-free
    for the sane workload names the registry uses)."""
    return f"{_KEY_SAFE.sub('_', workload)}-n{n}-s{seed}"


def _chunk_file(idx: int, column: str) -> str:
    return f"c{idx:06d}.{column}.npy"


def _array_digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class StreamingTrace(ChunkedSource):
    """A :class:`~repro.sim.trace.TraceSource` replaying a store entry.

    Satisfies the same protocol as the in-memory ``Trace`` — ``name``,
    ``len``, ``iter_from`` / ``__iter__``, ``chunk_at``,
    ``instructions`` — but reads columns from mmap'd chunk files,
    keeping resident memory constant in trace length.  It caches
    nothing: ``chunk_at`` maps the files it needs, and the maps close
    when the chunk it returned is dropped, so an idle handle holds no
    open files however it was replayed.
    """

    def __init__(self, directory: pathlib.Path, header: Dict[str, Any]):
        self.directory = pathlib.Path(directory)
        self.header = header
        self.name: str = header["name"]
        self._n: int = header["total"]
        self._chunk: int = header["chunk_records"]
        self._instructions: int = header["instructions"]

    def __len__(self) -> int:
        return self._n

    @property
    def instructions(self) -> int:
        """Total retired instructions (precomputed at write time)."""
        return self._instructions

    def _map(self, idx: int) -> TraceChunk:
        return TraceChunk(*(np.load(self.directory / _chunk_file(idx, name),
                                    mmap_mode="r", allow_pickle=False)
                            for name, _ in _COLUMNS))

    def chunk_at(self, start: int, stop: int) -> TraceChunk:
        """Columnar view of records ``[start, stop)`` (bounded copies
        only when the window crosses a chunk-file boundary)."""
        if not 0 <= start <= stop <= self._n:
            raise IndexError(f"window [{start}, {stop}) outside trace "
                             f"of {self._n} records")
        parts: List[TraceChunk] = []
        pos = start
        while pos < stop:
            idx = pos // self._chunk
            base = idx * self._chunk
            hi = min(stop - base, self._chunk)
            parts.append(self._map(idx).slice(pos - base, hi))
            pos = base + hi
        return concat_chunks(parts)


class TraceStore(Store):
    """Keyed persistence for generated traces.

    ``get`` returns a :class:`StreamingTrace` (or None); ``put`` drains
    a chunk stream to disk; ``get_or_create`` wires the two together
    around a generator callable.  ``hits``/``misses`` count ``get``
    outcomes for the runner's cache-effectiveness records.
    """

    def __init__(self, root: Optional[pathlib.Path] = None,
                 chunk_records: int = CHUNK_RECORDS):
        super().__init__("traces", pathlib.Path(root) if root is not None
                         else default_root())
        self.chunk_records = chunk_records
        self.hits = 0
        self.misses = 0

    # -- lookup ------------------------------------------------------------

    def path_for(self, workload: str, n: int, seed: int) -> pathlib.Path:
        return self.directory / entry_key(workload, n, seed)

    def has(self, workload: str, n: int, seed: int) -> bool:
        return (self.path_for(workload, n, seed) / "header.json").is_file()

    def get(self, workload: str, n: int, seed: int
            ) -> Optional[StreamingTrace]:
        key = entry_key(workload, n, seed)
        try:
            trace = self._open(self.directory / key)
        except StoreCorrupt as exc:
            # Clear the slot so the next put() can regenerate it.
            self.evict(key, str(exc))
            trace = None
        if trace is None:
            self.misses += 1
        else:
            self.hits += 1
        return trace

    def _open(self, directory: pathlib.Path) -> Optional[StreamingTrace]:
        header_path = directory / "header.json"
        if not header_path.is_file():
            return None
        try:
            header = json.loads(header_path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            raise StoreCorrupt(f"{header_path}: unreadable "
                               f"({exc})") from exc
        if not isinstance(header, dict) \
                or header.get("format") != FORMAT_VERSION:
            raise StoreCorrupt(f"{header_path}: not a format-"
                               f"{FORMAT_VERSION} trace header")
        for key in ("name", "total", "chunk_records", "num_chunks",
                    "instructions", "digests", "sizes"):
            if key not in header:
                raise StoreCorrupt(f"{header_path}: missing {key!r}")
        # Cheap structural check on open: every chunk file must exist
        # at its recorded byte size — catches truncation from a torn
        # copy or full disk with O(files) stats.
        for fname, want_bytes in header["sizes"].items():
            path = directory / fname
            try:
                size = path.stat().st_size
            except OSError:
                raise StoreCorrupt(
                    f"{directory}: missing {fname}") from None
            if size != want_bytes:
                raise StoreCorrupt(
                    f"{path}: {size} bytes, expected {want_bytes}")
        return StreamingTrace(directory, header)

    # -- write -------------------------------------------------------------

    def put(self, workload: str, n: int, seed: int,
            stream: Iterable[TraceChunk],
            name: Optional[str] = None) -> StreamingTrace:
        """Drain ``stream`` to a new entry (atomic; constant memory).

        A concurrent writer of the same key wins or loses atomically;
        either way the caller gets a readable entry back.
        """
        key = entry_key(workload, n, seed)
        final = self.directory / key
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = pathlib.Path(tempfile.mkdtemp(
            dir=self.directory, prefix=f".{key}.", suffix=".tmp"))
        try:
            digests: Dict[str, str] = {}
            sizes: Dict[str, int] = {}
            total = 0
            instructions = 0
            idx = 0
            for item in rechunk(stream, self.chunk_records):
                for col, dtype in _COLUMNS:
                    arr = np.ascontiguousarray(getattr(item, col))
                    if str(arr.dtype) != dtype:
                        raise ValueError(
                            f"chunk column {col!r} has dtype "
                            f"{arr.dtype}, expected {dtype}")
                    fname = _chunk_file(idx, col)
                    np.save(tmp / fname, arr, allow_pickle=False)
                    digests[fname] = _array_digest(arr)
                    sizes[fname] = (tmp / fname).stat().st_size
                total += len(item)
                instructions += int(item.gaps.sum(dtype=np.int64))
                idx += 1
            if total != n:
                raise ValueError(
                    f"stream for {workload!r} produced {total} records, "
                    f"expected {n}")
            header = {
                "format": FORMAT_VERSION,
                "name": name if name is not None else workload,
                "workload": workload,
                "n": n,
                "seed": seed,
                "total": total,
                "instructions": instructions + total,
                "chunk_records": self.chunk_records,
                "num_chunks": idx,
                "columns": {c: d for c, d in _COLUMNS},
                "digests": digests,
                "sizes": sizes,
            }
            blob = json.dumps(header, indent=1, sort_keys=True)
            (tmp / "header.json").write_text(blob, encoding="utf-8")
            try:
                os.replace(tmp, final)
            except OSError:
                # A racing writer committed first; adopt its entry.
                shutil.rmtree(tmp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        trace = self._open(final)
        assert trace is not None
        return trace

    def get_or_create(self, workload: str, n: int, seed: int,
                      generate) -> StreamingTrace:
        """``get``, falling back to ``put(generate())`` on a miss."""
        trace = self.get(workload, n, seed)
        if trace is None:
            trace = self.put(workload, n, seed, generate())
        return trace

    # -- maintenance (``python -m repro store traces ...``) ----------------

    def entries(self) -> List[str]:
        if not self.directory.is_dir():
            return []
        return [d.name for d in oldest_first(
            d for d in self.directory.iterdir()
            if d.is_dir() and not d.name.startswith("."))]

    def remove(self, key: str) -> bool:
        directory = self.directory / check_key(key)
        if not directory.is_dir():
            return False
        shutil.rmtree(directory, ignore_errors=True)
        return True

    def verify(self, key: str) -> int:
        """Full content check of one entry: every chunk file against
        its header digest.  Returns the entry's size in bytes."""
        directory = self.directory / check_key(key)
        trace = self._open(directory)
        if trace is None:
            raise FileNotFoundError(str(directory / "header.json"))
        defects: List[str] = []
        total = 0
        size = 0
        for idx in range(trace.header["num_chunks"]):
            for col, _ in _COLUMNS:
                fname = _chunk_file(idx, col)
                want = trace.header["digests"].get(fname)
                if want is None:
                    defects.append(f"{fname}: not in header digests")
                    continue
                try:
                    arr = np.load(directory / fname, mmap_mode="r",
                                  allow_pickle=False)
                except (OSError, ValueError) as exc:
                    defects.append(f"{fname}: unreadable ({exc})")
                    continue
                if _array_digest(arr) != want:
                    defects.append(f"{fname}: checksum mismatch")
                if col == "pcs":
                    total += len(arr)
                size += trace.header["sizes"].get(fname, 0)
        if total != trace.header["total"]:
            defects.append(f"{total} records on disk, header says "
                           f"{trace.header['total']}")
        if defects:
            raise StoreCorrupt("; ".join(defects))
        return size

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

