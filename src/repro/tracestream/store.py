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
O(chunk) resident memory, not O(n).  Writes are atomic in the
checkpoint-store style: everything lands in a temp directory that is
``os.replace``d into place after the header (written last) commits the
content digests; a racing writer loses cleanly and adopts the winner.
A corrupt entry (bad header, wrong version, missing/mis-sized chunk
file) degrades to a store miss; ``verify`` rechecks full sha256 content
digests, ``gc`` removes entries that fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import shutil
import tempfile
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..envknobs import env_dir
from .chunk import CHUNK_RECORDS, StreamItem, TraceChunk
from . import stages

#: On-disk format version; a mismatch is treated as a miss, never read.
FORMAT_VERSION = 1

_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pcs", "int64"), ("addrs", "int64"), ("writes", "bool"),
    ("gaps", "int32"), ("deps", "bool"))

_KEY_SAFE = re.compile(r"[^A-Za-z0-9._-]")

ENV_DIR = "REPRO_TRACE_DIR"


class TraceStoreCorrupt(RuntimeError):
    """A store entry exists but cannot be trusted or decoded."""


def default_root() -> pathlib.Path:
    """Store root: ``REPRO_TRACE_DIR`` or ``benchmarks/.traces``."""
    override = env_dir(ENV_DIR)
    if override:
        return pathlib.Path(override)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / ".traces"
    return pathlib.Path.home() / ".cache" / "repro-traces"


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


class StreamingTrace:
    """A :class:`~repro.sim.trace.TraceSource` replaying a store entry.

    Satisfies the same protocol as the in-memory ``Trace`` — ``name``,
    ``len``, ``iter_from`` / ``__iter__``, ``chunk_at``,
    ``instructions`` — but reads columns from mmap'd chunk files,
    keeping resident memory constant in trace length.  A two-entry
    chunk cache makes sequential replay touch each file once.
    """

    def __init__(self, directory: pathlib.Path, header: Dict[str, Any]):
        self.directory = pathlib.Path(directory)
        self.header = header
        self.name: str = header["name"]
        self._n: int = header["total"]
        self._chunk: int = header["chunk_records"]
        self._num_chunks: int = header["num_chunks"]
        self._instructions: int = header["instructions"]
        self._cache: "Dict[int, Dict[str, np.ndarray]]" = {}

    def __len__(self) -> int:
        return self._n

    @property
    def instructions(self) -> int:
        """Total retired instructions (precomputed at write time)."""
        return self._instructions

    def _load(self, idx: int) -> Dict[str, np.ndarray]:
        cols = self._cache.get(idx)
        if cols is None:
            cols = {name: np.load(self.directory / _chunk_file(idx, name),
                                  mmap_mode="r", allow_pickle=False)
                    for name, _ in _COLUMNS}
            if len(self._cache) >= 2:  # keep current + lookahead only
                self._cache.pop(next(iter(self._cache)))
            self._cache[idx] = cols
        return cols

    def chunk_at(self, start: int, stop: int) -> TraceChunk:
        """Columnar view of records ``[start, stop)`` (bounded copies
        only when the window crosses a chunk-file boundary)."""
        if not 0 <= start <= stop <= self._n:
            raise IndexError(f"window [{start}, {stop}) outside trace "
                             f"of {self._n} records")
        parts: Dict[str, List[np.ndarray]] = {name: []
                                              for name, _ in _COLUMNS}
        pos = start
        while pos < stop:
            idx = pos // self._chunk
            base = idx * self._chunk
            lo = pos - base
            hi = min(stop - base, self._chunk)
            cols = self._load(idx)
            for name, _ in _COLUMNS:
                parts[name].append(cols[name][lo:hi])
            pos = base + hi
        merged = {name: (p[0] if len(p) == 1 else np.concatenate(p))
                  if p else np.empty(0, dtype=dt)
                  for (name, dt), p in zip(_COLUMNS, parts.values())}
        return TraceChunk(merged["pcs"], merged["addrs"],
                          merged["writes"], merged["gaps"],
                          merged["deps"])

    def iter_chunks(self, start: int = 0) -> Iterator[TraceChunk]:
        return stages.chunks_of(self, start, self._chunk)

    def iter_from(self, start: int):
        """Record tuples from ``start`` — the same values, in the same
        Python types, as the in-memory ``Trace.iter_from``."""
        return stages.records(self.iter_chunks(start))

    def __iter__(self):
        return self.iter_from(0)


class TraceStore:
    """Keyed persistence for generated traces.

    ``get`` returns a :class:`StreamingTrace` (or None); ``put`` drains
    a chunk stream to disk; ``get_or_create`` wires the two together
    around a generator callable.  ``hits``/``misses`` count ``get``
    outcomes for the runner's cache-effectiveness records.
    """

    def __init__(self, root: Optional[pathlib.Path] = None,
                 chunk_records: int = CHUNK_RECORDS):
        self.root = pathlib.Path(root) if root is not None \
            else default_root()
        self.chunk_records = chunk_records
        self.hits = 0
        self.misses = 0

    # -- lookup ------------------------------------------------------------

    def path_for(self, workload: str, n: int, seed: int) -> pathlib.Path:
        return self.root / entry_key(workload, n, seed)

    def has(self, workload: str, n: int, seed: int) -> bool:
        return (self.path_for(workload, n, seed) / "header.json").is_file()

    def get(self, workload: str, n: int, seed: int
            ) -> Optional[StreamingTrace]:
        directory = self.path_for(workload, n, seed)
        try:
            trace = self._open(directory)
        except TraceStoreCorrupt:
            # Unusable entry: degrade to a miss and clear the slot so
            # the next put() can regenerate it.
            shutil.rmtree(directory, ignore_errors=True)
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
            raise TraceStoreCorrupt(f"{header_path}: unreadable "
                                    f"({exc})") from exc
        if header.get("format") != FORMAT_VERSION:
            raise TraceStoreCorrupt(
                f"{header_path}: format {header.get('format')!r}, "
                f"expected {FORMAT_VERSION}")
        for key in ("name", "total", "chunk_records", "num_chunks",
                    "instructions", "digests", "sizes"):
            if key not in header:
                raise TraceStoreCorrupt(f"{header_path}: missing {key!r}")
        # Cheap structural check on open: every chunk file must exist
        # at its recorded byte size — catches truncation from a torn
        # copy or full disk with O(files) stats.  Full content digests
        # are verify()'s job; rehashing 100M records on every open
        # would defeat the point of the store.
        for fname, want_bytes in header["sizes"].items():
            path = directory / fname
            try:
                size = path.stat().st_size
            except OSError:
                raise TraceStoreCorrupt(
                    f"{directory}: missing {fname}") from None
            if size != want_bytes:
                raise TraceStoreCorrupt(
                    f"{path}: {size} bytes, expected {want_bytes}")
        return StreamingTrace(directory, header)

    # -- write -------------------------------------------------------------

    def put(self, workload: str, n: int, seed: int,
            stream: Iterable[StreamItem],
            name: Optional[str] = None) -> StreamingTrace:
        """Drain ``stream`` to a new entry (atomic; constant memory).

        Marks in the stream are dropped: the store persists data, and
        control metadata is re-inserted on replay.  A concurrent writer
        of the same key wins or loses atomically; either way the caller
        gets a readable entry back.
        """
        final = self.path_for(workload, n, seed)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = pathlib.Path(tempfile.mkdtemp(
            dir=self.root, prefix=f".{entry_key(workload, n, seed)}."))
        try:
            digests: Dict[str, str] = {}
            sizes: Dict[str, int] = {}
            total = 0
            instructions = 0
            idx = 0
            for item in stages.rechunk(stream, self.chunk_records):
                if not isinstance(item, TraceChunk):
                    continue
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

    # -- maintenance -------------------------------------------------------

    def entries(self) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(d for d in self.root.iterdir()
                      if d.is_dir() and not d.name.startswith("."))

    def verify(self, directory: pathlib.Path) -> List[str]:
        """Full content check of one entry; returns defects (empty=ok)."""
        defects: List[str] = []
        try:
            trace = self._open(directory)
        except TraceStoreCorrupt as exc:
            return [str(exc)]
        if trace is None:
            return [f"{directory}: no header"]
        total = 0
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
        if total != trace.header["total"]:
            defects.append(f"{directory}: {total} records on disk, "
                           f"header says {trace.header['total']}")
        return defects

    def gc(self) -> List[pathlib.Path]:
        """Remove entries failing verification (and stale tmp dirs)."""
        removed: List[pathlib.Path] = []
        if not self.root.is_dir():
            return removed
        for stale in self.root.glob(".*.*"):
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
                removed.append(stale)
        for entry in self.entries():
            if self.verify(entry):
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry)
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
