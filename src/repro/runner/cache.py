"""Two-level result cache: per-process memo + on-disk store.

Level 1 is a plain dict keyed by job fingerprint, shared by every
experiment in the process, so cross-figure duplicates (the same stride
baseline appears in Fig. 9, Fig. 10d/e, Fig. 13a, ...) are computed
once.  Level 2 persists pickled :class:`JobResult`s in a
:class:`repro.store.BlobStore` under ``benchmarks/.simcache/``, so
re-running a bench after an unrelated code change is near-instant.
The store digest-checks every read and evicts a corrupt entry to a
miss (counted in ``CacheStats.evictions``, warned about, and logged as
a ``cache_evict`` run-log record); ``python -m repro.store results``
lists, verifies and garbage-collects it.

Knobs:

* ``REPRO_CACHE=0`` — disable the on-disk level (memo still applies).
* ``REPRO_CACHE_DIR`` — override the cache directory.

The fingerprint covers every job parameter plus a schema version
(:data:`repro.runner.jobs.SCHEMA_VERSION`); it does *not* hash the
simulator source, so bump the schema (or ``clear()`` / delete the
directory) after semantically changing the engine.
"""

from __future__ import annotations

import pathlib
import pickle
import shutil
from dataclasses import dataclass
from typing import Dict, Optional

from ..envknobs import env_flag
from ..store import BlobStore, store_dir
from .jobs import JobResult


def cache_enabled() -> bool:
    """The ``REPRO_CACHE`` flag (default on; junk values raise)."""
    return env_flag("REPRO_CACHE", True)


@dataclass
class CacheStats:
    """Hit/miss counters; the bench harness snapshots these."""

    memo_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt disk entries removed on read.
    evictions: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"memo_hits": self.memo_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores,
                "evictions": self.evictions}


class ResultCache(BlobStore):
    """Fingerprint-keyed memo with an optional pickle store behind it."""

    def __init__(self, directory: Optional[pathlib.Path] = None,
                 persistent: Optional[bool] = None):
        super().__init__("results", pathlib.Path(directory) if directory
                         else store_dir("simcache", "REPRO_CACHE_DIR"))
        self.persistent = cache_enabled() if persistent is None \
            else persistent
        self.memo: Dict[str, JobResult] = {}
        self.stats = CacheStats()

    def decode(self, payload: bytes) -> JobResult:
        # A digest-valid entry can still predate a class-layout change;
        # whatever pickle raises then evicts the entry.
        return pickle.loads(payload)

    def evict(self, key: str, reason: str) -> None:
        self.stats.evictions += 1
        super().evict(key, reason)

    def get(self, fingerprint: str) -> Optional[JobResult]:
        hit = self.memo.get(fingerprint)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        if self.persistent:
            result = self.load(fingerprint)
            if result is not None:
                self.memo[fingerprint] = result
                self.stats.disk_hits += 1
                return result
        self.stats.misses += 1
        return None

    def put(self, fingerprint: str, result: JobResult) -> None:
        self.memo[fingerprint] = result
        self.stats.stores += 1
        if self.persistent:
            self.write(fingerprint, pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL))

    def clear(self, disk: bool = True) -> None:
        self.memo.clear()
        if disk and self.directory.is_dir():
            shutil.rmtree(self.directory, ignore_errors=True)
