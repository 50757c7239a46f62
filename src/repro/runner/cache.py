"""Two-level result cache: per-process memo + on-disk store.

Level 1 is a plain dict keyed by job fingerprint, shared by every
experiment in the process, so cross-figure duplicates (the same stride
baseline appears in Fig. 9, Fig. 10d/e, Fig. 13a, ...) are computed
once.  Level 2 persists pickled :class:`JobResult`s under
``benchmarks/.simcache/`` so re-running a bench after an unrelated code
change is near-instant.

Every disk entry carries a sha256 sidecar (``<fp>.pkl.sha256``) written
in the same atomic-replace dance as the pickle; reads verify it, and a
corrupt entry — truncated pickle, digest mismatch, missing sidecar —
is *evicted to a miss* exactly like the checkpoint store handles a bad
``.npz``: the files are removed, the eviction is counted
(``CacheStats.evictions``), a ``warnings.warn`` names the entry, and
the runner surfaces it as a ``cache_evict`` run-log record.  The
``python -m repro.runner cache`` CLI lists/verifies/gc's the store.

Knobs:

* ``REPRO_CACHE=0`` — disable the on-disk level (memo still applies).
* ``REPRO_CACHE_DIR`` — override the cache directory.

The fingerprint covers every job parameter plus a schema version
(:data:`repro.runner.jobs.SCHEMA_VERSION`); it does *not* hash the
simulator source, so bump the schema (or ``clear()`` / delete the
directory) after semantically changing the engine.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..envknobs import env_flag
from .jobs import JobResult

#: Sidecar suffix holding each entry's hex sha256.
DIGEST_SUFFIX = ".sha256"


def cache_enabled() -> bool:
    """The ``REPRO_CACHE`` flag (default on; junk values raise)."""
    return env_flag("REPRO_CACHE", True)


def default_cache_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    # Editable/source checkouts keep the cache next to the bench results.
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / ".simcache"
    return pathlib.Path.home() / ".cache" / "repro-simcache"


class CacheCorrupt(RuntimeError):
    """A disk entry that failed its integrity check (CLI ``verify``)."""


@dataclass
class CacheStats:
    """Hit/miss counters; the bench harness snapshots these."""

    memo_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt disk entries removed on read (each also queues a
    #: ``cache_evict`` run-log record; see ``drain_evictions``).
    evictions: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"memo_hits": self.memo_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores,
                "evictions": self.evictions}


def _atomic_write(directory: pathlib.Path, target: pathlib.Path,
                  blob: bytes) -> None:
    """Write-then-rename so a killed run never leaves a torn file, and
    two processes racing the same target both leave a readable winner
    (``os.replace`` is atomic on one filesystem)."""
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, target)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


class ResultCache:
    """Fingerprint-keyed memo with an optional pickle directory behind it."""

    def __init__(self, directory: Optional[pathlib.Path] = None,
                 persistent: Optional[bool] = None):
        self.persistent = cache_enabled() if persistent is None \
            else persistent
        self.directory = pathlib.Path(directory) if directory \
            else default_cache_dir()
        self.memo: Dict[str, JobResult] = {}
        self.stats = CacheStats()
        self._evicted: List[Dict[str, Any]] = []

    def _path(self, fingerprint: str) -> pathlib.Path:
        return self.directory / f"{fingerprint}.pkl"

    def _digest_path(self, fingerprint: str) -> pathlib.Path:
        return self.directory / f"{fingerprint}.pkl{DIGEST_SUFFIX}"

    # -- integrity -------------------------------------------------------------

    def _read_verified(self, fingerprint: str) -> bytes:
        """The entry's pickle bytes, digest-verified.

        Raises ``FileNotFoundError`` for a plain miss and
        ``CacheCorrupt`` for an entry that exists but cannot be
        trusted (missing sidecar, digest mismatch).
        """
        blob = self._path(fingerprint).read_bytes()
        try:
            expected = self._digest_path(fingerprint) \
                .read_text(encoding="ascii").strip()
        except (FileNotFoundError, UnicodeDecodeError):
            raise CacheCorrupt(
                f"cache entry {fingerprint} has no readable sha256 "
                f"sidecar (pre-integrity entry or torn write)") from None
        actual = hashlib.sha256(blob).hexdigest()
        if actual != expected:
            raise CacheCorrupt(
                f"cache entry {fingerprint} failed its sha256 check "
                f"(expected {expected[:12]}..., got {actual[:12]}...)")
        return blob

    def _evict(self, fingerprint: str, reason: str) -> None:
        """Remove a corrupt entry so it degrades to a recomputable miss."""
        self.stats.evictions += 1
        self._evicted.append({"fingerprint": fingerprint,
                              "reason": reason})
        warnings.warn(
            f"evicting corrupt result-cache entry {fingerprint}: "
            f"{reason}", stacklevel=3)
        for path in (self._path(fingerprint),
                     self._digest_path(fingerprint)):
            try:
                path.unlink()
            except OSError:
                pass

    def drain_evictions(self) -> List[Dict[str, Any]]:
        """Evictions since the last drain (the runner turns these into
        ``cache_evict`` run-log records)."""
        drained, self._evicted = self._evicted, []
        return drained

    # -- the two-level protocol ------------------------------------------------

    def get(self, fingerprint: str) -> Optional[JobResult]:
        hit = self.memo.get(fingerprint)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        if self.persistent:
            try:
                blob = self._read_verified(fingerprint)
            except FileNotFoundError:
                pass  # plain miss
            except CacheCorrupt as exc:
                self._evict(fingerprint, str(exc))
            else:
                try:
                    result = pickle.loads(blob)
                # pickle.loads raises essentially anything on garbage
                # bytes (ValueError, KeyError, ... beyond
                # UnpicklingError) — and a digest-valid entry can still
                # predate a class-layout change.
                except Exception as exc:
                    self._evict(fingerprint,
                                f"failed to unpickle: {exc!r}")
                else:
                    self.memo[fingerprint] = result
                    self.stats.disk_hits += 1
                    return result
        self.stats.misses += 1
        return None

    def put(self, fingerprint: str, result: JobResult) -> None:
        self.memo[fingerprint] = result
        self.stats.stores += 1
        if not self.persistent:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        # Sidecar first: a crash between the two replaces leaves either
        # a dangling sidecar (harmless: the pickle read misses) or a
        # matched pair — never a pickle that fails verification.
        _atomic_write(self.directory, self._digest_path(fingerprint),
                      (digest + "\n").encode("ascii"))
        _atomic_write(self.directory, self._path(fingerprint), blob)

    def clear(self, disk: bool = True) -> None:
        self.memo.clear()
        if disk and self.directory.is_dir():
            shutil.rmtree(self.directory, ignore_errors=True)

    # -- maintenance (the ``python -m repro.runner cache`` CLI) ---------------

    def entries(self) -> List[str]:
        """On-disk fingerprints, oldest first (by mtime, like the
        checkpoint store)."""
        if not self.directory.is_dir():
            return []
        paths = sorted(self.directory.glob("*.pkl"),
                       key=lambda p: (p.stat().st_mtime, p.name))
        return [p.stem for p in paths]

    def verify(self, fingerprint: str) -> int:
        """Integrity-check one entry; returns its size in bytes.

        Raises ``FileNotFoundError`` / ``CacheCorrupt`` without
        evicting — ``verify`` reports, ``get`` repairs.
        """
        return len(self._read_verified(fingerprint))

    def gc(self, keep: int = 0) -> List[str]:
        """Drop all but the ``keep`` most recent entries."""
        victims = self.entries()
        if keep > 0:
            victims = victims[:-keep] if keep < len(victims) else []
        for fingerprint in victims:
            for path in (self._path(fingerprint),
                         self._digest_path(fingerprint)):
                try:
                    path.unlink()
                except OSError:
                    pass
            self.memo.pop(fingerprint, None)
        return victims
