"""One store layer under every on-disk cache.

The result cache, the checkpoint store, the sampling-plan store and the
trace store all keep reusable state under a directory, and they share
one implementation of the machinery around it:

* **Directories.** :func:`store_dir` resolves a store's root: its
  ``REPRO_*_DIR`` knob if set (validated by
  :func:`repro.envknobs.env_dir`), else ``benchmarks/.<name>`` in a
  source checkout, else ``~/.cache/repro-<name>``.
* **Keys.** Every key must match ``[A-Za-z0-9._-]+`` (:func:`check_key`),
  so no caller can turn a key into a path outside the store.
* **Entries.** :class:`BlobStore` keeps one file per key,
  ``<key>.entry``, holding a header line with the payload's sha256 and
  then the payload.  Writes go through ``mkstemp`` + ``os.replace``, so
  a killed run never leaves a torn entry and racing writers leave a
  readable winner.  Every read checks the digest.
* **Eviction.** A corrupt entry (digest mismatch, torn or foreign file,
  or a payload its codec rejects) is removed and the read is a miss.
  :meth:`Store.evict` counts it, warns naming the store and the key, and
  emits one ``cache_evict`` run-log record — at once when the process
  has a run-log writer, otherwise from the runner's next batch
  (:func:`drain_evictions`).
* **Maintenance.** ``entries`` (oldest first), ``verify`` and ``gc``,
  driven by ``python -m repro.store <store> list|verify|gc``.

The trace store (:class:`repro.tracestream.store.TraceStore`) keeps its
chunked directory layout but subclasses :class:`Store` for everything
else.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import shutil
import tempfile
import warnings
from typing import Any, Dict, Iterable, List, Optional

from ..envknobs import env_dir

#: File suffix of a :class:`BlobStore` entry.  Files any other store
#: layout left behind (``.pkl``, ``.npz``, ``.json``) are never read.
SUFFIX = ".entry"

#: First bytes of every entry; the payload's hex sha256 and a newline
#: follow.
MAGIC = b"repro-store/1 "

_HEADER_LEN = len(MAGIC) + 64 + 1

_KEY_RE = re.compile(r"[A-Za-z0-9._-]+")


class StoreCorrupt(RuntimeError):
    """An entry exists but cannot be trusted or decoded."""


def store_dir(name: str, knob: str) -> pathlib.Path:
    """Root of the store ``name``: ``knob`` if set, else
    ``benchmarks/.<name>`` in a source checkout, else
    ``~/.cache/repro-<name>``."""
    override = env_dir(knob)
    if override:
        return pathlib.Path(override)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / f".{name}"
    return pathlib.Path.home() / ".cache" / f"repro-{name}"


def check_key(key: str) -> str:
    """``key`` itself, or ``ValueError`` if it is not a plain name."""
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
        raise ValueError(f"bad store key {key!r} "
                         f"(allowed: [A-Za-z0-9._-]+)")
    return key


# -- eviction records ----------------------------------------------------------

_pending: List[Dict[str, str]] = []


def drain_evictions() -> List[Dict[str, str]]:
    """``cache_evict`` records of evictions made while no run-log
    writer was installed; the runner emits them with its next batch."""
    drained = list(_pending)
    _pending.clear()
    return drained


def _report(store: str, key: str, reason: str) -> None:
    from ..obs import runlog

    warnings.warn(f"evicting corrupt {store} entry {key}: {reason}")
    record = {"store": store, "key": key, "reason": reason}
    log = runlog.current()
    if log is None:
        _pending.append(record)
    else:
        log.emit("cache_evict", **record)


def oldest_first(paths: Iterable[pathlib.Path]) -> List[pathlib.Path]:
    """``paths`` by modification time, then name (``entries`` order)."""
    stamped = []
    for path in paths:
        try:
            stamped.append((path.stat().st_mtime, path.name, path))
        except OSError:
            continue  # removed since it was listed
    return [path for _, _, path in sorted(stamped)]


def _remove_path(path: pathlib.Path) -> bool:
    try:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
        return True
    except OSError:
        return False


# -- the stores ----------------------------------------------------------------

class Store:
    """Keyed entries under one directory: eviction and maintenance.

    Subclasses define what an entry is (:meth:`entries`,
    :meth:`verify`, :meth:`remove`); temporaries they write while an
    entry is in flight are named ``.*.tmp`` so :meth:`gc` can find
    stale ones.
    """

    def __init__(self, name: str, directory: pathlib.Path):
        self.name = name
        self.directory = pathlib.Path(directory)
        #: Corrupt entries removed on read.
        self.evictions = 0

    def entries(self) -> List[str]:
        """Stored keys, oldest first."""
        raise NotImplementedError

    def verify(self, key: str) -> int:
        """Check one entry in full; its size in bytes.

        Raises ``FileNotFoundError`` for a missing entry and
        :class:`StoreCorrupt` for a corrupt one, without evicting it.
        """
        raise NotImplementedError

    def remove(self, key: str) -> bool:
        raise NotImplementedError

    def evict(self, key: str, reason: str) -> None:
        """Remove a corrupt entry so it degrades to a miss: count it,
        warn, and emit a ``cache_evict`` run-log record."""
        self.evictions += 1
        self.remove(key)
        _report(self.name, key, reason)

    def _temporaries(self) -> List[pathlib.Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(".*.tmp"))

    def gc(self, keep: Optional[int] = None) -> List[str]:
        """Remove stale temporaries and corrupt entries, and with
        ``keep`` all but the ``keep`` most recent entries; returns the
        names removed."""
        if keep is not None and keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        removed = [path.name for path in self._temporaries()
                   if _remove_path(path)]
        sound = []
        for key in self.entries():
            try:
                self.verify(key)
            except (FileNotFoundError, StoreCorrupt):
                self.remove(key)
                removed.append(key)
            else:
                sound.append(key)
        if keep is not None:
            for key in sound[:max(0, len(sound) - keep)]:
                self.remove(key)
                removed.append(key)
        return removed


class BlobStore(Store):
    """One digest-checked file per key.

    A codec subclasses this with its own ``get``/``put`` over
    :meth:`load` and :meth:`write`, and overrides :meth:`decode` to
    turn a payload back into a value; anything ``decode`` raises marks
    the entry corrupt.
    """

    def path(self, key: str) -> pathlib.Path:
        return self.directory / (check_key(key) + SUFFIX)

    def has(self, key: str) -> bool:
        return self.path(key).is_file()

    def decode(self, payload: bytes) -> Any:
        return payload

    def read(self, key: str) -> bytes:
        """The entry's payload, digest-checked.

        Raises ``FileNotFoundError`` for a miss and
        :class:`StoreCorrupt` for an entry that cannot be trusted.
        """
        blob = self.path(key).read_bytes()
        header, payload = blob[:_HEADER_LEN], blob[_HEADER_LEN:]
        if len(header) < _HEADER_LEN or not header.startswith(MAGIC) \
                or not header.endswith(b"\n"):
            raise StoreCorrupt("not a store entry (torn or foreign file)")
        expected = header[len(MAGIC):-1].decode("ascii", "replace")
        actual = hashlib.sha256(payload).hexdigest()
        if actual != expected:
            raise StoreCorrupt(f"sha256 mismatch (expected "
                               f"{expected[:12]}..., got {actual[:12]}...)")
        return payload

    def load(self, key: str) -> Optional[Any]:
        """The decoded entry, or None on a miss *or* a corrupt entry
        (which is evicted)."""
        try:
            payload = self.read(key)
        except FileNotFoundError:
            return None
        except StoreCorrupt as exc:
            self.evict(key, str(exc))
            return None
        try:
            return self.decode(payload)
        # Decoders raise essentially anything on bad bytes (pickle alone
        # raises ValueError, KeyError, ... beyond UnpicklingError).
        except Exception as exc:
            self.evict(key, f"payload rejected: {exc!r}")
            return None

    def write(self, key: str, payload: bytes) -> None:
        """Atomically store ``payload`` under ``key``."""
        target = self.path(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(hashlib.sha256(payload).hexdigest()
                         .encode("ascii") + b"\n")
                fh.write(payload)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def remove(self, key: str) -> bool:
        try:
            self.path(key).unlink()
            return True
        except OSError:
            return False

    def entries(self) -> List[str]:
        if not self.directory.is_dir():
            return []
        return [path.name[:-len(SUFFIX)] for path in
                oldest_first(self.directory.glob("*" + SUFFIX))]

    def verify(self, key: str) -> int:
        payload = self.read(key)
        try:
            self.decode(payload)
        except Exception as exc:
            raise StoreCorrupt(f"payload rejected: {exc!r}") from exc
        return len(payload)


__all__ = ["BlobStore", "MAGIC", "SUFFIX", "Store", "StoreCorrupt",
           "check_key", "drain_evictions", "oldest_first", "store_dir"]
