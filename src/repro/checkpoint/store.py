"""Content-addressed checkpoint store under ``benchmarks/.ckpt``.

Entries are keyed by fingerprint strings (the runner's warmup
fingerprint for shared warm-up snapshots, ``p-<job fingerprint>`` for
periodic progress marks) and stored as one ``.npz`` file each via
:mod:`repro.checkpoint.serialize` — atomic write-then-rename on the way
in, checksum verification on the way out.  A corrupt entry is warned
about, unlinked, and reported as a miss, so a damaged store degrades to
re-simulation, never to a crashed sweep.

Knobs (mirroring the result cache):

* ``REPRO_CKPT=0``     — disable checkpointing entirely.
* ``REPRO_CKPT_DIR``   — override the store directory.
* ``REPRO_CKPT_MARK``  — measured-region steps between periodic
  progress marks (0, the default, disables marks).
"""

from __future__ import annotations

import os
import pathlib
import re
import warnings
from typing import Any, Dict, List, Optional, Tuple

from ..envknobs import env_flag
from .serialize import CheckpointCorrupt, dump, load

_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def checkpoint_enabled() -> bool:
    """The ``REPRO_CKPT`` flag (default on; junk values raise)."""
    return env_flag("REPRO_CKPT", True)


def mark_interval() -> int:
    """Steps between progress marks from ``REPRO_CKPT_MARK`` (0 = off)."""
    raw = os.environ.get("REPRO_CKPT_MARK", "")
    if not raw:
        return 0
    try:
        every = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_CKPT_MARK must be an integer, got {raw!r}") from None
    if every < 0:
        raise ValueError(f"REPRO_CKPT_MARK must be >= 0, got {every}")
    return every


def default_ckpt_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_CKPT_DIR")
    if override:
        return pathlib.Path(override)
    # Editable/source checkouts keep checkpoints next to the sim cache.
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / ".ckpt"
    return pathlib.Path.home() / ".cache" / "repro-ckpt"


class CheckpointStore:
    """Fingerprint-keyed directory of checkpoint archives."""

    def __init__(self, directory: Optional[pathlib.Path] = None):
        self.directory = pathlib.Path(directory) if directory \
            else default_ckpt_dir()

    def path(self, key: str) -> pathlib.Path:
        if not _KEY_RE.match(key):
            raise ValueError(f"bad checkpoint key {key!r}")
        return self.directory / f"{key}.npz"

    def has(self, key: str) -> bool:
        return self.path(key).is_file()

    def put(self, key: str, state: Any, meta: Dict[str, Any]) -> None:
        dump(str(self.path(key)), state, meta)

    def get(self, key: str) -> Optional[Any]:
        """The stored state tree, or None on miss *or* corruption."""
        loaded = self.get_with_meta(key)
        return None if loaded is None else loaded[1]

    def get_with_meta(self, key: str
                      ) -> Optional[Tuple[Dict[str, Any], Any]]:
        path = self.path(key)
        if not path.is_file():
            return None
        try:
            return load(str(path))
        except CheckpointCorrupt as exc:
            warnings.warn(f"discarding corrupt checkpoint: {exc}",
                          stacklevel=2)
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def remove(self, key: str) -> bool:
        path = self.path(key)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def entries(self) -> List[str]:
        """Stored keys, oldest file first."""
        if not self.directory.is_dir():
            return []
        paths = sorted(self.directory.glob("*.npz"),
                       key=lambda p: p.stat().st_mtime)
        return [p.stem for p in paths]

    def verify(self, key: str) -> Dict[str, Any]:
        """Fully load + checksum one entry; raises CheckpointCorrupt."""
        path = self.path(key)
        if not path.is_file():
            raise FileNotFoundError(str(path))
        meta, _ = load(str(path))
        return meta

    def gc(self, keep: int = 0) -> List[str]:
        """Drop all but the ``keep`` most-recent entries; return dropped."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        victims = self.entries()
        victims = victims[:len(victims) - keep] if keep else victims
        for key in victims:
            self.remove(key)
        return victims


_store: Optional[CheckpointStore] = None


def get_store() -> CheckpointStore:
    """Process-wide store on the default (or env-overridden) directory."""
    global _store
    if _store is None or _store.directory != default_ckpt_dir():
        _store = CheckpointStore()
    return _store
