"""Content-addressed checkpoint store under ``benchmarks/.ckpt``.

Entries are keyed by fingerprint strings (the runner's warmup
fingerprint for shared warm-up snapshots, ``p-<job fingerprint>`` for
periodic progress marks) and kept as :mod:`repro.store` entries, each
holding one :mod:`repro.checkpoint.serialize` archive.  A corrupt entry
— or one whose state the engine refuses to load — is evicted to a miss
(counted, warned about and logged), so a damaged store degrades to
re-simulation, never to a crashed sweep.

Knobs (mirroring the result cache):

* ``REPRO_CKPT=0``     — disable checkpointing entirely.
* ``REPRO_CKPT_DIR``   — override the store directory.
* ``REPRO_CKPT_MARK``  — measured-region steps between periodic
  progress marks (0, the default, disables marks).
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional, Tuple

from ..envknobs import env_flag, env_int
from ..store import BlobStore, store_dir
from .serialize import dumps, loads


def checkpoint_enabled() -> bool:
    """The ``REPRO_CKPT`` flag (default on; junk values raise)."""
    return env_flag("REPRO_CKPT", True)


def mark_interval() -> int:
    """Steps between progress marks from ``REPRO_CKPT_MARK`` (0 = off)."""
    return env_int("REPRO_CKPT_MARK", 0, minimum=0)


def _default_dir() -> pathlib.Path:
    return store_dir("ckpt", "REPRO_CKPT_DIR")


class CheckpointStore(BlobStore):
    """Fingerprint-keyed store of checkpoint archives."""

    def __init__(self, directory: Optional[pathlib.Path] = None):
        super().__init__("checkpoints", pathlib.Path(directory)
                         if directory else _default_dir())

    def decode(self, payload: bytes) -> Tuple[Dict[str, Any], Any]:
        return loads(payload)

    def put(self, key: str, state: Any, meta: Dict[str, Any]) -> None:
        self.write(key, dumps(state, meta))

    def get(self, key: str) -> Optional[Any]:
        """The stored state tree, or None on miss *or* corruption."""
        loaded = self.get_with_meta(key)
        return None if loaded is None else loaded[1]

    def get_with_meta(self, key: str
                      ) -> Optional[Tuple[Dict[str, Any], Any]]:
        return self.load(key)


_store: Optional[CheckpointStore] = None


def get_store() -> CheckpointStore:
    """Process-wide store on the default (or env-overridden) directory."""
    global _store
    if _store is None or _store.directory != _default_dir():
        _store = CheckpointStore()
    return _store
