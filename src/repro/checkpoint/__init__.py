"""Checkpoint & resume subsystem.

Snapshot the full simulator state (caches, replacement, DRAM,
prefetcher metadata, per-core timing proxies, telemetry) at the warm-up
boundary or at periodic marks, serialize it pickle-free to ``.npz``
archives kept in digest-checked :mod:`repro.store` entries, and restore
it into a freshly built engine — with the hard invariant that save →
restore → continue is bit-identical to the straight run.  See
DESIGN.md "Checkpoint & resume".
"""

from .protocol import Snapshottable
from .serialize import (CheckpointCorrupt, FORMAT_VERSION, dumps,
                        dumps_size, loads, state_equal)
from .store import (CheckpointStore, checkpoint_enabled, get_store,
                    mark_interval)

__all__ = [
    "Snapshottable",
    "CheckpointCorrupt", "FORMAT_VERSION", "dumps", "dumps_size", "loads",
    "state_equal",
    "CheckpointStore", "checkpoint_enabled", "get_store", "mark_interval",
]
