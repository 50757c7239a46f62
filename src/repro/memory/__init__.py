"""Memory-hierarchy substrate: caches, DRAM, replacement, partitioning."""

from .address import BLOCK_SIZE, addr_of, block_of, fold_hash, hash32
from .cache import Cache, CacheStats, Line, Lookup, Victim
from .dram import DRAM, DRAMStats
from .events import EV, EventBus, HierarchyEvent
from .hierarchy import CoreHierarchy, SharedUncore
from .metadata_store import MetadataTraffic, PartitionController
from .replacement import (HawkeyeLitePolicy, LRUPolicy, RandomPolicy,
                          ReplacementPolicy, SRRIPPolicy, make_policy)

__all__ = [
    "BLOCK_SIZE", "addr_of", "block_of", "fold_hash", "hash32",
    "Cache", "CacheStats", "Line", "Lookup", "Victim",
    "DRAM", "DRAMStats",
    "EV", "EventBus", "HierarchyEvent",
    "CoreHierarchy", "SharedUncore",
    "MetadataTraffic", "PartitionController",
    "HawkeyeLitePolicy", "LRUPolicy", "RandomPolicy", "ReplacementPolicy",
    "SRRIPPolicy", "make_policy",
]
