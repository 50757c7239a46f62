"""Shared fixtures: tiny configs and traces so the suite stays fast."""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import pytest

from repro.sim.config import SystemConfig
from repro.sim.trace import TraceBuilder
from repro.store import drain_evictions

# Keep the suite hermetic: never read results persisted by earlier (and
# possibly semantically different) builds.  Cache tests opt back in with
# explicit ResultCache instances.
os.environ.setdefault("REPRO_CACHE", "0")
# Likewise don't litter benchmarks/.obs with run logs from every runner
# test; obs tests opt back in with REPRO_OBS=1 + a tmp REPRO_OBS_DIR.
os.environ.setdefault("REPRO_OBS", "0")
# Every store a test writes without naming a directory lands in one
# throwaway tree, never in benchmarks/: warm-up fingerprints and trace
# keys do not cover simulator or generator source, so a later run could
# otherwise restore a checkpoint or replay a trace an older build wrote.
_STORES = tempfile.mkdtemp(prefix="repro-test-stores-")
atexit.register(shutil.rmtree, _STORES, ignore_errors=True)
for _knob, _name in (("REPRO_CACHE_DIR", "simcache"),
                     ("REPRO_CKPT_DIR", "ckpt"),
                     ("REPRO_OBS_DIR", "obs"),
                     ("REPRO_SAMPLING_DIR", "splans"),
                     ("REPRO_TRACE_DIR", "traces")):
    os.environ.setdefault(_knob, os.path.join(_STORES, _name))


@pytest.fixture(autouse=True)
def _own_evictions():
    """Each test sees only the ``cache_evict`` records its own reads
    queue, not those an earlier test left for a runner batch."""
    drain_evictions()


@pytest.fixture
def tiny_config() -> SystemConfig:
    """1/8-scale hierarchy: big enough to partition, small enough to
    pressure with a few thousand accesses."""
    return SystemConfig().scaled_down(8)


@pytest.fixture
def small_config() -> SystemConfig:
    """The experiments' 1/4-scale hierarchy."""
    return SystemConfig().scaled_down(4)


def chase_trace(name: str = "chase", nodes: int = 4096, n: int = 12288,
                pc: int = 0x400, seed: int = 3, dep: bool = True):
    """A deterministic pointer chase over a fixed permutation."""
    import numpy as np
    rng = np.random.default_rng(seed)
    perm = rng.permutation(nodes)
    base = 0x10000000 + (seed << 32)  # distinct data region per seed
    b = TraceBuilder(name)
    for i in range(n):
        b.add(pc, base + int(perm[i % nodes]) * 64, gap=4, dep=dep)
    return b.build()


@pytest.fixture
def chase():
    return chase_trace()
