"""The store layer every on-disk cache shares (``repro.store``).

Four stores sit on it: the result cache, the checkpoint store, the
sampling-plan store and the trace store.  They must behave the same
way: a corrupt entry reads as a miss, is removed, is counted once,
warns once and leaves one ``cache_evict`` run-log record naming the
store; keys are plain names that cannot reach outside the store; and
``python -m repro.store <store> list|verify|gc`` maintains each one.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore, get_store
from repro.obs import runlog
from repro.runner import ResultCache, SimJob
from repro.sampling.plan import (DEFAULT_ERROR_BOUNDS, PlanStore,
                                 Representative, SamplingPlan)
from repro.sim.config import SystemConfig
from repro.store import StoreCorrupt, drain_evictions
from repro.store.__main__ import main
from repro.tracestream.store import TraceStore, entry_key
from repro.workloads import make_chunks

STORES = ("results", "checkpoints", "plans", "traces")
KINDS = ("truncated", "flipped", "foreign")
CFG = dataclasses.replace(SystemConfig().scaled_down(8),
                          warmup_fraction=0.5)


@pytest.fixture(scope="module")
def result():
    return SimJob.single("gap.pr", 1500, CFG, l1="stride").execute()


def _plan(seed: int) -> SamplingPlan:
    return SamplingPlan(
        workload="gap.pr", n=12000, seed=seed, interval=1000,
        warmup=8000, k=2, num_candidates=9, measured_from=2400,
        representatives=[Representative(3000, 0.5, 4),
                         Representative(7000, 0.5, 5)],
        error_bounds=dict(DEFAULT_ERROR_BOUNDS))


def _store(name, directory):
    if name == "results":
        return ResultCache(directory, persistent=True)
    if name == "checkpoints":
        return CheckpointStore(directory)
    if name == "plans":
        return PlanStore(directory)
    return TraceStore(directory, chunk_records=1024)


def _fill(name, store, i, result):
    """Store entry number ``i``; returns (key, read, entry path)."""
    if name == "results":
        key = f"{i:064x}"
        store.put(key, result)
        store.memo.clear()  # read back from disk, not the memo
        return key, lambda: store.get(key), store.path(key)
    if name == "checkpoints":
        key = f"k{i}"
        store.put(key, {"x": np.arange(50 + i)}, {"phase": "test"})
        return key, lambda: store.get(key), store.path(key)
    if name == "plans":
        plan = _plan(i)
        store.put(plan)
        return plan.key, lambda: store.get(plan.key), store.path(plan.key)
    store.put("gap.pr", 3000, i, make_chunks("gap.pr", 3000, i))
    key = entry_key("gap.pr", 3000, i)
    return key, lambda: store.get("gap.pr", 3000, i), store.directory / key


def _corrupt(name, entry, kind):
    if name == "traces":
        # The entry is a directory: damage a chunk, or put a foreign
        # file where its header belongs.
        entry = entry / {"truncated": "c000001.addrs.npy",
                         "flipped": "c000000.gaps.npy",
                         "foreign": "header.json"}[kind]
    raw = bytearray(entry.read_bytes())
    if kind == "truncated":
        entry.write_bytes(bytes(raw[:len(raw) // 2]))
    elif kind == "flipped":
        raw[-1] ^= 0xFF
        entry.write_bytes(bytes(raw))
    else:
        entry.write_bytes(b"this is not a store entry\n")


# -- corruption ------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", STORES)
def test_corrupt_entry_is_evicted_to_a_miss(name, kind, tmp_path, result):
    store = _store(name, tmp_path / name)
    key, read, entry = _fill(name, store, 0, result)
    assert store.verify(key) > 0
    _corrupt(name, entry, kind)
    if name == "traces" and kind == "flipped":
        # The size-checked open cannot see a flipped byte inside a
        # chunk (hashing every chunk per open would defeat the store);
        # the full content check can.
        assert read() is not None
        with pytest.raises(StoreCorrupt, match="checksum mismatch"):
            store.verify(key)
        assert store.gc() == [key]
        assert store.entries() == [] and store.evictions == 0
        return
    with pytest.warns(UserWarning) as caught:
        assert read() is None
    warned = [str(w.message) for w in caught
              if "evicting corrupt" in str(w.message)]
    assert len(warned) == 1
    assert name in warned[0] and key in warned[0]
    assert not entry.exists()
    assert store.evictions == 1
    if name == "results":
        assert store.stats.evictions == 1 and store.stats.misses == 1
    records = drain_evictions()
    assert [(r["store"], r["key"]) for r in records] == [(name, key)]
    # The slot is free again: the next write and read succeed.
    key, read, _ = _fill(name, store, 0, result)
    assert read() is not None


def test_unpicklable_result_is_evicted(tmp_path):
    cache = ResultCache(tmp_path, persistent=True)
    key = "f" * 64
    cache.write(key, b"digest-valid, but not a pickle")
    with pytest.warns(UserWarning, match="payload rejected"):
        assert cache.get(key) is None
    assert cache.stats.evictions == 1 and not cache.has(key)
    assert [r["key"] for r in drain_evictions()] == [key]


def test_plan_under_another_key_is_evicted(tmp_path):
    store = PlanStore(tmp_path)
    store.write("other", json.dumps(_plan(1).to_dict()).encode())
    with pytest.warns(UserWarning, match="keys itself"):
        assert store.get("other") is None
    assert store.evictions == 1 and not store.has("other")
    assert [r["store"] for r in drain_evictions()] == ["plans"]


def test_unloadable_checkpoint_is_evicted(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CKPT", "1")
    job = SimJob.single("gap.pr", 3000, CFG, l1="stride", resume=True)
    key = job.warmup_fingerprint()
    CheckpointStore(tmp_path).put(key, {"not": "an engine"}, {})
    with pytest.warns(UserWarning, match="load_state failed"):
        resumed = job.execute().single
    assert resumed == dataclasses.replace(job, resume=False) \
        .execute().single
    assert get_store().evictions == 1
    assert [(r["store"], r["key"]) for r in drain_evictions()] == \
        [("checkpoints", key)]
    assert get_store().get(key) is not None  # re-recorded


def test_eviction_is_logged_at_once_under_a_writer(tmp_path):
    log = runlog.RunLog("t", tmp_path / "obs" / "t")
    writer = log.parent_writer()
    runlog.install(writer)
    try:
        store = CheckpointStore(tmp_path / "ckpt")
        store.put("k", {"x": 1}, {})
        store.path("k").write_bytes(b"junk")
        with pytest.warns(UserWarning, match="evicting corrupt"):
            assert store.get("k") is None
    finally:
        writer.close()
        runlog.uninstall()
    assert drain_evictions() == []
    records = [r for r in runlog.load_runlog(log.merge())
               if r["event"] == "cache_evict"]
    assert [(r["store"], r["key"]) for r in records] == \
        [("checkpoints", "k")]
    assert "not a store entry" in records[0]["reason"]


# -- keys ------------------------------------------------------------------


@pytest.mark.parametrize("name", STORES)
def test_path_like_keys_are_rejected(name, tmp_path):
    outside = [tmp_path / f"victim{suffix}"
               for suffix in ("", ".entry", ".pkl", ".npz", ".json")]
    for path in outside:
        path.write_bytes(b"keep me")
    store = _store(name, tmp_path / "store")
    for key in ("../victim", "a/b", "", "victim\n"):
        with pytest.raises(ValueError, match="bad store key"):
            store.verify(key)
        with pytest.raises(ValueError, match="bad store key"):
            store.remove(key)
    if name == "results":
        with pytest.raises(ValueError, match="bad store key"):
            store.get("../victim")
    assert all(path.read_bytes() == b"keep me" for path in outside)


# -- the maintenance CLI ---------------------------------------------------


@pytest.mark.parametrize("name", STORES)
def test_cli_list_verify_gc(name, tmp_path, capsys, result):
    directory = tmp_path / name
    store = _store(name, directory)
    keys, entries = [], []
    for i in range(3):
        key, _, entry = _fill(name, store, i, result)
        keys.append(key)
        entries.append(entry)
    argv = [name, "--dir", str(directory)]

    assert main(argv + ["list"]) == 0
    out = capsys.readouterr().out
    assert all(key in out for key in keys) and "KiB" in out
    assert main(argv + ["verify"]) == 0
    assert out.count("CORRUPT") == 0

    # Corrupt the newest entry, then make the age order unambiguous.
    _corrupt(name, entries[2], "flipped")
    for age, entry in enumerate(entries, start=1):
        os.utime(entry, (age, age))
    assert main(argv + ["verify"]) == 1
    assert f"CORRUPT {keys[2]}" in capsys.readouterr().err
    assert main(argv + ["verify", keys[0]]) == 0
    assert main(argv + ["list"]) == 0
    assert "CORRUPT" in capsys.readouterr().out

    (directory / ".stale.tmp").write_bytes(b"torn")
    assert main(argv + ["gc", "--keep", "1"]) == 0
    out = capsys.readouterr().out
    assert ".stale.tmp" in out and keys[0] in out and keys[2] in out
    assert store.entries() == [keys[1]]
    assert main(argv + ["verify"]) == 0
    assert main(argv + ["gc"]) == 0  # nothing left to collect
    assert store.entries() == [keys[1]]
