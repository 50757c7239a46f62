"""Checkpoint subsystem: serializer, store, and save→restore identity.

The non-negotiable invariant (DESIGN.md "Checkpoint & resume"): a run
that snapshots at the warm-up boundary (or any later progress mark) and
restores into a fresh engine continues **bit-identically** — same
``SimResult``, same bus counters, same telemetry series — as the run
that never stopped.  These tests assert it for every registered
prefetcher, every replacement policy, single- and multi-core engines,
and the runner's resume/prewarm paths, plus corruption fallback.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.checkpoint import (CheckpointStore, dumps, dumps_size, loads,
                              state_equal)
from repro.core.replacement import StoredEntry, make_stream_replacement
from repro.core.stream_entry import StreamEntry
from repro.memory.replacement import POLICIES, make_policy
from repro.runner import SimJob, SimRunner
from repro.runner.cache import ResultCache
from repro.runner.specs import _REGISTRY, spec
from repro.runner.traces import get_trace
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.multicore import MulticoreResult, build_multicore
from repro.telemetry.config import TelemetryConfig

PREFETCHERS = sorted(_REGISTRY)


def small_engine(prefetcher: str, workload: str = "gap.pr",
                 n: int = 8000, warmup: float = 0.5,
                 telemetry=None) -> Engine:
    config = dataclasses.replace(
        SystemConfig().scaled_down(4).scaled(num_cores=1),
        warmup_fraction=warmup, telemetry=telemetry)
    trace = get_trace(workload, n, 42)
    return Engine([trace], config, l2_prefetchers=[spec(prefetcher).build])


# -- serializer ------------------------------------------------------------


def test_serializer_roundtrip():
    state = {
        "ints": [1, -2, 3],
        "mixed": [None, True, False, 1.5, "s"],
        "nested": {"a": {"b": [np.arange(6, dtype=np.int64)]}},
        "arr2d": np.zeros((3, 4), dtype=bool),
        "tuple": (1, 2),
    }
    meta, loaded = loads(dumps(state, {"phase": "test"}))
    assert meta == {"phase": "test"}
    assert state_equal(state, loaded)
    # Tuples come back as lists — state_equal treats them as equal.
    assert loaded["tuple"] == [1, 2]
    assert dumps_size(state) > 0


def test_serializer_rejects_bad_trees():
    with pytest.raises(TypeError):
        dumps({1: "non-string key"}, {})
    with pytest.raises(TypeError):
        dumps({"__nd__": 0}, {})
    with pytest.raises(TypeError):
        dumps({"obj": object()}, {})


def test_state_equal_semantics():
    assert state_equal((1, 2), [1, 2])
    assert not state_equal(True, 1)          # bool is not int here
    assert not state_equal(np.arange(3), np.arange(3, dtype=np.int32))
    assert state_equal({"a": np.arange(3)}, {"a": np.arange(3)})
    assert not state_equal({"a": 1}, {"b": 1})


# -- store ----------------------------------------------------------------


def test_store_roundtrip_and_gc(tmp_path):
    store = CheckpointStore(tmp_path)
    store.put("k1", {"x": 1}, {"phase": "warmup"})
    store.put("k2", {"y": 2}, {"phase": "progress"})
    assert store.has("k1")
    assert store.get("missing") is None
    meta, state = store.get_with_meta("k1")
    assert meta["phase"] == "warmup" and state == {"x": 1}
    assert store.verify("k2") > 0
    assert set(store.entries()) == {"k1", "k2"}
    dropped = store.gc(keep=1)
    assert len(dropped) == 1 and len(store.entries()) == 1


def test_store_rejects_bad_keys(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(ValueError):
        store.path("../escape")
    with pytest.raises(ValueError):
        store.path("a/b")


# -- component round-trips -------------------------------------------------


@pytest.mark.parametrize("name", PREFETCHERS)
def test_prefetcher_state_roundtrip(name):
    """Mid-run prefetcher state survives self- and npz round-trips."""
    engine = small_engine(name)
    engine.run_warmup()
    snap = engine.state_dict()
    _, loaded = loads(dumps(snap, {}))
    assert state_equal(snap, loaded)

    fresh = small_engine(name)
    fresh.load_state(loaded)
    for pf, restored_pf in zip(engine.prefetchers, fresh.prefetchers):
        assert state_equal(pf.state_dict(), restored_pf.state_dict())


@pytest.mark.parametrize("name", PREFETCHERS)
def test_prefetcher_resume_bit_identity(name):
    """Restored engine finishes with the exact straight-run SimResult."""
    straight = small_engine(name).run().collect()[0]
    warm = small_engine(name)
    warm.run_warmup()
    resumed_engine = small_engine(name)
    resumed_engine.load_state(warm.state_dict())
    assert resumed_engine.run().collect()[0] == straight


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_cache_policy_roundtrip(name):
    """Replacement policies continue identically after a round-trip."""
    sets, ways = 8, 4

    def drive(policy, start, steps):
        victims = []
        for i in range(start, start + steps):
            set_idx = i % sets
            policy.on_fill(set_idx, i % ways, blk=i * 7, pc=i % 13)
            if i % 3 == 0:
                policy.on_hit(set_idx, (i // 3) % ways)
            victims.append(policy.victim(set_idx, ways))
        return victims

    a = make_policy(name, sets, ways)
    drive(a, 0, 200)
    b = make_policy(name, sets, ways)
    b.load_state(a.state_dict())
    assert state_equal(a.state_dict(), b.state_dict())
    assert drive(a, 200, 100) == drive(b, 200, 100)
    assert state_equal(a.state_dict(), b.state_dict())


@pytest.mark.parametrize("name", ["srrip", "tp-mockingjay"])
def test_stream_replacement_roundtrip(name):
    def drive(policy, pools, start, steps):
        victims = []
        for i in range(start, start + steps):
            set_idx = i % len(pools)
            pool = pools[set_idx]
            entry = StreamEntry(i * 5, 4, [i * 5 + 1], pc=i % 7)
            stored = StoredEntry(entry)
            policy.observe_correlation(set_idx, i, entry.trigger,
                                       entry.targets[0], entry.pc)
            policy.on_insert(set_idx, i, stored)
            pool.append(stored)
            if len(pool) > 4:
                victim = policy.victim(set_idx, i, pool)
                victims.append((victim.entry.trigger, victim.rrpv))
                pool.remove(victim)
            policy.on_access(set_idx, i, pool[0])
        return victims

    a = make_stream_replacement(name)
    pools_a = [[] for _ in range(4)]
    drive(a, pools_a, 0, 120)
    b = make_stream_replacement(name)
    b.load_state(a.state_dict())
    # Per-entry state (rrpv/pred_level) lives in StoredEntry: clone pools.
    pools_b = [[StoredEntry(s.entry.copy(), s.rrpv, s.pred_level,
                            s.inserted_clock) for s in pool]
               for pool in pools_a]
    assert state_equal(a.state_dict(), b.state_dict())
    assert drive(a, pools_a, 120, 80) == drive(b, pools_b, 120, 80)
    assert state_equal(a.state_dict(), b.state_dict())


# -- engine-level identity -------------------------------------------------


@pytest.mark.parametrize("workload", ["gap.pr", "gap.bfs", "06.mcf"])
@pytest.mark.parametrize("prefetcher", ["streamline", "triangel"])
def test_engine_resume_matrix(workload, prefetcher):
    """The acceptance matrix: ≥3 workloads × 2 prefetchers, all exact."""
    straight_engine = small_engine(prefetcher, workload)
    straight = straight_engine.run().collect()[0]
    events = straight_engine.bus.counts_flat()

    warm = small_engine(prefetcher, workload)
    warm.run_warmup()
    resumed_engine = small_engine(prefetcher, workload)
    resumed_engine.load_state(warm.state_dict())
    resumed = resumed_engine.run().collect()[0]
    assert resumed == straight
    # Bus conservation counters must match too, not just the SimResult.
    assert resumed_engine.bus.counts_flat() == events


def test_engine_mark_resume_bit_identity():
    """Resume from a mid-measured-region progress mark, not just warmup."""
    marks = []
    straight_engine = small_engine("streamline")
    straight_engine.set_mark_hook(1000, lambda e: marks.append(
        e.state_dict()))
    straight = straight_engine.run().collect()[0]
    assert len(marks) >= 2
    resumed_engine = small_engine("streamline")
    resumed_engine.load_state(marks[-1])
    assert resumed_engine.run().collect()[0] == straight


def test_multicore_resume_bit_identity():
    def build():
        config = dataclasses.replace(
            SystemConfig().scaled_down(4).scaled(num_cores=2),
            warmup_fraction=0.5)
        traces = [get_trace("gap.pr", 5000, 42),
                  get_trace("06.mcf", 5000, 42)]
        return build_multicore(traces, config,
                               l2_prefetchers=[spec("streamline").build])

    straight = MulticoreResult(cores=build().run().collect())
    warm = build()
    warm.run_warmup()
    resumed_engine = build()
    resumed_engine.load_state(warm.state_dict())
    assert MulticoreResult(cores=resumed_engine.run().collect()) \
        == straight


def test_telemetry_series_identical_across_resume():
    tel = TelemetryConfig()
    straight_engine = small_engine("streamline", telemetry=tel)
    straight_engine.run()
    straight_export = straight_engine.telemetry.export()
    straight = straight_engine.collect()[0]

    warm = small_engine("streamline", telemetry=tel)
    warm.run_warmup()
    resumed_engine = small_engine("streamline", telemetry=tel)
    resumed_engine.load_state(warm.state_dict())
    resumed_engine.run()
    assert resumed_engine.telemetry.export() == straight_export
    assert resumed_engine.collect()[0] == straight

    # A telemetry-off snapshot restores into a telemetry-on engine
    # (observers are bit-neutral, so warm-ups are shared across them).
    warm_off = small_engine("streamline")
    warm_off.run_warmup()
    cross = small_engine("streamline", telemetry=tel)
    cross.load_state(warm_off.state_dict())
    cross.run()
    assert cross.telemetry.export() == straight_export
    assert cross.collect()[0] == straight


def test_load_state_validates_shape():
    warm = small_engine("streamline")
    warm.run_warmup()
    snap = warm.state_dict()
    mismatched = small_engine("triangel")
    with pytest.raises(ValueError, match="prefetchers"):
        mismatched.load_state(snap)
    stale = small_engine("streamline")
    stale.run_warmup()
    with pytest.raises(RuntimeError, match="fresh"):
        stale.load_state(snap)


# -- runner integration ----------------------------------------------------


def run_config():
    return dataclasses.replace(
        SystemConfig().scaled_down(4), warmup_fraction=0.5)


def test_job_resume_and_overrides_bit_identity(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CKPT", "1")

    def job(degree, resume):
        # Fixed-degree streamline so the override changes behaviour even
        # at this tiny scale (the stability controller would sit at
        # degree 1 for the whole short run).
        return SimJob.single(
            "gap.pr", 8000, run_config(),
            l2=[spec("streamline", stability_degree=False)],
            measure_overrides=(("degree", degree),), resume=resume)

    straight = {d: job(d, False).execute().single for d in (1, 4)}
    assert straight[1] != straight[4]  # the override really bites
    store = CheckpointStore(tmp_path)
    assert store.entries() == []  # resume=False never touches the store

    first = job(1, True).execute().single       # records the warm-up
    assert len(store.entries()) == 1
    second = job(4, True).execute().single      # restores it
    assert first == straight[1]
    assert second == straight[4]


def test_job_fingerprints():
    base = SimJob.single("gap.pr", 8000, run_config(), l2=["streamline"])
    j1 = dataclasses.replace(base, measure_overrides=(("degree", 1),))
    j4 = dataclasses.replace(base, measure_overrides=(("degree", 4),))
    # Overrides: distinct results, shared warm-up.
    assert j1.fingerprint() != j4.fingerprint()
    assert j1.warmup_fingerprint() == j4.warmup_fingerprint()
    # resume is pure execution strategy: same result identity.
    assert dataclasses.replace(j1, resume=True).fingerprint() \
        == j1.fingerprint()
    # Different workload/seed: different warm-up.
    other = SimJob.single("gap.bfs", 8000, run_config(),
                          l2=["streamline"])
    assert other.warmup_fingerprint() != base.warmup_fingerprint()
    assert dataclasses.replace(base, seed=7).warmup_fingerprint() \
        != base.warmup_fingerprint()


def test_job_progress_mark_resume(tmp_path, monkeypatch):
    """An interrupted job restarts from its last progress mark."""
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CKPT", "1")
    monkeypatch.setenv("REPRO_CKPT_MARK", "1000")
    job = SimJob.single("gap.pr", 8000, run_config(), l2=["streamline"],
                        resume=True)
    straight = job.execute().single
    store = CheckpointStore(tmp_path)
    # Completion removed the progress entry; the warm-up one remains.
    assert [k for k in store.entries() if k.startswith("p-")] == []

    # Fake an interruption: plant a mid-run progress state, then rerun.
    marks = []
    engine = SimJob.single("gap.pr", 8000, run_config(),
                           l2=["streamline"])._build_engine()
    engine.set_mark_hook(1000, lambda e: marks.append(e.state_dict()))
    engine.run()
    store.put("p-" + job.fingerprint(), marks[-1],
              {"phase": "progress"})
    assert job.execute().single == straight
    assert [k for k in store.entries() if k.startswith("p-")] == []


def test_job_corrupt_checkpoint_falls_back(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CKPT", "1")
    job = SimJob.single("gap.pr", 8000, run_config(), l2=["streamline"],
                        resume=True)
    straight = job.execute().single
    store = CheckpointStore(tmp_path)
    key = job.warmup_fingerprint()
    assert store.has(key)
    store.path(key).write_bytes(b"garbage")
    with pytest.warns(UserWarning, match="corrupt"):
        assert job.execute().single == straight
    assert store.has(key)  # re-recorded after the fallback re-simulation


def test_ckpt_disabled_skips_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CKPT", "0")
    job = SimJob.single("gap.pr", 6000, run_config(), l2=["stride"],
                        resume=True)
    job.execute()
    assert CheckpointStore(tmp_path).entries() == []


def test_ckpt_flag_is_validated(monkeypatch):
    from repro.checkpoint import checkpoint_enabled
    monkeypatch.setenv("REPRO_CKPT", "")
    assert checkpoint_enabled()  # empty means the default, on
    monkeypatch.setenv("REPRO_CKPT", "yes")
    with pytest.raises(ValueError, match="REPRO_CKPT"):
        checkpoint_enabled()


def test_runner_prewarm_shares_warmup(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CKPT", "1")
    jobs = [SimJob.single("gap.pr", 8000, run_config(),
                          l2=["streamline"],
                          measure_overrides=(("degree", d),),
                          resume=True)
            for d in (1, 2, 4)]
    runner = SimRunner(jobs=1, cache=ResultCache())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no corrupt/unusable fallbacks
        results = runner.run(jobs)
    assert len(CheckpointStore(tmp_path).entries()) == 1  # one warm-up
    straight = [dataclasses.replace(j, resume=False).execute().single
                for j in jobs]
    assert [r.single for r in results] == straight
