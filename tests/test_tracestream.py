"""Streaming trace pipeline: stages, on-disk store, parity, marks.

The subsystem invariant (DESIGN.md "Streaming trace pipeline"): routing
trace acquisition and replay through chunk streams — vectorized
generators, transform stages, the mmap-backed
:class:`~repro.tracestream.store.TraceStore` — is a pure execution
strategy.  Every consumer sees record-for-record the same stream, and
simulated results are **bit-identical** to the in-memory path.
These tests assert that for the stage algebra, the one record
iterator, the store round-trip, the engine across workload archetypes
× prefetchers, telemetry series, the progress-mark rule, and the
runner's store-backed trace acquisition.  Corruption handling is shared
by every store and tested in ``tests/test_store.py``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.envknobs import env_dir, env_tristate
from repro.obs.progress import wanted as progress_wanted
from repro.runner import SimJob
from repro.runner import traces as runner_traces
from repro.runner.specs import spec
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, run_single
from repro.sim.multicore import RegionView, build_multicore
from repro.sim.trace import Trace, TraceSource, TraceWindow
from repro.store import StoreCorrupt
from repro.telemetry import TelemetryConfig
from repro.tracestream import chunk as tschunk
from repro.tracestream import stages
from repro.tracestream.chunk import (CHUNK_RECORDS, ChunkedSource,
                                     TraceChunk, concat_chunks,
                                     make_chunk)
from repro.tracestream.store import (StreamingTrace, TraceStore,
                                     default_root, entry_key)
from repro.workloads import make, make_chunks


def ramp_chunk(n: int, base: int = 0) -> TraceChunk:
    """A deterministic chunk whose columns encode absolute positions."""
    idx = np.arange(base, base + n, dtype=np.int64)
    return make_chunk(pcs=0x1000 + 4 * idx, addrs=64 * idx,
                      writes=(idx % 3 == 0), gaps=(idx % 7).astype(np.int32),
                      deps=(idx % 5 == 0))


# -- chunk primitives ------------------------------------------------------


class TestChunk:
    def test_make_chunk_casts_and_validates(self):
        c = make_chunk(pcs=[1, 2], addrs=[64, 128], writes=[0, 1],
                       gaps=[0, 3], deps=[1, 0])
        assert len(c) == 2
        assert [a.dtype for a in c] == [np.dtype(np.int64),
                                        np.dtype(np.int64),
                                        np.dtype(np.bool_),
                                        np.dtype(np.int32),
                                        np.dtype(np.bool_)]
        with pytest.raises(ValueError, match="length"):
            make_chunk(pcs=[1], addrs=[64, 128], writes=[0], gaps=[0],
                       deps=[0])

    def test_replace_and_slice(self):
        c = ramp_chunk(10)
        shifted = c.replace(addrs=c.addrs + 7)
        assert np.array_equal(shifted.addrs, c.addrs + 7)
        assert shifted.pcs is c.pcs  # untouched columns are shared
        sub = c.slice(3, 7)
        assert len(sub) == 4
        assert np.array_equal(sub.addrs, c.addrs[3:7])

    def test_concat_chunks(self):
        parts = [ramp_chunk(4), ramp_chunk(3, base=4), ramp_chunk(2, base=7)]
        whole = concat_chunks(parts)
        assert len(whole) == 9
        assert np.array_equal(whole.addrs, ramp_chunk(9).addrs)
        assert len(concat_chunks([])) == 0


# -- stage algebra ---------------------------------------------------------


class TestStages:
    def test_iter_chunks_covers_source_in_order(self):
        n = CHUNK_RECORDS + 1000
        trace = make("06.lbm", n, 7)
        chunks = list(trace.iter_chunks())
        assert [len(c) for c in chunks] == [CHUNK_RECORDS, 1000]
        assert np.array_equal(concat_chunks(chunks).addrs, trace.addrs)
        tail = concat_chunks(list(trace.iter_chunks(n - 100)))
        assert np.array_equal(tail.addrs, trace.addrs[n - 100:])

    def test_rechunk_normalizes_chunk_sizes(self):
        items = [ramp_chunk(3), ramp_chunk(10, base=3)]
        out = list(stages.rechunk(iter(items), size=4))
        assert [len(c) for c in out] == [4, 4, 4, 1]
        assert np.array_equal(concat_chunks(out).addrs,
                              ramp_chunk(13).addrs)
        with pytest.raises(ValueError):
            list(stages.rechunk(iter(items), size=0))

    def test_every_source_shares_the_one_record_iterator(self):
        for cls in (Trace, TraceWindow, StreamingTrace, RegionView):
            for name in ("__iter__", "iter_from", "iter_chunks"):
                assert getattr(cls, name) is \
                    getattr(ChunkedSource, name), (cls, name)


# -- on-disk store ---------------------------------------------------------


#: Small store chunks so a test-sized trace spans several files.
STORE_CHUNK = 1024


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    return TraceStore(chunk_records=STORE_CHUNK)


class TestTraceStore:
    CHUNK = STORE_CHUNK

    def put(self, store, workload="gap.pr", n=5000, seed=7):
        return store.put(workload, n, seed, make_chunks(workload, n, seed))

    def test_round_trip_is_record_identical(self, store):
        replay = self.put(store)
        direct = make("gap.pr", 5000, 7)
        assert isinstance(replay, StreamingTrace)
        assert isinstance(replay, TraceSource)
        assert len(replay) == len(direct)
        assert replay.instructions == direct.instructions
        assert list(replay) == list(direct)
        again = store.get("gap.pr", 5000, 7)
        assert again is not None and list(again) == list(direct)

    def test_chunk_at_across_chunk_boundaries(self, store):
        replay = self.put(store)
        direct = make("gap.pr", 5000, 7)
        for lo, hi in [(0, 10), (self.CHUNK - 3, self.CHUNK + 3),
                       (2 * self.CHUNK, 2 * self.CHUNK),
                       (4990, 5000)]:
            got, want = replay.chunk_at(lo, hi), direct.chunk_at(lo, hi)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (lo, hi)
        with pytest.raises(IndexError):
            replay.chunk_at(4990, 5001)

    def test_iter_from_matches_trace(self, store):
        replay = self.put(store)
        direct = make("gap.pr", 5000, 7)
        for start in (0, 1, self.CHUNK, self.CHUNK + 1, 4999, 5000):
            assert list(replay.iter_from(start)) == \
                list(direct.iter_from(start)), start

    def test_window_over_replay_matches_trace_slice(self, store):
        lo, hi = self.CHUNK - 3, 3 * self.CHUNK + 5
        win = TraceWindow(self.put(store), lo, hi)
        want = make("gap.pr", 5000, 7).slice(lo, hi)
        assert list(win) == list(want)
        assert list(win.iter_from(10)) == list(want)[10:]
        assert win.instructions == want.instructions

    def test_put_length_mismatch_rejected(self, store):
        with pytest.raises(ValueError, match="record"):
            store.put("gap.pr", 6000, 7, make_chunks("gap.pr", 5000, 7))
        assert store.get("gap.pr", 6000, 7) is None

    def test_verify_and_gc(self, store, tmp_path):
        self.put(store)
        key = entry_key("gap.pr", 5000, 7)
        assert store.verify(key) > 0
        # verify does full content digests: flip one byte in-place.
        victim = store.path_for("gap.pr", 5000, 7) / "c000000.gaps.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(StoreCorrupt, match="checksum mismatch"):
            store.verify(key)
        stale = store.directory / ".gap.pr-n5000-s7.stale.tmp"
        stale.mkdir()
        removed = store.gc()
        assert key in removed and stale.name in removed
        assert store.entries() == []

    def test_entry_key_is_filesystem_safe(self):
        assert entry_key("gap.pr", 5000, 7) == "gap.pr-n5000-s7"
        assert "/" not in entry_key("a/b c", 1, 2)

    def test_default_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "t"))
        assert default_root() == tmp_path / "t"


# -- bit-identity against the in-memory path -------------------------------

# Three archetypes (streaming regular, graph pointer-heavy, latency
# bound) × two prefetchers, per the subsystem acceptance bar.
PARITY_WORKLOADS = ["06.lbm", "gap.pr", "06.mcf"]
PARITY_PREFETCHERS = ["streamline", "triangel"]


def parity_config(**over):
    over.setdefault("warmup_fraction", 0.5)
    return dataclasses.replace(
        SystemConfig().scaled_down(8).scaled(num_cores=1), **over)


def replayed(store: TraceStore, workload: str, n: int) -> StreamingTrace:
    return store.put(workload, n, 42, make_chunks(workload, n, 42))


class TestEngineParity:
    @pytest.mark.parametrize("workload", PARITY_WORKLOADS)
    @pytest.mark.parametrize("pf", PARITY_PREFETCHERS)
    def test_run_single_bit_identical(self, store, workload, pf):
        n = 6000
        mem = run_single(make(workload, n, 42), parity_config(),
                         l2_prefetchers=[spec(pf).build])
        stream = run_single(replayed(store, workload, n), parity_config(),
                            l2_prefetchers=[spec(pf).build])
        assert dataclasses.asdict(stream) == dataclasses.asdict(mem)

    def test_telemetry_series_bit_identical(self, store):
        n = 6000
        tel = TelemetryConfig(interval=500)
        series = []
        for trace in (make("gap.pr", n, 42),
                      replayed(store, "gap.pr", n)):
            engine = Engine([trace], parity_config(telemetry=tel),
                            l2_prefetchers=[spec("streamline").build])
            engine.run()
            engine.collect()
            series.append(engine.telemetry.sampler.series())
        assert series[0] == series[1]


#: Records per core and progress-mark interval of the mark-rule tests.
MARK_N, MARK_EVERY = 4000, 700


class TestProgressMarks:
    def build(self, n=8000):
        trace = make("gap.pr", n, 42)
        engine = Engine([trace], parity_config(),
                        l2_prefetchers=[spec("streamline").build])
        return trace, engine

    @pytest.mark.parametrize("workloads", [("06.mcf",),
                                           ("06.mcf", "gap.pr")],
                             ids=["1-core", "2-core"])
    def test_marks_fire_on_the_same_records_in_either_order(
            self, workloads):
        # A bare run() and run_warmup() + run() enter the measured
        # region differently; the hook must see the same counts.
        config = SystemConfig().scaled_down(8)
        build = Engine if len(workloads) == 1 else build_multicore
        seen = {}
        for warm_first in (False, True):
            traces = [make(wl, MARK_N, 42) for wl in workloads]
            engine = build(traces, config,
                           l2_prefetchers=[spec("streamline").build])
            fired = seen[warm_first] = []
            engine.set_mark_hook(MARK_EVERY, lambda e, f=fired: f.append(
                tuple(e.state_dict()["counts"])))
            if warm_first:
                engine.run_warmup()
            engine.run()
        assert seen[False] == seen[True]
        if len(workloads) == 1:
            warm = int(MARK_N * config.warmup_fraction)
            assert seen[True] == [
                (p,) for p in range(warm - 1 + MARK_EVERY, MARK_N + 1,
                                    MARK_EVERY)]

    def test_resume_skips_already_fired_marks(self):
        # Restore at mark k: the continued run fires only marks > k and
        # finishes bit-identical to the uninterrupted run.
        _trace, engine = self.build()
        snaps = []
        engine.set_mark_hook(1000,
                             lambda e: snaps.append(e.state_dict()))
        straight = engine.run().collect()
        _trace, fresh = self.build()
        fired = []
        fresh.set_mark_hook(1000, lambda e: fired.append(
            e.state_dict()["counts"][0]))
        fresh.load_state(snaps[1])
        resumed = fresh.run().collect()
        assert resumed == straight
        assert fired == [s["counts"][0] for s in snaps[2:]]

    def test_no_marks_without_warmup(self):
        trace = make("gap.pr", 4000, 42)
        engine = Engine([trace], parity_config(warmup_fraction=0.0),
                        l2_prefetchers=[spec("streamline").build])
        fired = []
        engine.set_mark_hook(500, lambda e: fired.append(1))
        engine.run()
        assert fired == []


# -- trace acquisition through the store ------------------------------------


@pytest.fixture()
def trace_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    runner_traces.clear()
    yield tmp_path
    runner_traces.clear()


class TestRunnerKnobs:
    def test_tristate_validation_names_the_variable(self, monkeypatch):
        for raw, want in (("", None), ("auto", None), ("0", False),
                          ("1", True)):
            monkeypatch.setenv("REPRO_PROGRESS", raw)
            assert env_tristate("REPRO_PROGRESS") is want
        monkeypatch.setenv("REPRO_PROGRESS", "yes")
        with pytest.raises(ValueError, match="REPRO_PROGRESS"):
            progress_wanted()

    def test_trace_dir_must_be_a_directory(self, tmp_path, monkeypatch):
        f = tmp_path / "not-a-dir"
        f.write_text("x")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(f))
        with pytest.raises(ValueError, match="REPRO_TRACE_DIR"):
            env_dir("REPRO_TRACE_DIR")
        with pytest.raises(ValueError, match="REPRO_TRACE_DIR"):
            default_root()

    def test_get_trace_routes_through_store(self, trace_dir):
        before = runner_traces.store_stats()
        t1 = runner_traces.get_trace("gap.pr", 3000, 1234)
        assert isinstance(t1, StreamingTrace)
        t2 = runner_traces.get_trace("gap.pr", 3000, 1234)
        assert t2 is t1  # per-process handle reuse, no recount
        runner_traces.clear()
        t3 = runner_traces.get_trace("gap.pr", 3000, 1234)
        stats = runner_traces.store_stats()
        assert stats["misses"] - before["misses"] == 1
        assert stats["hits"] - before["hits"] == 1
        assert list(t3) == list(make("gap.pr", 3000, 1234))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors through /proc")
    @pytest.mark.parametrize("replay", ["full", "window", "window-seek"])
    def test_replayed_handles_hold_no_open_files(self, trace_dir, replay):
        # Every acquired handle stays memoized, so one that kept its
        # mmapped chunk columns open would exhaust descriptors in a
        # long serial sweep, whichever way it was replayed.
        def records(trace):
            if replay == "full":
                return trace
            window = TraceWindow(trace, 500, 1500)
            return window if replay == "window" else window.iter_from(300)

        want = {"full": 2000, "window": 1000, "window-seek": 700}[replay]
        before = len(os.listdir("/proc/self/fd"))
        for seed in range(20):
            assert sum(1 for _ in records(runner_traces.get_trace(
                "gap.pr", 2000, seed))) == want
        assert len(os.listdir("/proc/self/fd")) - before < 5

    def test_job_end_reports_store_deltas(self, trace_dir, monkeypatch):
        from repro.obs import runlog
        monkeypatch.setenv("REPRO_OBS", "1")
        log = runlog.RunLog("t", trace_dir / "obs" / "t")
        writer = log.parent_writer()
        runlog.install(writer)
        try:
            job = SimJob.single("gap.pr", 4000, parity_config(),
                                l2=["streamline"])
            job.execute()
        finally:
            writer.close()
            runlog.install(None)
        records = runlog.load_runlog(log.merge())
        ends = [r for r in records if r["event"] == "job_end"]
        assert len(ends) == 1
        assert ends[0]["trace_store"] == {"hits": 0, "misses": 1}

    def test_job_results_match_in_memory_trace(self, trace_dir):
        job = SimJob.single("gap.pr", 5000, parity_config(),
                            l2=["triangel"])
        streamed = job.execute().single
        plain = run_single(make("gap.pr", 5000, job.seed),
                           parity_config(),
                           l2_prefetchers=[spec("triangel").build])
        assert dataclasses.asdict(streamed) == dataclasses.asdict(plain)

    def test_warm_checkpoint_resume_parity(self, trace_dir, monkeypatch):
        # Straight run over the in-memory trace vs. a store-backed job
        # restored from its own mid-run progress mark: bit-identical.
        monkeypatch.setenv("REPRO_CKPT_DIR", str(trace_dir / "ckpt"))
        monkeypatch.setenv("REPRO_CKPT", "1")
        monkeypatch.setenv("REPRO_CKPT_MARK", "1000")

        def job():
            return SimJob.single("gap.pr", 8000, parity_config(),
                                 l2=["streamline"], resume=True)

        straight = run_single(make("gap.pr", 8000, job().seed),
                              parity_config(),
                              l2_prefetchers=[spec("streamline").build])
        from repro.checkpoint import CheckpointStore
        marks = []
        engine = job()._build_engine()
        engine.set_mark_hook(1000,
                             lambda e: marks.append(e.state_dict()))
        engine.run()
        CheckpointStore(trace_dir / "ckpt").put(
            "p-" + job().fingerprint(), marks[len(marks) // 2],
            {"phase": "progress"})
        resumed = job().execute().single
        assert dataclasses.asdict(resumed) == dataclasses.asdict(straight)


# -- module sanity ---------------------------------------------------------


def test_chunk_module_exports():
    assert tschunk.CHUNK_RECORDS == CHUNK_RECORDS
    assert TraceChunk._fields == ("pcs", "addrs", "writes", "gaps",
                                  "deps")
