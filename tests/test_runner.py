"""The runner subsystem: specs, fingerprints, cache, and determinism.

The headline invariant (DESIGN.md §4: every experiment is
deterministic) is asserted here end-to-end: a serial run
(``REPRO_JOBS=1`` path) and a process-pool run of the same job matrix
produce bit-identical ``SimResult``s.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import experiment_config
from repro.prefetchers.stride import StridePrefetcher
from repro.prefetchers.triangel import TriangelPrefetcher
from repro.runner import (PrefetcherSpec, ResultCache, SimJob, SimRunner,
                          as_spec, env_jobs, spec)
from repro.runner import traces

TINY_N = 2500
CFG = experiment_config()


def _matrix_jobs():
    jobs = []
    for wl in ("gap.pr", "06.lbm"):
        jobs.append(SimJob.single(wl, TINY_N, CFG, l1="stride"))
        jobs.append(SimJob.single(wl, TINY_N, CFG, l1="stride",
                                  l2=(spec("triangel"),)))
    return jobs


def _mem_runner(workers: int) -> SimRunner:
    return SimRunner(jobs=workers, cache=ResultCache(persistent=False))


# -- specs ---------------------------------------------------------------------

def test_spec_kwargs_order_is_canonical():
    a = spec("streamline", degree=2, stream_length=8)
    b = spec("streamline", stream_length=8, degree=2)
    assert a == b and hash(a) == hash(b)
    assert a.canonical() == b.canonical()


def test_spec_builds_prefetcher():
    pf = spec("triangel", degree=2).build()
    assert isinstance(pf, TriangelPrefetcher)
    assert spec("triangel").build() is not spec("triangel").build()


def test_as_spec_coercions():
    assert as_spec(None) is None
    assert as_spec("stride") == PrefetcherSpec.of("stride")
    assert as_spec(StridePrefetcher) == PrefetcherSpec.of("stride")
    s = spec("berti")
    assert as_spec(s) is s
    with pytest.raises(TypeError):
        as_spec(lambda: StridePrefetcher())


def test_variant_spec_resolves():
    pf = spec("variant:+MB").build()
    assert pf.buffer_size > 0


def test_unknown_spec_raises():
    with pytest.raises(ValueError):
        spec("no-such-prefetcher").build()


# -- fingerprints --------------------------------------------------------------

def test_fingerprint_is_stable_and_param_sensitive():
    job = SimJob.single("gap.pr", TINY_N, CFG, l1="stride")
    same = SimJob.single("gap.pr", TINY_N, CFG, l1="stride")
    assert job.fingerprint() == same.fingerprint()
    assert job.fingerprint() != SimJob.single(
        "gap.pr", TINY_N + 1, CFG, l1="stride").fingerprint()
    assert job.fingerprint() != SimJob.single(
        "gap.pr", TINY_N, CFG, l1="stride", seed=5).fingerprint()
    assert job.fingerprint() != SimJob.single(
        "gap.cc", TINY_N, CFG, l1="stride").fingerprint()


def test_fingerprint_covers_config_and_specs():
    job = SimJob.single("gap.pr", TINY_N, CFG, l1="stride")
    other_cfg = CFG.scaled(l2_size=CFG.l2_size * 2)
    assert job.fingerprint() != SimJob.single(
        "gap.pr", TINY_N, other_cfg, l1="stride").fingerprint()
    assert job.fingerprint() != SimJob.single(
        "gap.pr", TINY_N, CFG, l1="stride",
        l2=(spec("streamline", degree=2),)).fingerprint()
    assert SimJob.single(
        "gap.pr", TINY_N, CFG, l1="stride",
        l2=(spec("streamline", degree=2),)).fingerprint() != \
        SimJob.single(
            "gap.pr", TINY_N, CFG, l1="stride",
            l2=(spec("streamline", degree=4),)).fingerprint()


# -- determinism ---------------------------------------------------------------

def test_serial_and_parallel_results_are_bit_identical():
    jobs = _matrix_jobs()
    serial = _mem_runner(1).run(jobs)
    parallel = _mem_runner(4).run(jobs)
    for s, p in zip(serial, parallel):
        assert s.single == p.single  # dataclass eq: every field matches


def test_multicore_job_matches_direct_engine_call():
    from repro.sim.multicore import run_multicore
    from repro.workloads import make
    cfg = experiment_config(num_cores=2)
    job = SimJob.multi(("gap.pr", "06.lbm"), TINY_N, cfg, l1="stride")
    via_runner = _mem_runner(1).run_one(job).multicore
    direct = run_multicore([make("gap.pr", TINY_N), make("06.lbm", TINY_N)],
                           cfg, l1_prefetcher=StridePrefetcher)
    assert via_runner.cores == direct.cores


# -- caching -------------------------------------------------------------------

def test_memo_hit_and_batch_dedup():
    runner = _mem_runner(1)
    job = SimJob.single("gap.pr", TINY_N, CFG, l1="stride")
    first = runner.run([job, job])   # in-batch dup computed once
    assert runner.cache.stats.misses == 1
    again = runner.run_one(job)
    assert runner.cache.stats.memo_hits == 1
    assert again.single == first[0].single


def test_disk_cache_round_trip(tmp_path):
    job = SimJob.single("gap.pr", TINY_N, CFG, l1="stride")
    warm = SimRunner(jobs=1, cache=ResultCache(tmp_path, persistent=True))
    first = warm.run_one(job)
    assert warm.cache.stats.misses == 1 and warm.cache.stats.stores == 1
    # A fresh process-equivalent (empty memo) hits the disk level.
    cold = SimRunner(jobs=1, cache=ResultCache(tmp_path, persistent=True))
    second = cold.run_one(job)
    assert cold.cache.stats.disk_hits == 1 and cold.cache.stats.misses == 0
    assert second.single == first.single


def test_config_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path, persistent=True)
    runner = SimRunner(jobs=1, cache=cache)
    runner.run_one(SimJob.single("gap.pr", TINY_N, CFG, l1="stride"))
    changed = CFG.scaled(mlp=CFG.mlp // 2)
    runner.run_one(SimJob.single("gap.pr", TINY_N, changed, l1="stride"))
    assert cache.stats.misses == 2  # new fingerprint, no false hit


def test_probe_results_travel_with_cache(tmp_path):
    cache = ResultCache(tmp_path, persistent=True)
    job = SimJob.single("gap.pr", TINY_N, CFG, l1="stride",
                        l2=(spec("streamline"),),
                        probes=("store_stats", "alignment"))
    first = SimRunner(jobs=1, cache=cache).run_one(job)
    assert first.probes["store_stats"]["lookups"] > 0
    reloaded = SimRunner(
        jobs=1, cache=ResultCache(tmp_path, persistent=True)).run_one(job)
    assert reloaded.probes == first.probes


# -- knobs ---------------------------------------------------------------------

def test_repro_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert env_jobs() == 4
    assert SimRunner(cache=ResultCache(persistent=False)).workers == 4
    monkeypatch.setenv("REPRO_JOBS", "")
    assert env_jobs() >= 1


def test_repro_cache_opt_out(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sc"))
    cache = ResultCache()
    SimRunner(jobs=1, cache=cache).run_one(
        SimJob.single("gap.pr", TINY_N, CFG, l1="stride"))
    assert not (tmp_path / "sc").exists()  # nothing persisted


def test_trace_acquisition_memoizes_handles():
    traces.clear()
    t1 = traces.get_trace("gap.pr", 2000, 1234)
    t2 = traces.get_trace("gap.pr", 2000, 1234)
    assert t1 is t2
    assert traces.get_trace("gap.pr", 2000, 99) is not t1
    traces.clear()
    assert traces.get_trace("gap.pr", 2000, 1234) is not t1
    traces.clear()


# -- cache integrity -----------------------------------------------------------

def _put_racer(directory, fingerprint, result, barrier):
    """Child-process body for the concurrent-put race (fork target)."""
    cache = ResultCache(directory, persistent=True)
    barrier.wait(timeout=30)
    cache.put(fingerprint, result)


class TestCacheIntegrity:
    def _stored(self, tmp_path):
        cache = ResultCache(tmp_path, persistent=True)
        job = SimJob.single("gap.pr", TINY_N, CFG, l1="stride")
        SimRunner(jobs=1, cache=cache).run_one(job)
        return cache, job.fingerprint()

    def test_verify_reports_without_evicting(self, tmp_path):
        from repro.store import StoreCorrupt
        _, fp = self._stored(tmp_path)
        fresh = ResultCache(tmp_path, persistent=True)
        fresh.path(fp).write_bytes(b"junk")
        with pytest.raises(StoreCorrupt):
            fresh.verify(fp)
        assert fresh.path(fp).exists()  # verify reports, get repairs
        assert fresh.stats.evictions == 0

    def test_concurrent_puts_leave_readable_winner(self, tmp_path):
        import multiprocessing
        cache, fp = self._stored(tmp_path)
        result = cache.get(fp)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_put_racer,
                             args=(tmp_path, fp, result, barrier))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # Whatever interleaving happened, the entry verifies and loads.
        fresh = ResultCache(tmp_path, persistent=True)
        assert fresh.verify(fp) > 0
        reloaded = fresh.get(fp)
        assert reloaded is not None
        assert reloaded.single == result.single
        assert fresh.stats.evictions == 0


def test_cache_flag_is_validated(monkeypatch):
    from repro.runner import cache_enabled
    monkeypatch.setenv("REPRO_CACHE", "")
    assert cache_enabled()  # empty means the default, on
    monkeypatch.setenv("REPRO_CACHE", "yes")
    with pytest.raises(ValueError, match="REPRO_CACHE"):
        cache_enabled()
