"""Representative sampling: clustering determinism, plan persistence,
windowed execution, warm-up sharing, error bounds, and knob hygiene.

The non-negotiable invariant mirrors the streaming/serve subsystems:
nothing in this package may change what an exact experiment computes.
Only fig9s samples, and sampled (windowed) jobs key their own cache
entries via ``SimJob.window``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.common import experiment_config
from repro.runner import SimJob, SimRunner, execute_job, spec
from repro.sampling import (DEFAULT_ERROR_BOUNDS, FEATURE_NAMES,
                            PlanStore, build_plan, extract_features,
                            get_plan, kmeans, pick_representatives,
                            sampled_jobs, validate_sampling)
from repro.sampling.features import RD_BUCKETS
from repro.sampling.plan import plan_key
from repro.workloads import make_chunks

CFG = experiment_config()
STRIDE = spec("stride")


# -- clustering ----------------------------------------------------------------

class TestCluster:
    def test_kmeans_deterministic(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 5))
        l1, c1 = kmeans(pts, 4, seed=11)
        l2, c2 = kmeans(pts, 4, seed=11)
        assert np.array_equal(l1, l2) and np.allclose(c1, c2)
        l3, _ = kmeans(pts, 4, seed=12)
        assert len(l3) == 40  # different seed still clusters everything

    def test_kmeans_separates_obvious_clusters(self):
        pts = np.concatenate([np.zeros((10, 3)), np.ones((10, 3)) * 9])
        labels, _ = kmeans(pts, 2, seed=1)
        assert len(set(labels[:10].tolist())) == 1
        assert len(set(labels[10:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_picks_weighted_and_sorted(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 4))
        starts = np.arange(30) * 1000
        picks = pick_representatives(pts, starts, 5, seed=5)
        assert picks == pick_representatives(pts, starts, 5, seed=5)
        assert abs(sum(p.weight for p in picks) - 1.0) < 1e-9
        assert [p.start for p in picks] == sorted(p.start for p in picks)

    def test_uniform_features_still_yield_k_stratified_picks(self):
        # One degenerate cluster must not collapse to one interval:
        # picks are stratified over time to average simulation-state
        # drift the features cannot see.
        pts = np.zeros((24, 4))
        starts = np.arange(24) * 500
        picks = pick_representatives(pts, starts, 6, seed=2)
        assert len(picks) == 6
        assert len({p.start for p in picks}) == 6
        spread = max(p.start for p in picks) - min(p.start for p in picks)
        assert spread > 24 * 500 // 2
        assert all(abs(p.weight - 1 / 6) < 1e-9 for p in picks)


# -- features ------------------------------------------------------------------

def reference_features(workload: str, n: int, interval: int) -> np.ndarray:
    """Every feature's per-record definition, as a plain loop."""
    records = []
    for c in make_chunks(workload, n):
        records += zip((c.addrs >> 6).tolist(), c.pcs.tolist(),
                       c.writes.tolist(), c.deps.tolist(), c.gaps.tolist())
    last_seen, prev, rows = {}, None, []
    for lo in range(0, n // interval * interval, interval):
        blocks, pcs = set(), set()
        new = writes = deps = seq = gaps = 0
        hist = [0] * RD_BUCKETS
        for idx in range(lo, lo + interval):
            blk, pc, write, dep, gap = records[idx]
            blocks.add(blk)
            pcs.add(pc)
            writes += bool(write)
            deps += bool(dep)
            gaps += gap
            seq += prev is not None and abs(blk - prev) <= 1
            prev = blk
            if blk in last_seen:
                dist = idx - last_seen[blk]
                hist[min(RD_BUCKETS - 1, dist.bit_length() - 1)] += 1
            else:
                new += 1
            last_seen[blk] = idx
        inv = 1.0 / interval
        rows.append([x * inv for x in (len(blocks), new, writes, deps,
                                       len(pcs), seq, gaps, *hist)])
    return np.asarray(rows, dtype=np.float64)


class TestFeatures:
    # sha256 of ``.matrix.tobytes()``, pinned from the per-record loop
    # the numpy slabs replaced: several chunks; an interval that divides
    # neither the chunk size nor n; a short trace; 7-record intervals.
    PINNED = [
        ("gap.pr", 200_000, 8192,
         "5946c0e42ee90ae99f36de424c56e98344200bae33c664b866c5ca50e7950c4f"),
        ("06.omnetpp", 150_001, 3000,
         "166a5f0c8a9f2b1c03208b76563c652c107c7d86e6f89df2750e0d76a1acdb5b"),
        ("17.xalancbmk", 24_000, 2000,
         "a23d9324a9007b596d8a6f34219f2ffce4c454c497a8dc45893aead7766eac52"),
        ("srv.kv", 70_000, 7,
         "e0df943527ca5f822431959671115c2a04e81355247db3c750e3aa9499c53cf9"),
    ]

    @pytest.mark.parametrize("workload,n,interval,digest", PINNED)
    def test_matrix_digest_pinned(self, workload, n, interval, digest):
        feats = extract_features(workload, n, interval)
        assert feats.matrix.shape == (n // interval, len(FEATURE_NAMES))
        assert hashlib.sha256(feats.matrix.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("workload,n,interval", [
        ("gap.pr", 70_000, 3000), ("06.mcf", 24_000, 2000),
        ("srv.kv", 5000, 7), ("06.lbm", 9000, 9000)])
    def test_matches_the_per_record_definition(self, workload, n,
                                               interval):
        assert np.array_equal(extract_features(workload, n, interval).matrix,
                              reference_features(workload, n, interval))

    def test_deterministic_and_shaped(self):
        a = extract_features("gap.pr", 6000, 500)
        b = extract_features("gap.pr", 6000, 500)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.starts, b.starts)
        assert a.matrix.shape == (12, len(FEATURE_NAMES))
        assert np.isfinite(a.matrix).all()

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            extract_features("gap.pr", 1000, 1)
        with pytest.raises(ValueError):
            extract_features("gap.pr", 100, 500)


# -- plans ---------------------------------------------------------------------

class TestPlanStore:
    def test_round_trip(self, tmp_path):
        store = PlanStore(tmp_path)
        plan = build_plan("gap.pr", 12000, interval=1000, k=3)
        store.put(plan)
        back = store.get(plan.key)
        assert back is not None
        assert back.to_dict() == plan.to_dict()
        assert back.digest() == plan.digest()

    def test_get_plan_builds_then_restores(self, tmp_path):
        store = PlanStore(tmp_path)
        plan = get_plan("gap.pr", 12000, interval=1000, k=3, store=store)
        assert store.has(plan.key)
        again = get_plan("gap.pr", 12000, interval=1000, k=3,
                         store=store)
        assert again.digest() == plan.digest()

    def test_plans_deterministic(self):
        p1 = build_plan("06.mcf", 12000, interval=1000, k=4)
        p2 = build_plan("06.mcf", 12000, interval=1000, k=4)
        assert p1.digest() == p2.digest()
        assert p1.error_bounds == DEFAULT_ERROR_BOUNDS
        assert p1.key == plan_key("06.mcf", 12000, p1.seed, 1000, 4)

    def test_representatives_in_measured_region(self):
        plan = build_plan("gap.pr", 12000, interval=1000, k=4)
        for rep in plan.representatives:
            assert plan.measured_from <= rep.start <= plan.n - plan.interval


# -- windowed jobs -------------------------------------------------------------

class TestWindowedJobs:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            SimJob.single("gap.pr", 4000, CFG, window=(100, 50, 2000))
        with pytest.raises(ValueError):
            SimJob.single("gap.pr", 4000, CFG, window=(0, 1000, 5000))

    def test_window_enters_fingerprint(self):
        base = SimJob.single("gap.pr", 8000, CFG, l1=STRIDE)
        win = SimJob.single("gap.pr", 8000, CFG, l1=STRIDE,
                            window=(2000, 3000, 5000))
        win2 = SimJob.single("gap.pr", 8000, CFG, l1=STRIDE,
                             window=(2000, 3000, 6000))
        assert base.fingerprint() != win.fingerprint()
        assert win.fingerprint() != win2.fingerprint()

    def test_windowed_job_measures_only_the_interval(self):
        job = SimJob.single("gap.pr", 8000, CFG, l1=STRIDE,
                            window=(2000, 3000, 5000),
                            probes=("sampling",))
        res = execute_job(job)
        assert res.single.accesses == 2000  # [warm, stop)
        payload = res.probes["sampling"]
        assert payload["windows"] == [[2000, 5000]]
        assert payload["warmups"] == [1000]
        assert payload["simulated"] == [3000]


# -- shared warm-up ------------------------------------------------------------

class TestWarmupSharing:
    def test_sweep_arms_share_window_warmup(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CKPT", "1")
        monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
        from repro.checkpoint.store import get_store
        window = (1000, 3000, 5000)

        def arm(degree, resume):
            # Fixed-degree streamline so the override changes behaviour
            # at this scale (mirrors the checkpoint suite).
            return SimJob.single(
                "gap.pr", 8000, CFG, l1=STRIDE,
                l2=[spec("streamline", stability_degree=False)],
                window=window, resume=resume,
                measure_overrides=(("degree", degree),))

        arms = [arm(1, True), arm(4, True)]
        fps = {job.warmup_fingerprint() for job in arms}
        assert len(fps) == 1  # measure sweeps share the warm-up
        straight = [execute_job(arm(d, False)).single for d in (1, 4)]
        results = SimRunner(jobs=1).run(arms)
        assert get_store().has(arms[0].warmup_fingerprint())
        for got, want in zip(results, straight):
            assert got.single == want  # restore is bit-identical
        assert straight[0] != straight[1]  # the sweep actually swept


# -- estimates vs full runs ----------------------------------------------------

class TestEstimateAccuracy:
    def test_estimate_within_declared_bounds(self, tmp_path):
        rows = validate_sampling(
            ["gap.pr"], 24000, CFG, {"baseline": ()}, l1=STRIDE,
            store=PlanStore(tmp_path), runner=SimRunner())
        assert rows, "validation produced no comparisons"
        for row in rows:
            assert row.ok, (row.metric, row.rel_error, row.bound)

    def test_sampled_jobs_match_plan(self):
        plan = build_plan("gap.pr", 24000, interval=2000, k=4)
        jobs = sampled_jobs(plan, CFG, l1=STRIDE)
        assert len(jobs) == len(plan.representatives)
        for job, rep in zip(jobs, plan.representatives):
            start, warm, stop = job.window
            assert warm == rep.start and stop == rep.start + plan.interval
            assert start == max(0, rep.start - plan.warmup)
            assert job.resume


# -- knobs ---------------------------------------------------------------------

class TestKnobs:
    def test_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLING_DIR", str(tmp_path))
        assert PlanStore().directory == tmp_path


# -- fig9s ---------------------------------------------------------------------

class TestFig9s:
    def test_small_sampled_run_renders(self):
        # No saving is asserted at this scale: the bounded warm-up
        # prefixes outweigh n, so each arm simulates more than n.
        from repro.experiments import fig9s
        res = fig9s.run(n=12000, workloads=["gap.pr"])
        assert res.name == "fig9s"
        assert res.headers[-2:] == ["ipc ci95", "sim share"]
        assert [row[0] for row in res.rows] == ["gap.pr", "GEOMEAN"]
