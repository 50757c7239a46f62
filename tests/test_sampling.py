"""Representative sampling: clustering determinism, plan persistence,
windowed execution, warm-up sharing, error bounds, and knob hygiene.

The non-negotiable invariant mirrors the streaming/serve subsystems:
nothing in this package may change what an exact experiment computes.
Only fig9s samples, and sampled (windowed) jobs key their own cache
entries via ``SimJob.window``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import experiment_config
from repro.runner import SimJob, SimRunner, execute_job, spec
from repro.sampling import (DEFAULT_ERROR_BOUNDS, FEATURE_NAMES,
                            PlanStore, build_plan, extract_features,
                            get_plan, kmeans, pick_representatives,
                            sampled_jobs, sampling_k, validate_sampling)
from repro.sampling.plan import plan_key

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

class TestFeatures:
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
    def test_k_validation_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLING_K", "0")
        with pytest.raises(ValueError, match="REPRO_SAMPLING_K"):
            sampling_k()
        monkeypatch.setenv("REPRO_SAMPLING_K", "junk")
        with pytest.raises(ValueError, match="REPRO_SAMPLING_K"):
            sampling_k()
        monkeypatch.setenv("REPRO_SAMPLING_K", "5")
        assert sampling_k() == 5
        monkeypatch.delenv("REPRO_SAMPLING_K")
        assert sampling_k(7) == 7

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
