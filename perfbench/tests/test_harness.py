"""Tests for the benchmark harness (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Smallest arguments at which each workload's call still runs every
#: code path it runs at full scale.
TINY = {
    "sc-temporal": {"n": 3000},
    "sc-regular": {"n": 3000},
    "mc-mix": {"n_per_core": 2000, "mix_count": 1},
    "sampled": {"n": 24_000},
}


@pytest.fixture(autouse=True)
def _clean_work():
    yield
    shutil.rmtree(run.WORK, ignore_errors=True)


# -- the tracer ---------------------------------------------------------------

def _fake_module():
    """A module with nested calls of known duration."""
    module = types.ModuleType("perfbench_fake")

    class Fake:
        def inner(self):
            time.sleep(0.01)

        def middle(self):
            time.sleep(0.01)
            self.inner()

        def outer(self):
            time.sleep(0.01)
            self.middle()
            self.middle()

    module.Fake = Fake
    sys.modules[module.__name__] = module
    return module


def test_nested_self_times_add_up_to_outer_total():
    module = _fake_module()
    targets = tuple(layers.Target(name, module.__name__, "Fake." + name)
                    for name in ("outer", "middle", "inner"))
    with layers.LayerTracer(targets) as tracer:
        t0 = time.perf_counter()
        module.Fake().outer()
        total = time.perf_counter() - t0
    records = tracer.records
    assert [records[n].calls for n in ("outer", "middle", "inner")] == \
        [1, 2, 2]
    self_sum = sum(r.self_s for r in records.values())
    assert self_sum <= total
    assert total - self_sum < 0.005
    # Each level's self time is its own sleeps only, not its callees'.
    assert records["outer"].self_s == pytest.approx(0.01, abs=0.008)
    assert records["middle"].self_s == pytest.approx(0.02, abs=0.008)


def _tiny_job():
    from repro.experiments.common import experiment_config
    from repro.runner import SimJob, spec
    return SimJob.single("gap.pr", 2000, experiment_config(),
                         l1=spec("stride"), l2=(spec("streamline"),))


def test_real_layers_self_times_sum_to_runner_wall(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_OBS", "0")
    from repro.runner import SimRunner
    runner, job = SimRunner(jobs=1), _tiny_job()
    with layers.LayerTracer() as tracer:
        t0 = time.perf_counter()
        runner.run([job])
        total = time.perf_counter() - t0
    self_sum = sum(r.self_s for r in tracer.records.values())
    assert tracer.records["runner.SimRunner.run"].calls == 1
    assert tracer.records["core.streamline.train"].calls > 0
    assert 0 < total - self_sum < 0.01 * total


def test_wrappers_are_removed_after_the_traced_run(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_OBS", "0")
    import importlib
    from repro.runner import SimRunner, jobs as jobs_module

    def bound(target):
        module = importlib.import_module(target.module)
        owner, _, leaf = target.attr.rpartition(".")
        return getattr(module, owner).__dict__[leaf] if owner \
            else getattr(module, leaf)

    before = {t.name: bound(t) for t in layers.TARGETS}
    get_trace = jobs_module.get_trace
    tracer = layers.LayerTracer()
    with tracer:
        assert jobs_module.get_trace is not get_trace
        SimRunner(jobs=1).run([_tiny_job()])
    assert not tracer.installed
    assert {t.name: bound(t) for t in layers.TARGETS} == before
    assert jobs_module.get_trace is get_trace
    counts = {n: r.calls for n, r in tracer.records.items()}
    SimRunner(jobs=1).run([_tiny_job()])
    assert {n: r.calls for n, r in tracer.records.items()} == counts


# -- run.py -------------------------------------------------------------------

def test_injected_digest_mismatch_counts_as_a_failure():
    workload = workloads.WORKLOADS["sc-temporal"].scaled(n=2000)
    bad = {"rows_digest": "0" * 64, "results_digest": "0" * 64}
    outcome = run.end_to_end(workload, 0.0, bad, time.perf_counter())
    assert outcome["failed"] == 1
    assert any("rows_digest" in p for p in outcome["problems"])
    good = {k: outcome["reports"][0][k]
            for k in ("rows_digest", "results_digest")}
    assert run.check(outcome["reports"][0], good) == []


def test_guard_failure_counts_as_a_failure():
    report = {"problems": ["no 4-core job ran"], "rows_digest": "a",
              "results_digest": "b"}
    assert run.check(report, None) == ["no 4-core job ran"]
    assert run.check({"error": "Traceback\nValueError: boom\n"}, None) == \
        ["ValueError: boom"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_of_each_workload(name):
    benchmarks = ROOT / "benchmarks"
    before = sorted(p.name for p in benchmarks.iterdir())
    results = sorted(p.name for p in (benchmarks / "results").iterdir())
    workload = workloads.WORKLOADS[name].scaled(**TINY[name])
    outcome = run.per_layer(workload, None, time.perf_counter())
    assert outcome["problems"] == []
    assert outcome["failed"] == 0
    untraced, traced = outcome["reports"]
    assert untraced["meta"]["knobs"].keys() == set(run.DIR_KNOBS)
    assert traced["meta"]["knobs"]["REPRO_JOBS"] == "1"
    assert set(outcome["metrics"]) == set(run.layer_metric_units())
    assert outcome["metrics"]["memory.hierarchy.access.calls"][0] > 0
    # Hermetic: nothing lands in the repository's own stores.
    assert sorted(p.name for p in benchmarks.iterdir()) == before
    assert sorted(p.name for p in (benchmarks / "results").iterdir()) == \
        results


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        list(run.layer_metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.layer_metric_units()
    outcome_units = {"wall_s": "s", "sim_accesses_per_s": "1/s",
                     "setup_s": "s", "peak_rss_mb": "MB"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        outcome_units
    pins = json.loads(run.PINS.read_text())
    assert set(pins) == set(workloads.WORKLOADS)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "__pycache__", "tests"))
    import subprocess
    out = subprocess.run([sys.executable, str(copy / "run.py"),
                          "--workload", "sc-temporal", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=str(tmp_path), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
