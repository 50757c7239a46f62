"""Smoke tests of the experiment harness at miniature scale.

These verify that every table/figure module runs end-to-end and emits a
well-formed result; the actual paper-shape checks live in the benches
(which run at larger scale) and are recorded in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import (ExperimentResult, experiment_config,
                                      irregular_subset, run_matrix,
                                      workload_set)
from repro.prefetchers.triangel import TriangelPrefetcher
from repro.runner import reset_runner, spec

TINY = dict(n=4000)
MINI_WL = ["gap.pr", "06.lbm"]


def test_experiment_registry_covers_every_figure():
    expected = {"table1", "table2", "tpmin", "fig9", "fig9s", "fig10a",
                "fig10b",
                "fig10c", "fig10de", "fig10f", "fig11a", "fig11b",
                "fig11cd", "fig12a", "fig12b", "fig12c", "fig12ts",
                "fig13a", "fig13b", "fig13c", "fig14", "fig15"}
    assert expected == set(ALL_EXPERIMENTS)


def test_experiment_result_table_renders():
    r = ExperimentResult("x", ["a"], [[1], [2]], notes="hello")
    text = r.table()
    assert "hello" in text and "a" in text
    assert r.as_dict()["rows"] == [[1], [2]]


def test_workload_sets():
    assert len(workload_set("full")) == 31
    assert workload_set("component")
    assert set(workload_set("gap")) == set(workload_set("gap"))


def test_experiment_config_is_scaled():
    cfg = experiment_config()
    assert cfg.llc_size == 512 * 1024


def test_run_matrix_and_irregular_subset():
    runs = run_matrix(MINI_WL, 4000, {"triangel": TriangelPrefetcher,
                                      "ideal-triage": spec("ideal-triage")})
    assert len(runs) == 2
    assert all({"triangel", "ideal-triage"} <= set(r.results)
               for r in runs)
    subset = irregular_subset(runs)
    assert "06.lbm" not in subset  # streams have no temporal headroom
    assert subset == [r.workload for r in runs
                      if r.results["ideal-triage"].ipc / r.baseline.ipc
                      >= 1.05]
    assert irregular_subset(runs, headroom=-1.0) == MINI_WL


def test_fig9_submits_one_batch(monkeypatch, tmp_path):
    # The ideal-Triage oracle rides in the matrix batch: one run log,
    # one run_start, however many workloads need the oracle.
    from repro.obs import runlog
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    reset_runner()  # cold: nothing memoized by earlier tests
    ALL_EXPERIMENTS["fig9"](n=3000, workloads=MINI_WL)
    events = [record["event"] for run in runlog.list_runs()
              for record in runlog.load_runlog(run / runlog.MERGED)]
    assert events.count("run_start") == 1
    assert events.count("job_end") == 8  # 2 workloads x 4 configs


@pytest.mark.parametrize("exp_id", ["table1", "table2"])
def test_analytic_experiments(exp_id):
    res = ALL_EXPERIMENTS[exp_id]()
    assert res.rows


def test_tpmin_experiment_tiny():
    res = ALL_EXPERIMENTS["tpmin"](n=3000, capacities=(256,),
                                   workloads=["gap.pr"])
    assert len(res.rows) == 1


def test_fig12a_tiny():
    res = ALL_EXPERIMENTS["fig12a"](n=4000, lengths=(2, 4),
                                    workloads=["gap.pr"])
    assert [row[0] for row in res.rows] == [2, 4]
    assert res.rows[1][1] == 16  # corr/block at length 4


def test_fig13a_tiny():
    res = ALL_EXPERIMENTS["fig13a"](n=4000, workloads=["gap.pr"])
    names = {row[0] for row in res.rows}
    assert "streamline@0.5MB" in names and "triangel-ideal@1MB" in names


def test_fig14_tiny():
    res = ALL_EXPERIMENTS["fig14"](n=4000, workloads=["gap.pr"])
    variants = {row[0] for row in res.rows}
    assert {"triangel", "unopt", "full"} <= variants


def test_fig15_tiny():
    res = ALL_EXPERIMENTS["fig15"](n=4000, workloads=["gap.pr"])
    assert any("realign" in str(row[0]) for row in res.rows)


def test_fig10a_single_core_only():
    res = ALL_EXPERIMENTS["fig10a"](n_per_core=2500, mix_count=1,
                                    core_counts=(1, 2))
    assert [row[0] for row in res.rows] == [1, 2]
