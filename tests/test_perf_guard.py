"""The CI perf guard: one run's wall time against the committed baseline."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_GUARD_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "benchmarks" / "perf_guard.py"


def _load_guard():
    spec = importlib.util.spec_from_file_location(
        "perf_guard_under_test", _GUARD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def guard(tmp_path, monkeypatch):
    pg = _load_guard()
    monkeypatch.setattr(pg, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(pg, "BASELINE", tmp_path / "perf_baseline.json")
    monkeypatch.delenv("REPRO_PERF_GUARD", raising=False)
    monkeypatch.delenv("REPRO_PERF_SCALE", raising=False)
    pg.RESULTS_DIR.mkdir()
    pg.BASELINE.write_text(json.dumps(
        {"benches": {"fig9": {"wall_seconds": 1.0}}}))
    return pg


def _record(pg, wall: float) -> None:
    (pg.RESULTS_DIR / "fig9.json").write_text(
        json.dumps({"wall_seconds": wall}))


class TestSingleRunMode:
    def test_regression_fails_and_ok_passes(self, guard):
        _record(guard, 1.2)
        assert guard.main(["fig9"]) == 0
        _record(guard, 1.4)  # past the 1.30 factor
        assert guard.main(["fig9"]) == 1

    def test_skip_knob(self, guard, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_GUARD", "0")
        _record(guard, 99.0)
        assert guard.main(["fig9"]) == 0

