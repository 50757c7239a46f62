"""Shared bench harness.

``bench_experiments.py`` regenerates each paper table/figure via
``repro.experiments``.  Under ``pytest --benchmark-only`` an experiment
runs once inside pytest-benchmark (so wall-clock cost is recorded); the
resulting table is printed and also written to ``benchmarks/results/``
so the numbers survive output capture.  Its standalone ``__main__``
goes through :func:`main_experiment`, which prints the same table and
persists the same files without pytest.

Every run now also emits machine-readable results: one
``results/<exp_id>.json`` (rows, wall seconds, worker/cache/checkpoint
counters) next to each ``.txt``, folded into an aggregate
``results/BENCH_summary.json`` — the per-revision perf trajectory the
CI uploads as an artifact.

Scale knobs: ``REPRO_N`` (accesses per trace) and ``REPRO_QUICK=1``
shrink every experiment; ``REPRO_JOBS`` sets the simulation worker
count and ``REPRO_CACHE=0`` disables the on-disk result cache under
``benchmarks/.simcache/`` (see ``repro.runner`` and
``repro.experiments.common``).

Runner telemetry (worker count, cache hit/miss deltas) lands in
``benchmark.extra_info`` so BENCH_*.json tracks the parallel/caching
speedup across revisions.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from typing import Any, Dict

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Layout version of the per-experiment JSON and BENCH_summary.json.
RESULT_SCHEMA = 1

SUMMARY = "BENCH_summary.json"


def _atomic_write_json(path: pathlib.Path, payload: Dict[str, Any]) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _ckpt_info() -> Dict[str, Any]:
    from repro.checkpoint import checkpoint_enabled, get_store
    info: Dict[str, Any] = {"enabled": checkpoint_enabled()}
    if info["enabled"]:
        info["entries"] = len(get_store().entries())
    return info


def _record(exp_id: str, result, wall_s: float, workers: int,
            cache: Dict[str, int], persistent: bool) -> Dict[str, Any]:
    return {
        "schema": RESULT_SCHEMA,
        "exp_id": exp_id,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": len(result.rows),
        "headers": list(result.headers),
        "wall_seconds": round(wall_s, 3),
        "workers": workers,
        "cache": dict(cache),
        "cache_persistent": persistent,
        "checkpoint": _ckpt_info(),
    }


def _persist(exp_id: str, result, record: Dict[str, Any]) -> None:
    """Write the ``.txt`` table, the per-experiment JSON, and fold the
    record into ``BENCH_summary.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = f"== {exp_id} ==\n{result.table()}\n"
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text)
    _atomic_write_json(RESULTS_DIR / f"{exp_id}.json", record)
    summary_path = RESULTS_DIR / SUMMARY
    summary: Dict[str, Any] = {"schema": RESULT_SCHEMA, "benches": {}}
    if summary_path.is_file():
        try:
            loaded = json.loads(summary_path.read_text(encoding="utf-8"))
            if isinstance(loaded.get("benches"), dict):
                summary["benches"] = loaded["benches"]
        except (json.JSONDecodeError, OSError):
            pass  # corrupt summary: rebuild from this run onward
    summary["updated"] = record["timestamp"]
    summary["benches"][exp_id] = {
        k: record[k] for k in ("timestamp", "rows", "wall_seconds",
                               "workers", "cache")}
    _atomic_write_json(summary_path, summary)


def run_experiment(benchmark, exp_id: str, **kwargs):
    """Run one experiment under pytest-benchmark and persist its table."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.runner import get_runner

    fn = ALL_EXPERIMENTS[exp_id]
    runner = get_runner()
    before = runner.cache.stats.snapshot()
    t0 = time.perf_counter()
    result = benchmark.pedantic(lambda: fn(**kwargs), rounds=1,
                                iterations=1)
    wall_s = time.perf_counter() - t0
    after = runner.cache.stats.snapshot()
    cache = {k: after[k] - before[k] for k in after}
    record = _record(exp_id, result, wall_s, runner.workers, cache,
                     runner.cache.persistent)
    _persist(exp_id, result, record)
    print()
    print(f"== {exp_id} ==\n{result.table()}\n")
    benchmark.extra_info["rows"] = len(result.rows)
    benchmark.extra_info["workers"] = runner.workers
    benchmark.extra_info["cache"] = cache
    benchmark.extra_info["cache_persistent"] = runner.cache.persistent
    return result


def main_experiment(exp_id: str, **kwargs):
    """Standalone entry point for one ``bench_experiments.py`` id.

    Prints exactly the experiment table (stdout-compatible with the
    historical ``print(...table())`` main blocks, so golden comparisons
    hold), then persists the ``.txt``/``.json``/summary files.
    """
    from repro.experiments import ALL_EXPERIMENTS
    from repro.runner import get_runner

    fn = ALL_EXPERIMENTS[exp_id]
    runner = get_runner()
    before = runner.cache.stats.snapshot()
    t0 = time.perf_counter()
    result = fn(**kwargs)
    wall_s = time.perf_counter() - t0
    after = runner.cache.stats.snapshot()
    print(result.table())
    cache = {k: after[k] - before[k] for k in after}
    record = _record(exp_id, result, wall_s, runner.workers, cache,
                     runner.cache.persistent)
    _persist(exp_id, result, record)
    return result
