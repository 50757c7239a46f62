"""Perf guard: fail CI when a bench's wall-clock regresses past the floor.

Compares the wall seconds a ``bench_experiments.py <id>`` run just
recorded in ``results/<exp_id>.json`` against the committed baseline
in ``perf_baseline.json``.  A regression beyond the allowed factor
fails the job; faster-than-baseline runs print a hint to refresh the
baseline.

Usage (after the bench ran with the same scale knobs the baseline
records)::

    python benchmarks/perf_guard.py fig9

CI machines are not the baseline machine, so the factor is deliberately
loose (default 1.30: only a >30% regression fails) and can be scaled
for a known-slower runner via ``REPRO_PERF_SCALE`` (e.g. ``1.5`` allows
baseline*1.5*factor).  ``REPRO_PERF_GUARD=0`` skips the check entirely.
Refresh the baseline with ``--update`` (alias: ``--write-baseline``)
after an intentional perf change, and commit the file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE = pathlib.Path(__file__).parent / "perf_baseline.json"

#: A run slower than ``baseline * factor * REPRO_PERF_SCALE`` fails.
DEFAULT_FACTOR = 1.30


def _load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"perf_guard: cannot read {path}: {exc}")


def _wall(exp_id: str) -> float:
    record = _load(RESULTS_DIR / f"{exp_id}.json")
    try:
        return float(record["wall_seconds"])
    except (KeyError, TypeError, ValueError):
        raise SystemExit(
            f"perf_guard: {exp_id}.json has no wall_seconds; "
            "run the bench first")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf_guard.py",
        description="wall-clock regression guard over bench results")
    parser.add_argument("exp_id", help="bench id, e.g. fig9")
    parser.add_argument("--factor", type=float, default=DEFAULT_FACTOR,
                        help="allowed slowdown over baseline "
                             f"(default {DEFAULT_FACTOR})")
    parser.add_argument("--update", "--write-baseline",
                        action="store_true",
                        help="record the current result as the baseline")
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_PERF_GUARD", "") == "0":
        print(f"perf_guard: {args.exp_id}: skipped (REPRO_PERF_GUARD=0)")
        return 0

    wall = _wall(args.exp_id)
    baseline = _load(BASELINE) if BASELINE.is_file() else {"benches": {}}
    baseline.setdefault("benches", {})

    if args.update:
        baseline["benches"][args.exp_id] = {
            "wall_seconds": round(wall, 3),
            "quick": os.environ.get("REPRO_QUICK", ""),
            "n": os.environ.get("REPRO_N", ""),
            "jobs": os.environ.get("REPRO_JOBS", ""),
        }
        BASELINE.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"perf_guard: {args.exp_id}: baseline updated to "
              f"{wall:.3f}s")
        return 0

    entry = baseline["benches"].get(args.exp_id)
    if entry is None:
        print(f"perf_guard: {args.exp_id}: no committed baseline; "
              "run with --update to record one")
        return 0

    ref = float(entry["wall_seconds"])
    scale = float(os.environ.get("REPRO_PERF_SCALE", "") or 1.0)
    limit = ref * scale * args.factor
    verdict = "OK" if wall <= limit else "FAIL"
    print(f"perf_guard: {args.exp_id}: {wall:.3f}s vs baseline "
          f"{ref:.3f}s (limit {limit:.3f}s = baseline"
          f" x{scale:.2f} scale x{args.factor:.2f}) -> {verdict}")
    if wall > limit:
        print(f"perf_guard: {args.exp_id} regressed "
              f"{wall / ref:.2f}x over baseline; if intentional, "
              "refresh with --update and commit perf_baseline.json")
        return 1
    if wall < ref / args.factor:
        print(f"perf_guard: {args.exp_id} is {ref / wall:.2f}x faster "
              "than baseline; consider refreshing with --update")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
