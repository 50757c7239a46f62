"""Sampling bench: paper-scale access reduction + observed error margins.

Two claims, asserted every run:

1. **Reduction** — at paper scale (``PAPER_N`` accesses) the sampling
   plan simulates at least :data:`MIN_REDUCTION` x fewer accesses than
   a full run (warm-up included in the numerator; planning is a
   feature-extraction pass over the chunk pipeline, no simulation).
2. **Accuracy** — sampled-vs-full on the default validation grid stays
   inside every declared per-metric error bound (the same check
   ``python -m repro sampling validate`` exits non-zero on).

Writes ``results/sampling.json`` and folds the headline numbers into
``results/BENCH_summary.json``.  ``REPRO_QUICK=1`` shrinks the
validation grid to its cheapest row; the reduction claim is always
checked at paper scale (planning cost is seconds either way).

Run standalone: ``python benchmarks/bench_sampling.py``
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import RESULTS_DIR, SUMMARY, _atomic_write_json  # noqa: E402

#: Paper-scale trace length for the reduction claim.  The paper's
#: traces are hundreds of millions of accesses; 2M is the smallest
#: scale at which the fixed per-representative cost (warm-up dominates:
#: 8 intervals of warm-up + 1 of measurement per representative) is
#: honestly amortized the way it would be at full scale.
PAPER_N = 2_000_000
MIN_REDUCTION = 5.0
PAPER_WORKLOAD = "gap.pr"


def _validation_grid():
    """``(workloads, arms, n)`` of the sampled-vs-full check: the full
    default grid, or its cheapest row under ``REPRO_QUICK``."""
    from repro.experiments.common import quick_mode
    from repro.runner import spec
    from repro.__main__ import VALIDATE_ARMS, VALIDATE_WORKLOADS

    if quick_mode():
        return [VALIDATE_WORKLOADS[-1]], {"baseline": ()}, 24_000
    arms = {name: tuple(spec(s) for s in l2)
            for name, l2 in VALIDATE_ARMS.items()}
    return VALIDATE_WORKLOADS, arms, 120_000


def _measure():
    from repro.experiments.common import experiment_config, quick_mode
    from repro.runner import spec
    from repro.sampling import PlanStore, get_plan, validate_sampling

    store = PlanStore()  # benchmarks/.splans unless REPRO_SAMPLING_DIR

    t0 = time.perf_counter()
    plan = get_plan(PAPER_WORKLOAD, PAPER_N, store=store)
    plan_secs = time.perf_counter() - t0
    reduction = PAPER_N / max(1, plan.simulated_accesses())
    assert reduction >= MIN_REDUCTION, \
        f"paper-scale reduction {reduction:.1f}x < {MIN_REDUCTION}x " \
        f"({plan.simulated_accesses()} of {PAPER_N} accesses simulated)"

    workloads, arms, v_n = _validation_grid()
    t0 = time.perf_counter()
    rows = validate_sampling(workloads, v_n, experiment_config(), arms,
                             l1=spec("stride"), store=store)
    validate_secs = time.perf_counter() - t0
    violations = [r for r in rows if not r.ok]
    assert not violations, \
        "observed error exceeds declared bound: " + ", ".join(
            f"{r.workload}/{r.arm}/{r.metric} {r.rel_error:.1%} > "
            f"{r.bound:.0%}" for r in violations)
    max_error = max((r.rel_error for r in rows), default=0.0)

    return {
        "paper_workload": PAPER_WORKLOAD,
        "paper_n": PAPER_N,
        "representatives": len(plan.representatives),
        "interval": plan.interval,
        "warmup": plan.warmup,
        "simulated_accesses": plan.simulated_accesses(),
        "reduction": round(reduction, 2),
        "plan_secs": round(plan_secs, 3),
        "validate_n": v_n,
        "validate_checks": len(rows),
        "max_observed_error": round(max_error, 4),
        "validate_secs": round(validate_secs, 3),
        "quick": quick_mode(),
        "rows": [{"workload": r.workload, "arm": r.arm,
                  "metric": r.metric, "full": r.full,
                  "estimate": r.estimate, "rel_error": round(
                      r.rel_error, 4), "bound": r.bound}
                 for r in rows],
    }


def _lines(row):
    return [
        f"== sampling == ({row['paper_workload']} at n={row['paper_n']}, "
        f"validation at n={row['validate_n']}"
        f"{', quick' if row['quick'] else ''})",
        f"  representatives     {row['representatives']} x "
        f"(warmup {row['warmup']} + interval {row['interval']})",
        f"  simulated accesses  {row['simulated_accesses']} / "
        f"{row['paper_n']}  ({row['reduction']:.1f}x reduction, "
        f"plan in {row['plan_secs']:.1f}s)",
        f"  observed error      max {row['max_observed_error']:.1%} "
        f"over {row['validate_checks']} checks "
        f"(validate in {row['validate_secs']:.1f}s)",
    ]


def _persist(row):
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"schema": 1,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **row}
    _atomic_write_json(RESULTS_DIR / "sampling.json", record)
    summary_path = RESULTS_DIR / SUMMARY
    summary = {"schema": 1, "benches": {}}
    if summary_path.is_file():
        try:
            loaded = json.loads(summary_path.read_text(encoding="utf-8"))
            if isinstance(loaded.get("benches"), dict):
                summary["benches"] = loaded["benches"]
                summary["schema"] = loaded.get("schema", 1)
        except (json.JSONDecodeError, OSError):
            pass  # corrupt summary: rebuild from this run onward
    summary["updated"] = record["timestamp"]
    summary["benches"]["sampling"] = {
        "timestamp": record["timestamp"],
        "reduction": row["reduction"],
        "max_observed_error": row["max_observed_error"],
        "wall_seconds": row["validate_secs"],
    }
    _atomic_write_json(summary_path, summary)


def test_sampling_smoke(benchmark):
    row = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    print("\n".join(_lines(row)))
    benchmark.extra_info.update(
        {k: v for k, v in row.items() if k != "rows"})
    _persist(row)


def main() -> None:
    row = _measure()
    text = "\n".join(_lines(row)) + "\n"
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sampling.txt").write_text(text)
    _persist(row)


if __name__ == "__main__":
    main()
