"""Trace-store generation CLI.

``python -m repro.tracestream gen <workload> --n N`` generates a
workload's trace into the store (streaming, constant memory) and
reports throughput.  ``python -m repro.store traces list|verify|gc``
maintains the store.
"""

from __future__ import annotations

import argparse
import sys
import time

from .store import TraceStore


def cmd_gen(store: TraceStore, args) -> int:
    from ..workloads import DEFAULT_SEED, make_chunks

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if store.has(args.workload, args.n, seed) and not args.force:
        print(f"{args.workload} n={args.n} seed={seed}: already stored")
        return 0
    t0 = time.perf_counter()
    trace = store.put(args.workload, args.n, seed,
                      make_chunks(args.workload, args.n, seed))
    wall = time.perf_counter() - t0
    rate = args.n / wall / 1e6 if wall else float("inf")
    print(f"stored {args.workload} n={args.n} seed={seed}: "
          f"{len(trace):,} records in {wall:.2f}s ({rate:.1f}M rec/s) "
          f"→ {trace.directory}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tracestream",
        description="Generate traces into the on-disk trace store.")
    parser.add_argument("--dir", default=None,
                        help="store root (default: REPRO_TRACE_DIR or "
                             "benchmarks/.traces)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("gen", help="generate a workload into the store")
    p_gen.add_argument("workload")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--force", action="store_true",
                       help="regenerate even if already stored")
    args = parser.parse_args(argv)
    return cmd_gen(TraceStore(args.dir), args)


if __name__ == "__main__":
    sys.exit(main())
