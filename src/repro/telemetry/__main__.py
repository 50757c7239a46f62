"""CLI: telemetry reports for cached or freshly simulated runs.

Usage::

    python -m repro.telemetry run <workload> [--prefetcher streamline]
        [--l1 stride] [--n 40000] [--interval 1000] [--seed 1234]
        [--jsonl out.jsonl]
    python -m repro.telemetry list
    python -m repro.telemetry report <fingerprint-prefix>
        [--jsonl out.jsonl]
    python -m repro.telemetry validate <file.jsonl> [--schema schema.json]

``run`` goes through the shared :class:`~repro.runner.SimRunner`, so a
run you already paid for (same workload/config/probe set) comes straight
from the result cache; ``list``/``report`` browse the on-disk cache for
entries that carry a ``telemetry`` probe payload and render them without
simulating anything.

Heavy imports (runner, workloads) happen inside the subcommands, so
``validate`` works even where numpy is unavailable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from .export import SCHEMA, load_schema, validate_jsonl, write_jsonl
from .report import render


def _cached_payloads(limit: Optional[int] = None
                     ) -> List[Tuple[str, Dict[str, object], object]]:
    """(fingerprint, telemetry payload, JobResult) for cached runs,
    read (and digest-checked) through the result cache."""
    from ..runner import ResultCache
    cache = ResultCache(persistent=True)
    out = []
    for fingerprint in sorted(cache.entries()):
        result = cache.load(fingerprint)
        if result is None:
            continue  # corrupt: the cache evicted it
        payload = result.probes.get("telemetry")
        if isinstance(payload, dict) and payload.get("enabled"):
            out.append((fingerprint, payload, result))
            if limit is not None and len(out) >= limit:
                break
    return out


def _describe(result: object) -> str:
    value = getattr(result, "value", None)
    workload = getattr(value, "workload", None)
    if workload is None:
        cores = getattr(value, "cores", None)
        if cores:
            workload = "+".join(c.workload for c in cores)
    names = [p.name for p in getattr(value, "prefetchers", [])] or ["-"]
    return f"{workload or '?'} [{','.join(names)}]"


def cmd_list(_args: argparse.Namespace) -> int:
    entries = _cached_payloads()
    if not entries:
        print("no cached runs with telemetry payloads "
              "(run one with: python -m repro.telemetry run <workload>)")
        return 0
    for fingerprint, payload, result in entries:
        series = payload.get("intervals") or {}
        samples = len(series.get("index", []))
        print(f"{fingerprint[:16]}  {_describe(result):<40} "
              f"interval={payload.get('interval')} samples={samples}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    matches = [(fp, payload) for fp, payload, _ in _cached_payloads()
               if fp.startswith(args.fingerprint)]
    if not matches:
        print(f"no cached telemetry payload matches {args.fingerprint!r}",
              file=sys.stderr)
        return 1
    if len(matches) > 1:
        print(f"ambiguous prefix {args.fingerprint!r}: "
              + ", ".join(fp[:16] for fp, _ in matches), file=sys.stderr)
        return 1
    fingerprint, payload = matches[0]
    print(f"== {fingerprint[:16]} ==")
    print(render(payload, max_rows=args.rows))
    if args.jsonl:
        n = write_jsonl(payload, args.jsonl)
        print(f"\nwrote {n} records to {args.jsonl}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from ..runner import SimJob, get_runner, spec
    from .config import TelemetryConfig

    # Late import: repro.sim pulls numpy via the trace machinery.
    from ..sim.config import SystemConfig

    tcfg = TelemetryConfig(interval=args.interval)
    config = SystemConfig().scaled_down(args.scale).scaled(telemetry=tcfg)
    l2 = (spec(args.prefetcher),) if args.prefetcher else ()
    job = SimJob.single(args.workload, args.n, config, l1=args.l1, l2=l2,
                        seed=args.seed, probes=("telemetry",))
    result = get_runner().run_one(job)
    payload = result.probes["telemetry"]
    print(f"== {job.fingerprint()[:16]} "
          f"{args.workload} [{args.prefetcher or 'no L2 pf'}] ==")
    print(render(payload, max_rows=args.rows))
    if args.jsonl:
        n = write_jsonl(payload, args.jsonl)
        print(f"\nwrote {n} records to {args.jsonl}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema) if args.schema else SCHEMA
    errors = validate_jsonl(args.path, schema)
    if errors:
        for err in errors:
            print(f"INVALID: {err}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="interval/timeliness reports for simulation runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate (or fetch from cache) "
                                       "one run with telemetry")
    p_run.add_argument("workload")
    p_run.add_argument("--prefetcher", default="streamline",
                       help="L2 prefetcher spec name ('' for none)")
    p_run.add_argument("--l1", default="stride")
    p_run.add_argument("--n", type=int, default=40_000)
    p_run.add_argument("--interval", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=1234)
    p_run.add_argument("--scale", type=int, default=4,
                       help="hierarchy scale-down factor (DESIGN.md §4)")
    p_run.add_argument("--rows", type=int, default=20)
    p_run.add_argument("--jsonl", help="also export records to this path")
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list", help="cached runs carrying telemetry")
    p_list.set_defaults(fn=cmd_list)

    p_rep = sub.add_parser("report", help="render one cached run")
    p_rep.add_argument("fingerprint", help="job fingerprint prefix")
    p_rep.add_argument("--rows", type=int, default=20)
    p_rep.add_argument("--jsonl", help="also export records to this path")
    p_rep.set_defaults(fn=cmd_report)

    p_val = sub.add_parser("validate", help="validate a JSONL export")
    p_val.add_argument("path")
    p_val.add_argument("--schema", help="schema JSON "
                                        "(default: built-in SCHEMA)")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
