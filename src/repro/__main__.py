"""The command line: ``python -m repro <subsystem> <verb>``.

One argparse tree covers every subsystem; each verb parses its
arguments, calls the library and prints.  ``python -m repro --help``
lists the subsystems and ``python -m repro <subsystem> --help`` their
verbs::

    experiments  list | <id>... | all | report [DIR] [OUT]
    store        <store> [--dir D] list | verify [KEY] | gc [--keep N]
    obs          list | report [RUN | --compare A B | --trace ID]
                 [--json] [--top N]
    serve        run [--host H] [--port P] | ping [URL] [--wait S]
    sampling     plan <workload> | run <workload> | validate
    telemetry    run <workload> | validate <file.jsonl>
    checkpoint   inspect <key>

Every store sits under its ``REPRO_*_DIR`` knob; ``store ... --dir``
names another directory.  Experiments scale with ``REPRO_N`` /
``REPRO_QUICK=1`` and run on ``REPRO_JOBS`` workers (see
:mod:`repro.experiments.common`).

Exit codes: 0 ok, 1 a check failed or nothing matched, 2 a usage
error.  Bad input (an unknown experiment, workload or prefetcher, a
store key that is not a plain name, a count out of range, a port
outside 0-65535, a missing file) is rejected while parsing, with
``error:`` on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .checkpoint.store import CheckpointStore
from .envknobs import env_url
from .experiments import ALL_EXPERIMENTS
from .experiments.common import experiment_config, job_runner
from .experiments.report import TITLES, assemble, collect
from .obs import report, runlog
from .runner import ResultCache, SimJob, SimRunner, get_runner, spec
from .runner.specs import resolve
from .sampling import PlanStore, get_plan, run_sampled, validate_sampling
from .serve import JobBroker, Server, ServeClient, ServeRunner, \
    ServeUnavailable
from .sim.config import SystemConfig
from .store import Store, StoreCorrupt, check_key
from .telemetry import TelemetryConfig
from .telemetry.export import SCHEMA, load_schema, validate_jsonl, \
    write_jsonl
from .telemetry.report import render as render_telemetry
from .tracestream.store import TraceStore
from .workloads import DEFAULT_SEED, names

#: Store name -> constructor over a directory (None: the store's knob,
#: else its default).
STORES: Dict[str, Callable[[Optional[pathlib.Path]], Store]] = {
    "results": lambda directory: ResultCache(directory, persistent=True),
    "checkpoints": CheckpointStore, "plans": PlanStore,
    "traces": TraceStore}

#: The port ``serve run`` binds unless ``--port`` names another.
DEFAULT_PORT = 8023

#: The default ``sampling validate`` grid: a pointer chase, a scan mix,
#: and a graph kernel, against no-L2-prefetch and the paper's
#: streamlined design.  Pure streams are deliberately absent: with an
#: over-fetching prefetcher their DRAM queue backlog accumulates over
#: the whole run, which bounded warm-up cannot reproduce (see DESIGN.md
#: §9, "Limits").
VALIDATE_WORKLOADS = ["06.omnetpp", "06.mcf", "gap.pr"]
VALIDATE_ARMS = {"baseline": (), "streamline": ("streamline",)}


# -- argument types: bad input is a usage error (exit 2) -----------------------

def _key(text: str) -> str:
    """A store key: a plain name (:func:`repro.store.check_key`)."""
    try:
        return check_key(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(text: str) -> int:
    """An integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """An integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def _power_of_two(text: str) -> int:
    """An integer power of two (1, 2, 4, ...)."""
    if not text.isdecimal() or bin(int(text)).count("1") != 1:
        raise argparse.ArgumentTypeError(
            f"must be a power of two, got {text!r}")
    return int(text)


def _port(text: str) -> int:
    """A TCP port, 0 (OS-assigned) to 65535."""
    if not text.isdecimal() or int(text) > 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port from 0 to 65535, got {text!r}")
    return int(text)


def _workload(text: str) -> str:
    """A workload name."""
    if text not in names():
        raise argparse.ArgumentTypeError(
            f"unknown workload {text!r}; choose from "
            f"{', '.join(names())}")
    return text


def _prefetcher(text: str) -> str:
    """A prefetcher spec name (:func:`repro.runner.specs.resolve`)."""
    try:
        resolve(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _prefetcher_or_none(text: str) -> str:
    """A prefetcher spec name, or ``''`` for none."""
    return _prefetcher(text) if text else text


def _experiment(text: str) -> str:
    """An experiment id."""
    if text not in ALL_EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {text!r} (see `python -m repro "
            f"experiments list`)")
    return text


def _file(text: str) -> pathlib.Path:
    """The path of an existing file."""
    path = pathlib.Path(text)
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return path


def _l2(names: Sequence[str]):
    return tuple(spec(name) for name in names)


# -- experiments ---------------------------------------------------------------

def experiments_list(args: argparse.Namespace) -> int:
    for name in ALL_EXPERIMENTS:
        print(f"  {name:<8} {TITLES[name]}")
    return 0


def experiments_run(args: argparse.Namespace) -> int:
    targets = list(ALL_EXPERIMENTS) if args.verb == "all" \
        else [args.verb, *args.more]
    for name in targets:
        t0 = time.time()
        result = ALL_EXPERIMENTS[name]()
        print(f"== {name} ({time.time() - t0:.1f}s) ==")
        print(result.table())
        print()
    # Report the runner that ran the jobs: a job server keeps its own
    # counters (its /metrics), the local runner ran nothing.
    runner = job_runner()
    if isinstance(runner, ServeRunner):
        print(f"[runner] server={runner.client.base_url}")
        return 0
    local = get_runner()
    stats = local.cache.stats.snapshot()
    print(f"[runner] workers={local.workers} "
          + " ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


def experiments_report(args: argparse.Namespace) -> int:
    if not args.results_dir.is_dir():
        print(f"no results directory at {args.results_dir}; run the "
              f"benches first (pytest benchmarks/ --benchmark-only)",
              file=sys.stderr)
        return 1
    text = assemble(collect(args.results_dir))
    args.out.write_text(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


# -- store ---------------------------------------------------------------------

def store_list(args: argparse.Namespace) -> int:
    store = STORES[args.store](args.dir)
    keys = store.entries()
    print(f"{len(keys)} {store.name} entr{'y' if len(keys) == 1 else 'ies'}"
          f" under {store.directory}")
    for key in keys:
        try:
            status = f"{store.verify(key) / 1024.0:10.1f} KiB"
        except FileNotFoundError:
            status = "MISSING"
        except StoreCorrupt as exc:
            status = f"CORRUPT ({exc})"
        print(f"  {key}  {status}")
    return 0


def store_verify(args: argparse.Namespace) -> int:
    store = STORES[args.store](args.dir)
    keys = [args.key] if args.key else store.entries()
    bad = 0
    for key in keys:
        try:
            store.verify(key)
        except FileNotFoundError:
            print(f"  missing {key}", file=sys.stderr)
            bad += 1
        except StoreCorrupt as exc:
            print(f"  CORRUPT {key}: {exc}", file=sys.stderr)
            bad += 1
        else:
            print(f"  ok      {key}")
    print(f"{len(keys) - bad} of {len(keys)} {store.name} entries ok "
          f"under {store.directory}")
    return 1 if bad else 0


def store_gc(args: argparse.Namespace) -> int:
    store = STORES[args.store](args.dir)
    removed = store.gc(keep=args.keep)
    print(f"removed {len(removed)} from {store.name} under "
          f"{store.directory}")
    for name in removed:
        print(f"  {name}")
    return 0


# -- obs -----------------------------------------------------------------------

def _resolve_run(prefix: Optional[str]) -> Optional[pathlib.Path]:
    """The run directory ``prefix`` names uniquely (the latest run when
    it is None), or None after saying on stderr why not."""
    runs = runlog.list_runs()
    if not runs:
        print("no merged runs under", runlog.obs_dir(), file=sys.stderr)
        return None
    if not prefix:
        return runs[-1]
    matches = [r for r in runs if r.name.startswith(prefix)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        print(f"no run matches {prefix!r}; try `python -m repro obs "
              f"list`", file=sys.stderr)
    else:
        print(f"{prefix!r} is ambiguous:", file=sys.stderr)
        for r in matches:
            print(" ", r.name, file=sys.stderr)
    return None


def obs_list(args: argparse.Namespace) -> int:
    runs = runlog.list_runs()
    if not runs:
        print("no merged runs under", runlog.obs_dir())
        return 0
    print(f"{'run':<32} {'started':<19} {'jobs':>5} {'exec':>5} "
          f"{'cache':>5} {'shards':>6} {'prof':>5} {'wall':>9}")
    for run_dir in runs:
        summary = report.summarize(run_dir)
        cached = summary.memo_hits + summary.disk_hits
        started = time.strftime(
            "%Y-%m-%d %H:%M:%S",
            time.localtime(summary.started)) if summary.started else "-"
        print(f"{summary.run_id:<32} {started:<19} {summary.total:>5} "
              f"{summary.executed:>5} {cached:>5} {summary.shards:>6} "
              f"{len(summary.profiled_jobs):>5} "
              f"{summary.wall_seconds:>8.2f}s")
    return 0


def obs_report(args: argparse.Namespace) -> int:
    if args.compare and args.json:
        print("python -m repro obs report: error: --json does not "
              "apply to --compare", file=sys.stderr)
        return 2
    if args.trace:
        try:
            records = report.collect_trace(args.trace)
        except ValueError as exc:  # an ambiguous prefix
            print(exc, file=sys.stderr)
            return 1
        if not records:
            print(f"no records carry trace {args.trace!r} under "
                  f"{runlog.obs_dir()}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(report.trace_to_json(args.trace, records),
                             indent=2, sort_keys=True))
        else:
            print(report.render_trace(args.trace, records))
        return 0
    if args.compare:
        dir_a = _resolve_run(args.compare[0])
        dir_b = _resolve_run(args.compare[1])
        if dir_a is None or dir_b is None:
            return 1
        print(report.render_compare(report.summarize(dir_a),
                                    report.summarize(dir_b),
                                    top=args.top))
        return 0
    run_dir = _resolve_run(args.run_id)
    if run_dir is None:
        return 1
    summary = report.summarize(run_dir)
    if args.json:
        print(json.dumps(summary.to_json(top=args.top),
                         indent=2, sort_keys=True))
    else:
        print(report.render(summary, top=args.top))
    return 0


# -- serve ---------------------------------------------------------------------

def serve_run(args: argparse.Namespace) -> int:
    runner = SimRunner(jobs=args.jobs)
    broker = JobBroker(runner=runner, max_batch=args.max_batch)
    server = Server(broker, host=args.host, port=args.port)
    cache = broker.cache
    where = cache.directory if cache.persistent else "memory-only"

    async def serve() -> None:
        await server.start()
        print(f"repro.serve listening on {server.url} "
              f"({runner.workers} worker(s), cache {where})", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("repro.serve: shutting down", flush=True)
    return 0


def serve_ping(args: argparse.Namespace) -> int:
    url = args.url or env_url("REPRO_SERVE_URL")
    if not url:
        print("python -m repro serve ping: error: no URL given and "
              "REPRO_SERVE_URL unset", file=sys.stderr)
        return 2
    client = ServeClient(url, timeout=5.0)
    deadline = time.monotonic() + args.wait
    while True:
        try:
            payload = client.healthz()
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        except ServeUnavailable as exc:
            if time.monotonic() >= deadline:
                print(f"ping: {exc}", file=sys.stderr)
                return 1
            time.sleep(0.2)


# -- sampling ------------------------------------------------------------------

def sampling_plan(args: argparse.Namespace) -> int:
    plan = get_plan(args.workload, args.n, seed=args.seed,
                    interval=args.interval, k=args.k)
    store = PlanStore()
    print(f"plan {plan.key}")
    print(f"  stored at    {store.path(plan.key)}")
    print(f"  digest       {plan.digest()[:16]}")
    print(f"  interval     {plan.interval}  warmup {plan.warmup}")
    print(f"  candidates   {plan.num_candidates}  k {plan.k}")
    print(f"  simulated    {plan.simulated_accesses()} / {plan.n} "
          f"accesses ({plan.n / max(1, plan.simulated_accesses()):.1f}x "
          f"reduction)")
    for rep in plan.representatives:
        print(f"  rep @{rep.start:>10}  weight {rep.weight:.3f}  "
              f"(cluster size {rep.size})")
    return 0


def sampling_run(args: argparse.Namespace) -> int:
    est = run_sampled(args.workload, args.n, experiment_config(),
                      l1=spec(args.l1), l2=_l2(args.l2 or []),
                      seed=args.seed, interval=args.interval, k=args.k)
    print(f"{est.workload} n={est.n}: {est.representatives} "
          f"representatives, {est.simulated_accesses} simulated "
          f"accesses ({est.access_reduction:.1f}x reduction)")
    for name, me in est.metrics.items():
        bound = "" if me.bound is None else f"  (bound {me.bound:.0%})"
        print(f"  {name:<14} {me.estimate:.6f} +/- {me.ci95:.6f}"
              f"{bound}")
    return 0


def sampling_validate(args: argparse.Namespace) -> int:
    workloads = args.workloads or VALIDATE_WORKLOADS
    arms = {name: _l2(l2) for name, l2 in VALIDATE_ARMS.items()}
    rows = validate_sampling(workloads, args.n, experiment_config(),
                             arms, l1=spec(args.l1), seed=args.seed,
                             interval=args.interval, k=args.k)
    failures = 0
    print(f"{'workload':<14} {'arm':<11} {'metric':<14} "
          f"{'full':>9} {'sampled':>9} {'err':>7} {'bound':>7}")
    for row in rows:
        flag = "" if row.ok else "  EXCEEDED"
        failures += 0 if row.ok else 1
        print(f"{row.workload:<14} {row.arm:<11} {row.metric:<14} "
              f"{row.full:>9.5f} {row.estimate:>9.5f} "
              f"{row.rel_error:>6.1%} {row.bound:>6.0%}{flag}")
    worst = max((r.rel_error for r in rows), default=0.0)
    print(f"worst observed error {worst:.1%} over {len(rows)} checks")
    if failures:
        print(f"FAIL: {failures} observed errors exceed their declared "
              f"bounds", file=sys.stderr)
        return 1
    print("OK: every observed error is within its declared bound")
    return 0


# -- telemetry -----------------------------------------------------------------

def telemetry_run(args: argparse.Namespace) -> int:
    tcfg = TelemetryConfig(interval=args.interval)
    config = SystemConfig().scaled_down(args.scale).scaled(telemetry=tcfg)
    l2 = (spec(args.prefetcher),) if args.prefetcher else ()
    job = SimJob.single(args.workload, args.n, config, l1=args.l1, l2=l2,
                        seed=args.seed, probes=("telemetry",))
    payload = get_runner().run_one(job).probes["telemetry"]
    print(f"== {job.fingerprint()[:16]} "
          f"{args.workload} [{args.prefetcher or 'no L2 pf'}] ==")
    print(render_telemetry(payload, max_rows=args.rows))
    if args.jsonl:
        n = write_jsonl(payload, args.jsonl)
        print(f"\nwrote {n} records to {args.jsonl}")
    return 0


def telemetry_validate(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema) if args.schema else SCHEMA
    errors = validate_jsonl(args.path, schema)
    if errors:
        for err in errors:
            print(f"INVALID: {err}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid")
    return 0


# -- checkpoint ----------------------------------------------------------------

def _tree_summary(state: Any) -> str:
    """One-line shape description of a state tree node."""
    if isinstance(state, dict):
        return "{" + ", ".join(sorted(state)) + "}"
    if isinstance(state, list):
        return f"list[{len(state)}]"
    return type(state).__name__


def checkpoint_inspect(args: argparse.Namespace) -> int:
    loaded = CheckpointStore().get_with_meta(args.key)
    if loaded is None:
        print(f"no (readable) checkpoint {args.key!r}", file=sys.stderr)
        return 1
    meta, state = loaded
    print(json.dumps(meta, indent=2, sort_keys=True))
    if isinstance(state, dict):
        for key in sorted(state):
            print(f"  state[{key!r}]: {_tree_summary(state[key])}")
    else:
        print(f"  state: {_tree_summary(state)}")
    return 0


# -- the parser ----------------------------------------------------------------

def _verbs(parser: argparse.ArgumentParser, dest: str = "verb"):
    return parser.add_subparsers(dest=dest, required=True,
                                 metavar=dest.upper())


def _add_experiments(sub) -> None:
    p = sub.add_parser("experiments",
                       help="regenerate the paper's tables and figures")
    verbs = _verbs(p)
    verbs.add_parser("list", help="experiment ids and what each shows") \
        .set_defaults(run=experiments_list)
    v = verbs.add_parser("report", help="assemble the benches' result "
                                        "tables into one markdown report")
    v.add_argument("results_dir", nargs="?", type=pathlib.Path,
                   default=pathlib.Path("benchmarks/results"))
    v.add_argument("out", nargs="?", type=pathlib.Path,
                   default=pathlib.Path("benchmarks/results/REPORT.md"))
    v.set_defaults(run=experiments_report)
    verbs.add_parser("all", help="run every experiment") \
        .set_defaults(run=experiments_run)
    for name in ALL_EXPERIMENTS:
        v = verbs.add_parser(name, help=TITLES[name])
        v.add_argument("more", nargs="*", type=_experiment, metavar="ID",
                       help="further experiments to run")
        v.set_defaults(run=experiments_run)


def _add_store(sub) -> None:
    p = sub.add_parser("store", help="list, verify and garbage-collect "
                                     "the on-disk stores")
    p.add_argument("store", choices=sorted(STORES))
    p.add_argument("--dir", type=pathlib.Path, default=None,
                   help="store directory (default: the store's "
                        "REPRO_*_DIR knob or benchmarks/.<name>)")
    verbs = _verbs(p)
    verbs.add_parser("list", help="list entries, oldest first") \
        .set_defaults(run=store_list)
    v = verbs.add_parser("verify", help="check entries in full; exit 1 "
                                        "on a missing or corrupt one")
    v.add_argument("key", nargs="?", default=None, type=_key,
                   help="one key (default: every entry)")
    v.set_defaults(run=store_verify)
    v = verbs.add_parser("gc", help="remove corrupt entries and stale "
                                    "temporaries")
    v.add_argument("--keep", type=_count, default=None,
                   help="also remove all but the N most recent entries")
    v.set_defaults(run=store_gc)


def _add_obs(sub) -> None:
    p = sub.add_parser("obs", help="run logs, span profiles and reports")
    verbs = _verbs(p)
    verbs.add_parser("list", help="merged runs, oldest first") \
        .set_defaults(run=obs_list)
    v = verbs.add_parser("report", help="markdown report for one run: "
                                        "jobs, components, phases, "
                                        "spans, metrics")
    what = v.add_mutually_exclusive_group()
    what.add_argument("run_id", nargs="?", default=None,
                      help="run id prefix (default: latest run)")
    what.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      default=None,
                      help="diff two runs (id prefixes) side by side: "
                           "wall, matched jobs, components, phases")
    what.add_argument("--trace", default=None, metavar="TRACE_ID",
                      help="reconstruct one request's span tree across "
                           "every run (full trace id or unique prefix)")
    v.add_argument("--top", type=_count, default=10,
                   help="rows in the slowest-jobs table")
    v.add_argument("--json", action="store_true",
                   help="machine-readable output with stable keys "
                        "(not with --compare)")
    v.set_defaults(run=obs_report)


def _add_serve(sub) -> None:
    p = sub.add_parser("serve", help="run or probe the job server")
    verbs = _verbs(p)
    v = verbs.add_parser("run", help="run a server until interrupted")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=_port, default=DEFAULT_PORT,
                   help=f"bind port (default {DEFAULT_PORT}; "
                        f"0 = OS-assigned)")
    v.add_argument("--jobs", type=_positive, default=None,
                   help="SimRunner worker processes "
                        "(default: REPRO_JOBS / all cores)")
    v.add_argument("--max-batch", type=_positive, default=64,
                   help="max jobs per runner batch (default 64)")
    v.set_defaults(run=serve_run)
    v = verbs.add_parser("ping", help="health-check an instance")
    v.add_argument("url", nargs="?", default=None,
                   help="base URL (default: REPRO_SERVE_URL)")
    v.add_argument("--wait", type=float, default=0.0,
                   help="keep retrying for up to this many seconds")
    v.set_defaults(run=serve_ping)


def _sampling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_positive, default=120_000,
                   help="trace length in accesses (default 120000: "
                        "long enough that the full run's measured "
                        "region is past the cache-fill transient)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--interval", type=_positive, default=None,
                   help="interval length (default: scale with n)")
    p.add_argument("--k", type=_positive, default=None,
                   help="representative count (default: scale with "
                        "candidates)")


def _add_sampling(sub) -> None:
    p = sub.add_parser("sampling",
                       help="representative interval sampling")
    verbs = _verbs(p)
    v = verbs.add_parser("plan", help="build (or restore) a sampling "
                                      "plan and print it")
    v.add_argument("workload", type=_workload)
    _sampling_args(v)
    v.set_defaults(run=sampling_plan)
    v = verbs.add_parser("run", help="sampled execution + extrapolation")
    v.add_argument("workload", type=_workload)
    _sampling_args(v)
    v.add_argument("--l1", type=_prefetcher, default="stride",
                   help="L1 prefetcher spec name (default stride)")
    v.add_argument("--l2", type=_prefetcher, action="append",
                   default=None,
                   help="L2 prefetcher spec name (repeatable; default "
                        "none)")
    v.set_defaults(run=sampling_run)
    v = verbs.add_parser("validate", help="sampled-vs-full error check "
                                          "(exit 1 if any bound is "
                                          "exceeded)")
    v.add_argument("--workloads", nargs="*", type=_workload,
                   default=None)
    _sampling_args(v)
    v.add_argument("--l1", type=_prefetcher, default="stride")
    v.set_defaults(run=sampling_validate)


def _add_telemetry(sub) -> None:
    p = sub.add_parser("telemetry", help="interval/timeliness reports "
                                         "for simulation runs")
    verbs = _verbs(p)
    v = verbs.add_parser("run", help="simulate (or fetch from the result "
                                     "cache) one run with telemetry")
    v.add_argument("workload", type=_workload)
    v.add_argument("--prefetcher", type=_prefetcher_or_none,
                   default="streamline",
                   help="L2 prefetcher spec name ('' for none)")
    v.add_argument("--l1", type=_prefetcher, default="stride")
    v.add_argument("--n", type=_positive, default=40_000)
    v.add_argument("--interval", type=_positive, default=1000)
    v.add_argument("--seed", type=int, default=1234)
    v.add_argument("--scale", type=_power_of_two, default=4,
                   help="hierarchy scale-down factor, a power of two "
                        "(DESIGN.md §4)")
    v.add_argument("--rows", type=int, default=20)
    v.add_argument("--jsonl", help="also export records to this path")
    v.set_defaults(run=telemetry_run)
    v = verbs.add_parser("validate", help="validate a JSONL export; "
                                          "exit 1 if it is invalid")
    v.add_argument("path", type=_file)
    v.add_argument("--schema", type=_file,
                   help="schema JSON (default: the built-in SCHEMA)")
    v.set_defaults(run=telemetry_validate)


def _add_checkpoint(sub) -> None:
    p = sub.add_parser("checkpoint", help="inspect warm-up checkpoints")
    verbs = _verbs(p)
    v = verbs.add_parser("inspect", help="one entry's metadata and "
                                         "state-tree summary")
    v.add_argument("key", type=_key)
    v.set_defaults(run=checkpoint_inspect)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate, inspect, serve and maintain the "
                    "reproduction's results.")
    sub = _verbs(parser, dest="subsystem")
    for add in (_add_experiments, _add_store, _add_obs, _add_serve,
                _add_sampling, _add_telemetry, _add_checkpoint):
        add(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # Output is routinely piped into `head`; a closed pipe is not
        # an error worth a traceback.  Point stdout at devnull so the
        # interpreter-exit flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
