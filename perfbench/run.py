"""The repository benchmark: cold experiment calls, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sc-temporal --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics: the experiment call's
wall time and simulated-record throughput, interpreter set-up time and
peak RSS.  ``--trace 1`` makes one untraced call with the default
process pool and one traced serial call (``REPRO_JOBS=1``) and reports
the per-layer metrics.  Every call runs in a fresh interpreter with
fresh store directories under ``.perfbench-work/`` and no inherited
``REPRO_*`` knobs, and is checked against the digests pinned in
``pins.json`` and against its workload's guard.  The last line of
standard output is one JSON object; see README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402

#: Store locations each call gets fresh (knob -> subdirectory).
DIR_KNOBS = {"REPRO_CACHE_DIR": "cache", "REPRO_CKPT_DIR": "ckpt",
             "REPRO_OBS_DIR": "obs", "REPRO_SAMPLING_DIR": "splans",
             "REPRO_TRACE_DIR": "traces"}
#: Interpreter set-ups timed per end-to-end run (the median is reported).
SETUP_SAMPLES = 5
SETUP_CODE = ("import repro.experiments\n"
              "from repro.runner import SimRunner\n"
              "SimRunner()\n"
              "print('ready', flush=True)\n")
#: Whole-run budget in seconds; no call starts that would overrun it.
DEADLINE_S = 175.0


def hermetic_env(work: Path, serial: bool = False) -> Dict[str, str]:
    """The environment of one call: inherited ``REPRO_*`` knobs dropped,
    every store directory fresh under ``work``, temp files inside it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for knob, sub in DIR_KNOBS.items():
        (work / sub).mkdir(parents=True)
        env[knob] = str(work / sub)
    (work / "tmp").mkdir()
    env["TMPDIR"] = str(work / "tmp")
    env["PYTHONPATH"] = str(ROOT / "src")
    if serial:
        env["REPRO_JOBS"] = "1"
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Kill ``proc``'s whole session (pool workers too) and reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def measure_setup() -> float:
    """Seconds from starting an interpreter until ``repro.experiments``
    is imported and a runner constructed."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        env = hermetic_env(Path(tmp))
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                                cwd=str(ROOT), stdout=subprocess.PIPE,
                                start_new_session=True)
        line = b""
        try:
            if select.select([proc.stdout], [], [], 60)[0]:
                line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        finally:
            proc.stdout.close()
            _stop(proc)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}")
        return elapsed


def call(workload: workloads.Workload, traced: bool,
         timeout: float) -> Dict[str, Any]:
    """One cold experiment call in a child interpreter; its report."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        spec = {"workload": workload.name, "traced": traced,
                "guard": workload.guard is not None,
                "kwargs": workload.kwargs}
        (work / "spec.json").write_text(json.dumps(spec))
        env = hermetic_env(work, serial=traced)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(work / "spec.json"),
             str(work / "report.json")],
            env=env, cwd=str(ROOT), start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"call exceeded {timeout:.0f}s"}
        finally:
            _stop(proc)
        report_path = work / "report.json"
        if proc.returncode != 0 or not report_path.is_file():
            return {"error": f"child exited {proc.returncode}"}
        return json.loads(report_path.read_text())


def check(report: Dict[str, Any],
          pin: Optional[Dict[str, str]]) -> List[str]:
    """Why this call's operation failed (empty: it succeeded).  With
    ``pin`` None the digests are not compared (smoke runs)."""
    if "error" in report:
        return [report["error"].strip().splitlines()[-1]]
    problems = list(report["problems"])
    if pin is not None:
        for key in ("rows_digest", "results_digest"):
            if report[key] != pin.get(key):
                problems.append(f"{key} {report[key][:16]} != pinned "
                                f"{str(pin.get(key))[:16]}")
    return problems


# -- end to end ---------------------------------------------------------------

def end_to_end(workload: workloads.Workload, seconds: float,
               pin: Optional[Dict[str, str]], t_start: float
               ) -> Dict[str, Any]:
    """Set-up samples, then as many cold calls as fit in ``seconds``."""
    attempted, failed, problems = 0, 0, []
    setups = []
    for _ in range(SETUP_SAMPLES):
        attempted += 1
        try:
            setups.append(measure_setup())
        except RuntimeError as exc:
            failed += 1
            problems.append(f"setup: {exc}")
    reports: List[Dict[str, Any]] = []
    t_calls = time.perf_counter()
    while True:
        t_call = time.perf_counter()
        attempted += 1
        report = call(workload, traced=False,
                      timeout=DEADLINE_S - (t_call - t_start))
        reports.append(report)
        found = check(report, pin)
        failed += bool(found)
        problems += found
        # Start another call only if it should end within ``seconds``
        # (and well within the run's deadline); there is always one.
        now = time.perf_counter()
        last = now - t_call
        if found or now - t_calls + last > seconds or \
                now - t_start + 1.5 * last > DEADLINE_S:
            break
    good = [r for r in reports if "error" not in r]
    walls = [r["wall_s"] for r in good] or [0.0]
    wall = statistics.median(walls)
    records = workload.nominal_records or \
        (good[0]["records_requested"] if good else 0)
    metrics = {
        "wall_s": (wall, "s"),
        "sim_accesses_per_s": (records / wall if wall else 0.0, "1/s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (max((r["peak_rss_mb"] for r in good), default=0.0),
                        "MB"),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "reports": reports,
            "samples": {"calls": len(walls), "setups": len(setups)}}


# -- per layer ----------------------------------------------------------------

#: Ratios derived from outcome counts: name -> (function, outcome, base).
#: ``base`` None means the function's call count.
RATIOS = {
    "memory.cache.L1D.hit_ratio": ("memory.cache.lookup", "L1D.hit", "L1D"),
    "memory.cache.L2.hit_ratio": ("memory.cache.lookup", "L2.hit", "L2"),
    "memory.cache.LLC.hit_ratio": ("memory.cache.lookup", "LLC.hit", "LLC"),
    "prefetchers.pairwise.hit_ratio": ("prefetchers.pairwise.lookup", "hit",
                                       None),
    "core.metadata_store.hit_ratio": ("core.metadata_store.lookup", "hit",
                                      None),
    "memory.hierarchy.issue_prefetch.drop_ratio": (
        "memory.hierarchy.issue_prefetch", "dropped", None),
    "runner.cache.hit_ratio": ("runner.cache.get", "hit", None),
}
#: Functions whose calls are also split by cache level.
BY_LEVEL = ("memory.cache.lookup", "memory.cache.fill", "memory.cache.probe")
LEVELS = ("L1D", "L2", "LLC")


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {"trace.wall_s": "s", "trace_overhead": "ratio",
                             "runner.parallel_efficiency": "ratio"}
    for target in layers.TARGETS:
        units[target.name + ".calls"] = "count"
        units[target.name + ".self_pct"] = "%"
        if target.name in BY_LEVEL:
            for level in LEVELS:
                units[f"{target.name}.{level}.calls"] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    return units


def layer_metrics(untraced: Dict[str, Any],
                  traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from one untraced and one traced report."""
    records = traced["layers"]
    wall = traced["wall_s"]
    out: Dict[str, float] = {"trace.wall_s": wall}
    # Per-job walls, matched by fingerprint: the untraced call ran on
    # the pool and the traced one serially, so whole-call walls differ
    # by the parallelism, not just the tracing.
    common = set(untraced["job_walls"]) & set(traced["job_walls"])
    base = sum(untraced["job_walls"][fp] for fp in common)
    out["trace_overhead"] = \
        sum(traced["job_walls"][fp] for fp in common) / base - 1 \
        if base else 0.0
    parent = sum(untraced["batch_walls"])
    workers = untraced["meta"]["workers"]
    out["runner.parallel_efficiency"] = \
        sum(untraced["job_walls"].values()) / (workers * parent) \
        if parent else 0.0
    for target in layers.TARGETS:
        rec = records[target.name]
        out[target.name + ".calls"] = rec["calls"]
        out[target.name + ".self_pct"] = 100.0 * rec["self_s"] / wall
        if target.name in BY_LEVEL:
            for level in LEVELS:
                out[f"{target.name}.{level}.calls"] = \
                    rec["outcomes"].get(level, 0)
    for name, (fn, hit, denom) in RATIOS.items():
        rec = records[fn]
        total = rec["outcomes"].get(denom, 0) if denom else rec["calls"]
        out[name] = rec["outcomes"].get(hit, 0) / total if total else 0.0
    return out


def per_layer(workload: workloads.Workload,
              pin: Optional[Dict[str, str]], t_start: float
              ) -> Dict[str, Any]:
    """One untraced pooled call, then one traced serial call."""
    untraced = call(workload, traced=False, timeout=DEADLINE_S / 3)
    problems = check(untraced, pin)
    failed = int(bool(problems))
    traced: Dict[str, Any] = {"error": "not run: the untraced call failed"}
    if not problems:
        remaining = DEADLINE_S - (time.perf_counter() - t_start)
        traced = call(workload, traced=True, timeout=remaining)
        found = check(traced, pin)
        if not found:
            # Tracing observes only: the simulated numbers must not move.
            found = [f"traced {key} differs from untraced"
                     for key in ("rows_digest", "results_digest")
                     if traced[key] != untraced[key]]
        failed += bool(found)
        problems += found
    values = layer_metrics(untraced, traced) if not problems else {}
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit in layer_metric_units().items()}
    return {"attempted": 2, "failed": failed, "problems": problems,
            "metrics": metrics, "reports": [untraced, traced],
            "samples": {"calls": 2}}


# -- reporting ------------------------------------------------------------------

def print_report(workload: workloads.Workload, seed: int, trace: bool,
                 outcome: Dict[str, Any]) -> None:
    first = next((r for r in outcome["reports"] if "meta" in r), None)
    print(f"== perfbench {workload.name} seed={seed} "
          f"trace={int(trace)} samples={outcome['samples']}")
    print(f"call: {workload.experiment}(**{workload.kwargs})")
    if first is not None:
        print(f"meta: rev={_git_rev()} nproc={first['meta']['nproc']} "
              f"workers={first['meta']['workers']} "
              f"python={first['meta']['python']} "
              f"numpy={first['meta']['numpy']} "
              f"knobs={first['meta']['knobs']}")
        print(f"jobs: requested={first['jobs_requested']} "
              f"distinct={first['jobs_distinct']} "
              f"records={first['records_requested']} "
              f"(nominal {workload.nominal_records})")
        print(f"digests: rows={first['rows_digest'][:16]} "
              f"results={first['results_digest'][:16]}")
    if trace and not outcome["problems"]:
        traced = outcome["reports"][1]["layers"]
        print(f"{'function':40s} {'calls':>10s} {'self_s':>9s} "
              f"{'self_pct':>8s}")
        for name, rec in sorted(traced.items(),
                                key=lambda kv: -kv[1]["self_s"]):
            pct = outcome["metrics"][name + ".self_pct"][0]
            print(f"{name:40s} {rec['calls']:10d} {rec['self_s']:9.3f} "
                  f"{pct:8.2f}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in outcome["problems"]:
        print(f"FAILED: {problem}")


def _git_rev() -> str:
    """The checkout's git revision, or "none" outside a repository
    (the search stops at the checkout root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=str(ROOT), env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help="record this run's digests in pins.json "
                             "(guards must still pass)")
    args = parser.parse_args(argv)
    # A terminated run still stops its calls' process groups (the
    # ``finally`` in ``call``) instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pin = None if args.repin else pins.get(workload.name, {})
    try:
        if args.trace:
            outcome = per_layer(workload, pin, t_start)
        else:
            outcome = end_to_end(workload, args.seconds, pin, t_start)
    finally:
        try:
            WORK.rmdir()  # each call removed its own subdirectory
        except OSError:
            pass
    if args.repin and not outcome["failed"]:
        first = outcome["reports"][0]
        pins[workload.name] = {k: first[k]
                               for k in ("rows_digest", "results_digest")}
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print_report(workload, args.seed, bool(args.trace), outcome)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
