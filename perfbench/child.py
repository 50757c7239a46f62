"""One cold experiment call in a fresh interpreter.

Usage: ``python3 child.py SPEC.json REPORT.json``.  ``run.py`` starts it
with a scrubbed environment whose store directories are fresh, so every
call begins with cold result, checkpoint, plan and trace stores and an
empty in-process memo.  SPEC names the workload, the call's explicit
arguments and whether to trace; REPORT receives wall time, digests,
guard findings, run-log job walls, peak RSS and (traced) layer records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from typing import Any, Dict, List

import numpy

import layers
import workloads


def _canonical(value: Any) -> Any:
    """A SimResult / MulticoreResult as plain data, ``profile`` dropped
    (it carries host timings, not simulated numbers)."""
    data = dataclasses.asdict(value)
    for single in data.get("cores", [data]):
        single.pop("profile", None)
    return data


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def table_digest(table: Any) -> str:
    """Digest of an ExperimentResult, independent of row order."""
    return _digest({"headers": table.headers, "notes": table.notes,
                    "rows": sorted(json.dumps(r, default=repr)
                                   for r in table.rows)})


def results_digest(jobs: List[Any], results: List[Any]) -> str:
    """Digest of every result returned to the parent, by fingerprint."""
    return _digest(sorted({job.fingerprint(): _canonical(res.value)
                           for job, res in zip(jobs, results)}.items()))


def _job_walls() -> Dict[str, float]:
    """fingerprint -> job wall seconds, from this call's run logs."""
    from repro.obs import runlog
    walls: Dict[str, float] = {}
    for run_dir in runlog.list_runs():
        for record in runlog.load_runlog(run_dir / runlog.MERGED):
            if record.get("event") == "job_end":
                walls[record["fingerprint"]] = record["wall_seconds"]
    return walls


def _peak_rss_mb() -> float:
    """Largest max-RSS of this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = workloads.WORKLOADS[spec["workload"]]
    module_name, _, func_name = workload.experiment.rpartition(".")
    experiment = getattr(
        importlib.import_module("repro.experiments." + module_name),
        func_name)
    from repro.checkpoint import get_store
    from repro.runner import SimRunner, get_runner

    tracer = layers.LayerTracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    # Capture what the runner hands back to the experiment, and the
    # parent-side wall of each batch (outside the tracer's wrapper).
    jobs: List[Any] = []
    results: List[Any] = []
    batch_walls: List[float] = []
    inner = SimRunner.run

    def capture(self, batch, *args, **kwargs):
        t0 = time.perf_counter()
        out = inner(self, batch, *args, **kwargs)
        batch_walls.append(time.perf_counter() - t0)
        jobs.extend(batch)
        results.extend(out)
        return out

    SimRunner.run = capture
    try:
        t0 = time.perf_counter()
        table = experiment(**spec["kwargs"])
        wall = time.perf_counter() - t0
    finally:
        SimRunner.run = inner
        if tracer is not None:
            tracer.uninstall()

    guard = workload.guard if spec["guard"] else None
    observed = workloads.Observed(table, jobs, results,
                                  len(get_store().entries()))
    return {
        "wall_s": wall,
        "table": table.table(),
        "rows_digest": table_digest(table),
        "results_digest": results_digest(jobs, results),
        "problems": guard(observed) if guard is not None else [],
        "jobs_requested": len(jobs),
        "jobs_distinct": len({job.fingerprint() for job in jobs}),
        "records_requested": workloads.requested_records(jobs),
        "batch_walls": batch_walls,
        "job_walls": _job_walls(),
        "peak_rss_mb": _peak_rss_mb(),
        "layers": tracer.snapshot() if tracer is not None else None,
        "meta": {
            "nproc": os.cpu_count(),
            "workers": get_runner().workers,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "knobs": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        },
    }


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        report = run(spec)
    except Exception:  # the report carries the failure to the parent
        report = {"error": traceback.format_exc()}
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
