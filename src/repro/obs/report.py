"""Cross-run aggregation: runlogs + profiles -> a markdown report.

The runlog gives per-job wall times and cache/prewarm effectiveness;
``job_end`` records carry the span profile when ``REPRO_PROFILE`` was
on.  This module folds one run directory's merged ``runlog.jsonl`` into
a :class:`RunSummary` and renders it as the markdown report behind
``python -m repro obs report``: slowest jobs, time breakdown by
component, cache/checkpoint effectiveness, the nested-span table and
one metrics row folded from the ``job_end`` fields.
Telemetry complements it (what the simulated *hardware* did); the obs
report is about what the *simulator* did.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import runlog


@dataclass
class JobRecord:
    """One executed job, folded from its ``job_start``/``job_end`` pair."""

    fingerprint: str
    workloads: List[str]
    prefetcher: str
    wall_seconds: float
    restored: bool
    pid: int
    profile: Optional[Dict[str, Any]] = None
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    #: Simulated accesses (all cores) and on-disk trace store hits.
    events: int = 0
    trace_store_hits: int = 0

    @property
    def label(self) -> str:
        wl = "+".join(self.workloads) if self.workloads else "?"
        return f"{wl}/{self.prefetcher} [{self.fingerprint[:10]}]"

    def to_json(self) -> Dict[str, Any]:
        """Stable machine-readable form (``--json`` surfaces)."""
        return {"fingerprint": self.fingerprint,
                "workloads": list(self.workloads),
                "prefetcher": self.prefetcher,
                "wall_seconds": self.wall_seconds,
                "restored": self.restored,
                "pid": self.pid,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "events": self.events,
                "trace_store_hits": self.trace_store_hits,
                "profiled": bool(self.profile)}


@dataclass
class RunSummary:
    """Everything the report renders, aggregated from one runlog."""

    run_id: str
    records: List[Dict[str, Any]]
    jobs: List[JobRecord] = field(default_factory=list)
    total: int = 0
    executed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    ckpt_hits: int = 0
    wall_seconds: float = 0.0
    workers: int = 0
    #: Unix timestamp of the earliest record (the run's start time).
    started: float = 0.0
    #: Distinct writer processes seen in the merged log — the shard
    #: count before the merge folded them together.
    shards: int = 0

    @property
    def profiled_jobs(self) -> List[JobRecord]:
        return [j for j in self.jobs if j.profile]

    def components(self) -> Dict[str, Dict[str, Any]]:
        """Per-component self time summed across every profiled job."""
        out: Dict[str, Dict[str, Any]] = {}
        for job in self.profiled_jobs:
            for name, comp in job.profile["components"].items():
                agg = out.setdefault(name, {"seconds": 0.0, "count": 0})
                agg["seconds"] += comp["seconds"]
                agg["count"] += comp["count"]
        return out

    def phases(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for job in self.profiled_jobs:
            for name, seconds in job.profile["phases"].items():
                out[name] = out.get(name, 0.0) + seconds
        return out

    def spans(self) -> Dict[str, Dict[str, Any]]:
        """The nested-span table summed across every profiled job."""
        out: Dict[str, Dict[str, Any]] = {}
        for job in self.profiled_jobs:
            for span in job.profile["spans"]:
                agg = out.setdefault(
                    span["path"], {"total": 0.0, "self": 0.0, "count": 0})
                agg["total"] += span["total"]
                agg["self"] += span["self"]
                agg["count"] += span["count"]
        return out

    def job_metrics(self) -> Dict[str, Any]:
        """The executed jobs' ``job_end`` fields, summed."""
        wall = sum(j.wall_seconds for j in self.jobs)
        events = sum(j.events for j in self.jobs)
        return {
            "wall_seconds": wall,
            "events": events,
            "events_per_second": events / wall if wall > 0 else 0.0,
            "ckpt_restores": sum(j.restored for j in self.jobs),
            "trace_store_hits": sum(j.trace_store_hits
                                    for j in self.jobs),
        }

    def to_json(self, top: int = 10) -> Dict[str, Any]:
        """Stable machine-readable form of the full report."""
        ranked = sorted(self.jobs, key=lambda j: -j.wall_seconds)[:top]
        return {
            "run_id": self.run_id,
            "started": self.started,
            "jobs": self.total,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "ckpt_hits": self.ckpt_hits,
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "shards": self.shards,
            "slowest_jobs": [j.to_json() for j in ranked],
            "components": self.components(),
            "phases": self.phases(),
            "spans": self.spans(),
            "metrics": self.job_metrics(),
        }


def summarize(run_dir: pathlib.Path) -> RunSummary:
    """Fold one merged run directory into a :class:`RunSummary`."""
    run_dir = pathlib.Path(run_dir)
    records = runlog.load_runlog(run_dir / runlog.MERGED)
    summary = RunSummary(run_id=run_dir.name, records=records)
    starts: Dict[str, Dict[str, Any]] = {}
    for rec in records:
        event = rec.get("event")
        if event == "run_start":
            summary.total = int(rec.get("jobs", 0))
            summary.memo_hits = int(rec.get("memo_hits", 0))
            summary.disk_hits = int(rec.get("disk_hits", 0))
            summary.workers = int(rec.get("workers", 0))
        elif event == "run_end":
            summary.wall_seconds = float(rec.get("wall_seconds", 0.0))
            summary.ckpt_hits = int(rec.get("ckpt_hits", 0))
        elif event == "job_start":
            starts[str(rec.get("fingerprint"))] = rec
        elif event == "job_end":
            fp = str(rec.get("fingerprint"))
            start = starts.get(fp, {})
            summary.jobs.append(JobRecord(
                fingerprint=fp,
                workloads=list(rec.get("workloads",
                                       start.get("workloads", []))),
                prefetcher=str(rec.get("prefetcher",
                                       start.get("prefetcher", "?"))),
                wall_seconds=float(rec.get("wall_seconds", 0.0)),
                restored=bool(rec.get("restored", False)),
                pid=int(rec.get("pid", 0)),
                profile=rec.get("profile"),
                trace_id=rec.get("trace_id"),
                span_id=rec.get("span_id"),
                events=int(rec.get("events", 0)),
                trace_store_hits=int(
                    (rec.get("trace_store") or {}).get("hits", 0)),
            ))
    summary.executed = len(summary.jobs)
    summary.started = min((r.get("ts", 0.0) for r in records),
                          default=0.0)
    summary.shards = len({r.get("pid") for r in records
                          if r.get("pid") is not None})
    return summary


# -- markdown rendering --------------------------------------------------------

def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def _secs(seconds: float) -> str:
    return f"{seconds:.3f}s"


def render(summary: RunSummary, top: int = 10) -> str:
    """The full markdown report for one run."""
    lines = [f"# obs report — run {summary.run_id}", ""]

    # Run overview: batch size and where the jobs came from.
    cached = summary.memo_hits + summary.disk_hits
    lines.append("## Run")
    lines.append("")
    lines.extend(_table(
        ["jobs", "executed", "memo hits", "disk hits", "ckpt prewarm",
         "workers", "wall"],
        [[str(summary.total), str(summary.executed),
          str(summary.memo_hits), str(summary.disk_hits),
          str(summary.ckpt_hits), str(summary.workers),
          _secs(summary.wall_seconds)]]))
    if summary.total:
        lines.append("")
        lines.append(
            f"Cache served {cached}/{summary.total} jobs; "
            f"{sum(1 for j in summary.jobs if j.restored)} executed jobs "
            f"restored a warm-up checkpoint.")
    lines.append("")

    # Slowest jobs, by executed wall time.
    if summary.jobs:
        lines.append(f"## Slowest jobs (top {top})")
        lines.append("")
        ranked = sorted(summary.jobs, key=lambda j: -j.wall_seconds)[:top]
        lines.extend(_table(
            ["job", "wall", "ckpt", "pid"],
            [[j.label, _secs(j.wall_seconds),
              "restore" if j.restored else "-", str(j.pid)]
             for j in ranked]))
        lines.append("")

    profiled = summary.profiled_jobs
    if profiled:
        total_wall = sum(j.profile["wall_seconds"] for j in profiled)
        lines.append(f"## Time by component ({len(profiled)} profiled "
                     f"jobs, {_secs(total_wall)} total)")
        lines.append("")
        comps = sorted(summary.components().items(),
                       key=lambda kv: -kv[1]["seconds"])
        lines.extend(_table(
            ["component", "self time", "share", "count"],
            [[name, _secs(comp["seconds"]),
              f"{100 * comp['seconds'] / total_wall:.1f}%"
              if total_wall else "-",
              str(comp["count"])]
             for name, comp in comps]))
        lines.append("")

        lines.append("## Time by phase")
        lines.append("")
        phases = sorted(summary.phases().items(), key=lambda kv: -kv[1])
        lines.extend(_table(
            ["phase", "time", "share"],
            [[name, _secs(seconds),
              f"{100 * seconds / total_wall:.1f}%" if total_wall else "-"]
             for name, seconds in phases]))
        lines.append("")

        lines.append("## Span tree")
        lines.append("")
        rows = []
        for path, agg in sorted(summary.spans().items()):
            depth = path.count("/")
            name = path.rpartition("/")[2]
            rows.append(["&nbsp;" * 2 * depth + name, _secs(agg["total"]),
                         _secs(agg["self"]), str(agg["count"])])
        lines.extend(_table(["span", "total", "self", "count"], rows))
        lines.append("")
    else:
        lines.append("_No span profiles in this run "
                     "(set `REPRO_PROFILE=1` to collect them)._")
        lines.append("")

    # The executed jobs' ``job_end`` fields, summed into one row.
    agg = summary.job_metrics()
    lines.append(f"## Metrics ({summary.executed} executed job(s))")
    lines.append("")
    lines.extend(_table(
        ["wall", "events", "events/s", "ckpt restores",
         "trace store hits"],
        [[_secs(agg["wall_seconds"]), str(agg["events"]),
          f"{agg['events_per_second']:.0f}",
          str(agg["ckpt_restores"]), str(agg["trace_store_hits"])]]))
    lines.append("")

    return "\n".join(lines)


def _delta(a: float, b: float) -> List[str]:
    """[Δ, ratio] cells for a pair of seconds values."""
    ratio = f"x{b / a:.2f}" if a > 0 else "-"
    return [f"{b - a:+.3f}s", ratio]


def render_compare(a: RunSummary, b: RunSummary, top: int = 10) -> str:
    """Side-by-side diff of two runs: overview, per-job wall times
    (matched by fingerprint), and the component/phase breakdowns.

    The canonical use is perf work: run a sweep twice (say before and
    after an engine change), then diff where
    the time went.  ``b`` is read as "after": deltas and ratios are
    ``b`` relative to ``a``.
    """
    lines = [f"# obs compare — {a.run_id} (A) vs {b.run_id} (B)", ""]

    lines.append("## Run")
    lines.append("")
    lines.extend(_table(
        ["", "A", "B", "Δ", "ratio"],
        [["jobs", str(a.total), str(b.total), "-", "-"],
         ["executed", str(a.executed), str(b.executed), "-", "-"],
         ["wall", _secs(a.wall_seconds), _secs(b.wall_seconds)]
         + _delta(a.wall_seconds, b.wall_seconds)]))
    lines.append("")

    # Jobs present in both runs, by |wall delta|.
    jobs_a = {j.fingerprint: j for j in a.jobs}
    jobs_b = {j.fingerprint: j for j in b.jobs}
    common = sorted(
        (fp for fp in jobs_a if fp in jobs_b),
        key=lambda fp: -abs(jobs_b[fp].wall_seconds
                            - jobs_a[fp].wall_seconds))
    if common:
        lines.append(f"## Matched jobs (top {top} by |Δwall|, "
                     f"{len(common)} matched)")
        lines.append("")
        rows = []
        for fp in common[:top]:
            ja, jb = jobs_a[fp], jobs_b[fp]
            rows.append([ja.label, _secs(ja.wall_seconds),
                         _secs(jb.wall_seconds)]
                        + _delta(ja.wall_seconds, jb.wall_seconds))
        lines.extend(_table(["job", "A", "B", "Δ", "ratio"], rows))
        lines.append("")

    ca, cb = a.components(), b.components()
    if ca or cb:
        names = sorted(set(ca) | set(cb),
                       key=lambda n: -max(
                           ca.get(n, {}).get("seconds", 0.0),
                           cb.get(n, {}).get("seconds", 0.0)))
        lines.append("## Components")
        lines.append("")
        rows = []
        for name in names:
            sa = ca.get(name, {}).get("seconds", 0.0)
            sb = cb.get(name, {}).get("seconds", 0.0)
            rows.append([name, _secs(sa), _secs(sb)] + _delta(sa, sb))
        lines.extend(_table(["component", "A", "B", "Δ", "ratio"], rows))
        lines.append("")

    pa, pb = a.phases(), b.phases()
    if pa or pb:
        names = sorted(set(pa) | set(pb),
                       key=lambda n: -max(pa.get(n, 0.0),
                                          pb.get(n, 0.0)))
        lines.append("## Phases")
        lines.append("")
        rows = []
        for name in names:
            sa, sb = pa.get(name, 0.0), pb.get(name, 0.0)
            rows.append([name, _secs(sa), _secs(sb)] + _delta(sa, sb))
        lines.extend(_table(["phase", "A", "B", "Δ", "ratio"], rows))
        lines.append("")

    if not (ca or cb or pa or pb):
        lines.append("_Neither run carries span profiles "
                     "(set `REPRO_PROFILE=1` to collect them)._")
        lines.append("")

    return "\n".join(lines)


# -- trace reconstruction ------------------------------------------------------

def collect_trace(trace_id: str,
                  root: Optional[pathlib.Path] = None) \
        -> List[Dict[str, Any]]:
    """Every record carrying ``trace_id`` (a full id or unique prefix),
    across every merged run under ``root``.

    One request may fan out over several runs (each serve batch is its
    own run directory), so the scan is obs-root-wide, in ``(ts, pid, seq)`` order.  Raises
    ``ValueError`` when a prefix matches more than one trace.
    """
    matched: List[Dict[str, Any]] = []
    ids = set()
    for run_dir in runlog.list_runs(root):
        for rec in runlog.load_runlog(run_dir / runlog.MERGED):
            rec_trace = rec.get("trace_id")
            if isinstance(rec_trace, str) \
                    and rec_trace.startswith(trace_id):
                rec = dict(rec)
                rec["run_id"] = run_dir.name
                matched.append(rec)
                ids.add(rec_trace)
    if len(ids) > 1:
        raise ValueError(
            f"trace prefix {trace_id!r} is ambiguous: "
            f"{', '.join(sorted(ids))}")
    matched.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0),
                                r.get("seq", 0)))
    return matched


def _span_label(records: List[Dict[str, Any]]) -> str:
    """A one-line description of one span from its records."""
    by_event = {r.get("event"): r for r in records}
    if "job_end" in by_event or "job_start" in by_event:
        rec = by_event.get("job_end", by_event.get("job_start"))
        wl = "+".join(rec.get("workloads", [])) or "?"
        fp = str(rec.get("fingerprint", ""))[:10]
        label = f"job {wl}/{rec.get('prefetcher', '?')} [{fp}]"
        if "job_end" in by_event:
            label += f" {_secs(float(by_event['job_end'].get('wall_seconds', 0.0)))}"
        return label
    if "run_start" in by_event or "run_end" in by_event:
        rec = by_event.get("run_start", by_event.get("run_end"))
        label = f"batch run {rec.get('run_id', '?')}"
        if "run_start" in by_event:
            label += (f" ({by_event['run_start'].get('executed', '?')}"
                      f" executed / {by_event['run_start'].get('jobs', '?')}"
                      f" jobs)")
        if "run_end" in by_event:
            label += f" {_secs(float(by_event['run_end'].get('wall_seconds', 0.0)))}"
        return label
    events = " ".join(sorted({str(r.get("event")) for r in records}))
    return f"[{events}]"


def trace_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Group one trace's records into spans and nest them by parentage.

    Returns the root spans; each node is ``{span_id, parent_span,
    pid, label, records, children}``.  Spans whose parent never wrote a
    record (e.g. the client's root span, which lives in another
    process with no runlog writer) become roots.
    """
    spans: Dict[str, Dict[str, Any]] = {}
    for rec in records:
        span_id = rec.get("span_id")
        if not isinstance(span_id, str):
            continue
        node = spans.setdefault(span_id, {
            "span_id": span_id,
            "parent_span": rec.get("parent_span"),
            "pid": rec.get("pid"),
            "records": [],
            "children": []})
        node["records"].append(rec)
    roots: List[Dict[str, Any]] = []
    for node in spans.values():
        node["label"] = _span_label(node["records"])
        parent = node["parent_span"]
        if isinstance(parent, str) and parent in spans:
            spans[parent]["children"].append(node)
        else:
            roots.append(node)

    def first_ts(node: Dict[str, Any]) -> float:
        return min(r.get("ts", 0.0) for r in node["records"])

    for node in spans.values():
        node["children"].sort(key=first_ts)
    roots.sort(key=first_ts)
    return roots


def render_trace(trace_id: str, records: List[Dict[str, Any]]) -> str:
    """The cross-process tree of one request, as indented text."""
    if not records:
        return f"no records carry trace {trace_id}"
    full_id = next(r["trace_id"] for r in records if r.get("trace_id"))
    runs = sorted({str(r.get("run_id")) for r in records})
    roots = trace_tree(records)
    span_count = sum(1 for _ in _walk(roots))
    lines = [f"trace {full_id} — {span_count} span(s), "
             f"{len(records)} record(s), {len(runs)} run(s): "
             f"{', '.join(runs)}"]
    orphaned = [n for n in roots if n["parent_span"]]

    def emit(node: Dict[str, Any], depth: int) -> None:
        note = " (parent span wrote no records)" \
            if depth == 0 and node["parent_span"] else ""
        lines.append(f"{'  ' * depth}- span {node['span_id']} "
                     f"pid {node['pid']}: {node['label']}{note}")
        for child in node["children"]:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    if orphaned:
        lines.append(f"({len(orphaned)} root(s) are children of spans "
                     "that wrote no records — e.g. the submitting "
                     "client's own root span)")
    return "\n".join(lines)


def _walk(nodes: List[Dict[str, Any]]):
    for node in nodes:
        yield node
        yield from _walk(node["children"])


def trace_to_json(trace_id: str,
                  records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Stable machine-readable form of one reconstructed trace."""

    def strip(node: Dict[str, Any]) -> Dict[str, Any]:
        return {"span_id": node["span_id"],
                "parent_span": node["parent_span"],
                "pid": node["pid"],
                "label": node["label"],
                "events": [str(r.get("event")) for r in node["records"]],
                "children": [strip(c) for c in node["children"]]}

    full_id = next((r["trace_id"] for r in records
                    if r.get("trace_id")), trace_id)
    return {"trace_id": full_id,
            "records": len(records),
            "runs": sorted({str(r.get("run_id")) for r in records}),
            "spans": [strip(n) for n in trace_tree(records)]}
