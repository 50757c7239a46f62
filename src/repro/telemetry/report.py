"""Human-readable rendering of a telemetry payload.

Turns one harness export (or a cached ``telemetry`` probe payload —
same thing) into the two tables the paper's discussion needs: the
interval time-series (what happened when) and the timeliness breakdown
(whether each prefetcher's wins arrived before the demand).  Used by
``python -m repro telemetry run`` and handy from notebooks.

Self-contained on purpose: this module formats plain dicts and must not
import ``repro.sim`` (``repro.sim.config`` imports the telemetry
package, and a back-edge here would be a cycle).
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def _table(headers: Sequence[str],
           rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row]
                                           for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(x: object) -> object:
    if isinstance(x, float):
        return round(x, 3)
    return x


def render_intervals(series: Dict[str, object],
                     max_rows: int = 20) -> str:
    """The interval time-series as a table (evenly subsampled rows)."""
    index: List[int] = list(series.get("index", []))  # type: ignore[arg-type]
    if not index:
        return "(no interval samples)"
    counters: Dict[str, List[int]] = series.get("counters", {})  # type: ignore[assignment]
    gauges: Dict[str, List[float]] = series.get("gauges", {})  # type: ignore[assignment]
    n = len(index)
    step = max(1, (n + max_rows - 1) // max_rows)
    picked = list(range(0, n, step))
    if picked[-1] != n - 1:
        picked.append(n - 1)
    headers = ["i", "access", "clock"] + list(counters) + list(gauges)
    rows = []
    access = series.get("access", [])
    clock = series.get("clock", [])
    for i in picked:
        row: List[object] = [index[i], access[i], _fmt(clock[i])]
        row += [col[i] for col in counters.values()]
        row += [_fmt(col[i]) for col in gauges.values()]
        rows.append(row)
    text = _table(headers, rows)
    if step > 1:
        text += f"\n({n} intervals total, showing every {step}th)"
    if series.get("truncated"):
        text += "\n(series truncated at max_intervals)"
    return text


def render_lifecycle(lifecycle: Dict[str, Dict[str, object]]) -> str:
    """The timeliness taxonomy per prefetcher."""
    if not lifecycle:
        return "(no prefetch lifecycles traced)"
    headers = ["prefetcher", "issued", "on_time", "late", "unused",
               "in_flight", "on_time%", "late%", "avg_late_cyc"]
    rows = []
    for name, e in lifecycle.items():
        issued = int(e.get("issued", 0)) or 0
        denom = issued if issued else 1
        rows.append([
            name, issued, e.get("on_time", 0), e.get("late", 0),
            e.get("unused", 0), e.get("in_flight", 0),
            _fmt(100.0 * int(e.get("on_time", 0)) / denom),
            _fmt(100.0 * int(e.get("late", 0)) / denom),
            _fmt(e.get("avg_late_cycles", 0.0)),
        ])
    return _table(headers, rows)


def render(payload: Dict[str, object], max_rows: int = 20) -> str:
    """The full report for one telemetry payload."""
    if not payload.get("enabled"):
        return "telemetry was not enabled for this run"
    parts = [f"telemetry report (interval={payload.get('interval')}, "
             f"cores={payload.get('num_cores')})"]
    lifecycle = payload.get("lifecycle")
    if isinstance(lifecycle, dict):
        parts.append("timeliness (prefetch lifecycle):")
        parts.append(render_lifecycle(lifecycle))
    series = payload.get("intervals")
    if isinstance(series, dict):
        parts.append("interval time-series:")
        parts.append(render_intervals(series, max_rows=max_rows))
    return "\n\n".join(parts)
