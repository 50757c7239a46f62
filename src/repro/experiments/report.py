"""Aggregate benchmark results into one report.

Collects the per-experiment tables that the benches write to
``benchmarks/results/`` and assembles them into a single markdown
document, ordered as in the paper's evaluation section, with the
DESIGN.md experiment index as the table of contents.

Usage::

    python -m repro experiments report [results_dir] [output.md]
"""

from __future__ import annotations

import pathlib
from typing import Dict

#: Paper order for the report sections.
ORDER = ["table1", "table2", "fig9", "fig9s", "fig10a", "fig10b", "fig10c",
         "fig10de", "fig10f", "fig11a", "fig11b", "fig11cd", "fig12a",
         "fig12b", "fig12c", "fig12ts", "fig13a", "fig13b", "fig13c",
         "tpmin",
         "fig14", "fig15"]

TITLES: Dict[str, str] = {
    "table1": "Table I — partitioning schemes",
    "table2": "Table II — system parameters",
    "fig9": "Figure 9 — single-core speedup",
    "fig9s": "Figure 9 (sampled) — extrapolated speedup by representative sampling",
    "fig10a": "Figure 10a — multi-core scaling",
    "fig10b": "Figure 10b — per-mix S-curve",
    "fig10c": "Figure 10c — DRAM bandwidth sensitivity",
    "fig10de": "Figure 10d/e — coverage and accuracy",
    "fig10f": "Figure 10f — prefetch degree",
    "fig11a": "Figure 11a — Berti single-core",
    "fig11b": "Figure 11b — Berti multi-core",
    "fig11cd": "Figure 11c/d — L2 regular prefetchers",
    "fig12a": "Figure 12a — stream length",
    "fig12b": "Figure 12b — redundancy and alignment",
    "fig12c": "Figure 12c — metadata buffer size",
    "fig12ts": "Figure 12 (supplement) — interval time-series",
    "fig13a": "Figure 13a — storage efficiency",
    "fig13b": "Figure 13b — metadata traffic",
    "fig13c": "Figure 13c — correlation hit rate",
    "tpmin": "Section V-D3 — TP-MIN vs MIN",
    "fig14": "Figure 14 — component ablation",
    "fig15": "Figure 15 — filtering mitigations",
}


def collect(results_dir: pathlib.Path) -> Dict[str, str]:
    """Read every ``<id>.txt`` the benches produced."""
    found = {}
    for path in sorted(results_dir.glob("*.txt")):
        found[path.stem] = path.read_text().strip()
    return found


def assemble(results: Dict[str, str],
             missing_note: bool = True) -> str:
    """Build the markdown report from collected tables."""
    lines = ["# Streamline reproduction — results report", ""]
    present = [e for e in ORDER if e in results]
    missing = [e for e in ORDER if e not in results]
    lines.append(f"{len(present)}/{len(ORDER)} experiments collected.")
    if missing and missing_note:
        lines.append(f"Missing (bench not yet run): {', '.join(missing)}.")
    lines.append("")
    for exp in present:
        lines.append(f"## {TITLES.get(exp, exp)}")
        lines.append("")
        lines.append("```")
        lines.append(results[exp])
        lines.append("```")
        lines.append("")
    extras = sorted(set(results) - set(ORDER))
    for exp in extras:
        lines.append(f"## {exp}")
        lines.append("")
        lines.append("```")
        lines.append(results[exp])
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
