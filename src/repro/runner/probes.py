"""Named post-run probes.

Several figures need component statistics that live on the simulation's
live objects (store hit rates, alignment counters, redundancy analyses,
event-bus counters).  With jobs executing in worker processes those
objects never reach the caller, so jobs name *probes*: registered
functions run in-worker right after the simulation, over a
:class:`ProbeContext` exposing the engine the job constructed, returning
plain data that travels (and caches) with the
:class:`~repro.runner.jobs.JobResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from ..prefetchers.base import Prefetcher

if TYPE_CHECKING:
    from ..memory.events import EventBus
    from ..memory.hierarchy import CoreHierarchy, SharedUncore
    from ..sim.engine import Engine


@dataclass
class ProbeContext:
    """What a probe can see: the finished simulation, still in memory.

    ``prefetchers`` are the job's L2 prefetcher instances in attach
    order across cores (the view the original probe API exposed);
    ``engine`` is the whole simulated system, giving probes the event
    bus, per-core hierarchies, and the shared uncore.
    """

    prefetchers: Sequence[Prefetcher]
    engine: Optional["Engine"] = None

    @property
    def bus(self) -> Optional["EventBus"]:
        return self.engine.bus if self.engine is not None else None

    @property
    def cores(self) -> Sequence["CoreHierarchy"]:
        return self.engine.cores if self.engine is not None else ()

    @property
    def uncore(self) -> Optional["SharedUncore"]:
        return self.engine.uncore if self.engine is not None else None


ProbeFn = Callable[[ProbeContext], Any]

_PROBES: Dict[str, ProbeFn] = {}


def register_probe(name: str, fn: ProbeFn) -> None:
    _PROBES[name] = fn


def get_probe(name: str) -> ProbeFn:
    try:
        return _PROBES[name]
    except KeyError:
        raise ValueError(f"unknown probe {name!r}; "
                         f"registered: {sorted(_PROBES)}") from None


def run_probes(names: Sequence[str],
               context: ProbeContext) -> Dict[str, Any]:
    return {name: get_probe(name)(context) for name in names}


# -- built-ins -----------------------------------------------------------------

def _with_store(context: ProbeContext) -> List[Prefetcher]:
    return [pf for pf in context.prefetchers
            if getattr(pf, "store", None) is not None]


def _store_stats(context: ProbeContext) -> Dict[str, int]:
    """Metadata-store lookup/hit totals (trigger hit rate)."""
    hits = lookups = 0
    for pf in _with_store(context):
        hits += pf.store.stats.hits
        lookups += pf.store.stats.lookups
    return {"hits": hits, "lookups": lookups}


def _redundancy(context: ProbeContext) -> Dict[str, float]:
    """Redundancy analysis over the first metadata store (Fig. 12b)."""
    from ..analysis.redundancy import measure
    for pf in _with_store(context):
        report = measure(pf.store)
        return {"redundancy_rate": report.redundancy_rate,
                "benign_fraction": report.benign_fraction}
    return {"redundancy_rate": 0.0, "benign_fraction": 0.0}


def _alignment(context: ProbeContext) -> Dict[str, int]:
    """Stream completion/alignment counters (Fig. 12c)."""
    completed = alignments = 0
    for pf in context.prefetchers:
        if hasattr(pf, "completed_streams"):
            completed += pf.completed_streams
            alignments += pf.alignments
    return {"completed_streams": completed, "alignments": alignments}


def _bus_counts(context: ProbeContext) -> Dict[str, int]:
    """Event-bus counters (``"kind@level:origin" -> n``) after the run."""
    bus = context.bus
    return bus.counts_flat() if bus is not None else {}


def _telemetry(context: ProbeContext) -> Dict[str, Any]:
    """The telemetry harness payload (interval series + lifecycle).

    Requires the job's ``SystemConfig`` to carry a ``TelemetryConfig``;
    without one the engine built no harness and the probe reports
    ``{"enabled": False}`` instead of failing, so a job can name the
    probe unconditionally.
    """
    harness = getattr(context.engine, "telemetry", None)
    if harness is None:
        return {"enabled": False}
    return harness.export()


def _sampling(context: ProbeContext) -> Dict[str, Any]:
    """Windowed-execution evidence for :mod:`repro.sampling`.

    Records how much work the engine actually simulated (per-core
    record counts and warm-up boundaries) plus the measured-region
    cache counters — what the extrapolation reporter needs to audit a
    sampled estimate (a windowed job's simulated-access count is the
    numerator of the speedup claim) without reaching into live objects.
    """
    eng = context.engine
    if eng is None:
        return {"enabled": False}
    return {
        "enabled": True,
        # Private by convention, stable by contract: the checkpoint
        # layer reads the same stepping counters.
        "simulated": list(eng._counts),
        "warmups": list(eng._warmups),
        "trace_lengths": [len(t) for t in eng.traces],
        "windows": [[t.start, t.stop]
                    if hasattr(t, "start") and hasattr(t, "stop")
                    else None
                    for t in eng.traces],
        "caches": [{"l1d": core.l1d.stats.as_dict(),
                    "l2": core.l2.stats.as_dict()}
                   for core in eng.cores],
        "llc": eng.uncore.llc.stats.as_dict(),
    }


register_probe("store_stats", _store_stats)
register_probe("sampling", _sampling)
register_probe("redundancy", _redundancy)
register_probe("alignment", _alignment)
register_probe("bus_counts", _bus_counts)
register_probe("telemetry", _telemetry)
