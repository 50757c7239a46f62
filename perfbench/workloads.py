"""The benchmark's workloads: one public ``repro.experiments`` call each.

Every workload is an experiment call with explicit arguments, run cold
(fresh stores) with default knobs.  Each also carries:

* ``nominal_records``: the simulated trace records the call requests —
  summed over every job it submits, cache-served ones included: ``n x
  cores``, or the window length for windowed jobs.  It is fixed here, so
  a change that dedups or skips jobs cannot make ``sim_accesses_per_s``
  look worse (or better) by changing the numerator.
* a guard that fails the run loudly if the call stops stressing the
  layers the workload exists for.

The arguments do not depend on the benchmark's seed.  The simulated
inputs are the named synthetic traces at the repository's fixed trace
seeds, whose results the correctness gate pins.  A seed that reordered
the workload list was tried: it moved ``sc-regular``'s wall time by up
to 16%, because the order decides which pool job straggles at the end of
the batch, so it measured scheduling luck rather than the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

TEMPORAL = ("triangel", "streamline")


@dataclass
class Observed:
    """What a call left behind, as the parent process received it."""

    table: Any                   # the ExperimentResult
    jobs: List[Any]              # every SimJob submitted, in order
    results: List[Any]           # the JobResult returned for each
    checkpoints: int             # entries in the checkpoint store after


Guard = Callable[[Observed], List[str]]


def _temporal_issued(obs: Observed):
    """(job, prefetcher name, issued) for every temporal arm."""
    for job, res in zip(obs.jobs, obs.results):
        if job.kind != "single":
            continue
        for report in res.single.prefetchers:
            if report.name in TEMPORAL:
                yield job, report.name, report.issued


def guard_sc_temporal(obs: Observed) -> List[str]:
    problems = []
    rows = [r for r in obs.table.rows
            if not str(r[0]).startswith(("geomean[", "ALL", "IRREGULAR"))]
    outside = [r[0] for r in rows if r[1] != "irr"]
    if outside:
        problems.append(f"not in the irregular subset: {outside}")
    if "SHAPE OK" not in obs.table.notes:
        problems.append("fig9 note does not read SHAPE OK")
    low = [(job.workloads[0], name, issued)
           for job, name, issued in _temporal_issued(obs)
           if issued < 20_000]
    if low:
        problems.append(f"temporal arms issued < 20000 prefetches: {low}")
    return problems


def guard_sc_regular(obs: Observed) -> List[str]:
    high = [(job.workloads[0], name, issued)
            for job, name, issued in _temporal_issued(obs)
            if issued >= 100]
    return [f"temporal arms issued >= 100 prefetches: {high}"] if high \
        else []


def guard_mc_mix(obs: Observed) -> List[str]:
    if any(job.kind == "multi" and len(job.workloads) == 4
           for job in obs.jobs):
        return []
    return ["no 4-core job ran"]


def guard_sampled(obs: Observed) -> List[str]:
    problems = []
    simulated: Dict[tuple, int] = {}
    lengths: Dict[tuple, int] = {}
    for job, res in zip(obs.jobs, obs.results):
        if job.window is None:
            continue
        arm = (job.workloads, tuple(s.name for s in job.l2))
        simulated[arm] = simulated.get(arm, 0) + \
            sum(res.probes["sampling"]["simulated"])
        lengths[arm] = job.n
    if not simulated:
        problems.append("no windowed jobs ran")
    for arm, count in simulated.items():
        share = count / lengths[arm]
        if share >= 0.20:
            problems.append(f"{arm} simulated {share:.1%} of its trace")
    if obs.checkpoints == 0:
        problems.append("no checkpoint entries were written")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``module.function`` under ``repro.experiments``.
    experiment: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    nominal_records: int = 0
    guard: Optional[Guard] = None

    def scaled(self, **kwargs: Any) -> "Workload":
        """A smaller copy for smoke runs: no guard, no fixed count."""
        return replace(self, kwargs={**self.kwargs, **kwargs},
                       nominal_records=0, guard=None)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "sc-temporal",
        "fig9 on pointer-chasing workloads: temporal prefetcher training, "
        "issue and metadata stores carry the load",
        "fig9.run",
        {"n": 60_000, "workloads": ["06.omnetpp", "17.xalancbmk", "06.mcf"]},
        nominal_records=900_000,
        guard=guard_sc_temporal),
    Workload(
        "sc-regular",
        "fig9 on stride-covered streams and stencils: the demand path "
        "alone, temporal prefetchers nearly idle",
        "fig9.run",
        # Heaviest first: the pool takes jobs in submission order, so
        # milc's long jobs last would leave one worker idle at the end.
        {"n": 100_000, "workloads": ["06.milc", "06.lbm", "06.libquantum",
                                    "17.fotonik3d"]},
        nominal_records=2_000_000,
        guard=guard_sc_regular),
    Workload(
        "mc-mix",
        "fig10b 4-core mixes beside isolated runs: shared LLC, DRAM, "
        "clock-ordered core interleave, mixed job sizes in the pool",
        "fig10.run_fig10b",
        {"n_per_core": 12_000, "mix_count": 4},
        nominal_records=756_000, guard=guard_mc_mix),
    Workload(
        "sampled",
        "fig9s on a 2M-record trace: sampling plans, checkpoint writes "
        "and trace acquisition at scale",
        "fig9s.run",
        {"n": 2_000_000, "workloads": ["gap.pr"]},
        nominal_records=884_736,
        guard=guard_sampled),
)}


def requested_records(jobs: Sequence[Any]) -> int:
    """Trace records the given jobs ask to simulate (see module doc)."""
    total = 0
    for job in jobs:
        if job.window is not None:
            total += job.window[2] - job.window[0]
        else:
            total += job.n * len(job.workloads)
    return total
