"""Shared experiment plumbing: configs, run helpers, workload sets.

Every figure/table module builds on these helpers so the benches stay
declarative.  All simulations are expressed as :class:`repro.runner.SimJob`
batches and submitted through :func:`job_runner`: the shared
:class:`repro.runner.SimRunner`, which dedups them against a two-level
result cache and fans cold work out over a process pool, or a job server
when ``REPRO_SERVE_URL`` names one.  Scale knobs come from the
environment:

* ``REPRO_N`` - accesses per trace (default 60000; tests use less).
* ``REPRO_QUICK`` - set to 1 to shrink every experiment to a handful of
  representative workloads and fewer mixes.
* ``REPRO_JOBS`` - simulation worker processes (1 = in-process serial).
* ``REPRO_CACHE=0`` - disable the on-disk result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence

from ..envknobs import env_flag, env_int
from ..runner import JobResult, PrefetcherSpec, SimJob, as_spec, \
    get_runner, spec
from ..sim.config import SystemConfig
from ..sim.stats import SimResult, format_table, geomean
from ..workloads import generate_mixes

#: The experiments run on a 1/4-scale hierarchy (see DESIGN.md §4).
SCALE_FACTOR = 4


class JobRunner(Protocol):
    """Anything that executes job batches in input order — the local
    :class:`SimRunner` or the HTTP-backed :class:`repro.serve.ServeRunner`."""

    def run(self, jobs: Sequence[SimJob]) -> List[JobResult]: ...

#: A representative subset for quick runs: two chases, one scan-mix, one
#: graph, one stream, one hash.
QUICK_SET = ["06.omnetpp", "17.xalancbmk", "06.mcf", "gap.pr", "06.lbm",
             "06.sphinx3"]

#: Short-period temporal workloads for component microbenchmarks
#: (stream-length / buffer / replacement sweeps): each repeats its
#: irregular sequence several times within ~50K accesses.
COMPONENT_SET = ["gap.pr", "gap.cc", "gap.bfs", "06.omnetpp"]


def env_n(default: int = 60_000) -> int:
    """Accesses per trace from ``REPRO_N``.

    Validated like every other knob: a malformed or non-positive value
    raises immediately with the variable named, instead of surfacing as
    a bare ``int()`` traceback (or a nonsensical zero-length trace)
    somewhere inside a sweep.
    """
    return env_int("REPRO_N", default)


def quick_mode() -> bool:
    """The ``REPRO_QUICK`` opt-in (strict: junk values raise, they do
    not silently mean "on")."""
    return env_flag("REPRO_QUICK", False)


def job_runner() -> JobRunner:
    """The runner every experiment submits its jobs to: a
    :class:`repro.serve.ServeRunner` when ``REPRO_SERVE_URL`` names a
    job server, else the in-process default :func:`get_runner`.

    Routing through the server is a pure execution strategy — the URL
    never enters job fingerprints, and served results are byte-identical
    to direct runs — so every experiment becomes a thin client with no
    change to what it computes.
    """
    from ..serve.client import ServeRunner
    return ServeRunner.from_env() or get_runner()


def experiment_config(num_cores: int = 1, **overrides) -> SystemConfig:
    """The scaled-down Table II system."""
    cfg = SystemConfig(num_cores=num_cores).scaled_down(SCALE_FACTOR)
    return cfg.scaled(**overrides) if overrides else cfg


def workload_set(kind: str = "full") -> List[str]:
    """"full", "quick", "component", or a suite name."""
    from ..workloads import names, suite
    if kind == "component":
        return list(COMPONENT_SET)
    if quick_mode() or kind == "quick":
        return list(QUICK_SET)
    if kind == "full":
        return names()
    return suite(kind)


# -- prefetcher specs ----------------------------------------------------------

STRIDE_L1 = spec("stride")
BERTI_L1 = spec("berti")

#: The paper's two temporal prefetchers, as serializable specs.
PREFETCHER_SPECS: Dict[str, PrefetcherSpec] = {
    "triangel": spec("triangel"),
    "streamline": spec("streamline"),
}


# -- run helpers ---------------------------------------------------------------

@dataclass
class SingleCoreRun:
    """Baseline + per-prefetcher results for one workload."""

    workload: str
    baseline: SimResult
    results: Dict[str, SimResult] = field(default_factory=dict)
    #: Probe payloads per config name (empty unless the matrix named
    #: probes), e.g. ``probes["streamline"]["telemetry"]``.
    probes: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def speedup(self, config: str) -> float:
        return self.results[config].ipc / self.baseline.ipc


def run_matrix(workloads: Sequence[str], n: int,
               configs: Dict[str, object],
               config: Optional[SystemConfig] = None,
               l1: PrefetcherSpec = STRIDE_L1,
               seed: int = 1234,
               probes: Sequence[str] = (),
               runner: Optional[JobRunner] = None) -> List[SingleCoreRun]:
    """Run baseline + each config on every workload (single core).

    ``configs`` maps display name -> prefetcher spec (or registry
    name/class).  The whole matrix is submitted as one batch, so
    distinct cells run in parallel and repeated cells (e.g. a baseline
    another figure already computed) come from the cache.
    """
    config = config or experiment_config()
    runner = runner or job_runner()
    specs = {name: as_spec(c) for name, c in configs.items()}
    jobs = []
    for wl in workloads:
        jobs.append(SimJob.single(wl, n, config, l1=l1, seed=seed))
        for s in specs.values():
            jobs.append(SimJob.single(wl, n, config, l1=l1, l2=(s,),
                                      seed=seed, probes=probes))
    results = iter(runner.run(jobs))
    out = []
    for wl in workloads:
        run = SingleCoreRun(wl, next(results).single)
        for name in specs:
            res = next(results)
            run.results[name] = res.single
            if res.probes:
                run.probes[name] = res.probes
        out.append(run)
    return out


def suite_geomeans(runs: Sequence[SingleCoreRun], config: str
                   ) -> Dict[str, float]:
    """Geomean speedup per suite plus "all"."""
    from ..workloads import suite_of
    out: Dict[str, float] = {}
    for s in ("spec06", "spec17", "gap"):
        sub = [r for r in runs if suite_of(r.workload) == s]
        if sub:
            out[s] = geomean(r.speedup(config) for r in sub)
    out["all"] = geomean(r.speedup(config) for r in runs)
    return out


def irregular_subset(runs: Sequence[SingleCoreRun],
                     headroom: float = 0.05) -> List[str]:
    """The paper's irregular subset: >=5% speedup headroom under an
    idealized Triage with unlimited metadata (Section V-A3).

    ``runs`` must carry an ``"ideal-triage"`` result, i.e. come from a
    :func:`run_matrix` whose configs include ``spec("ideal-triage")``,
    so the ideal runs share the matrix's batch and baselines.
    """
    return [r.workload for r in runs
            if r.speedup("ideal-triage") >= 1.0 + headroom]


# -- multicore helpers -----------------------------------------------------------

def run_mixes(num_cores: int, mix_count: int, n_per_core: int,
              configs: Dict[str, object],
              pool: Optional[Sequence[str]] = None,
              l1: PrefetcherSpec = STRIDE_L1,
              seed: int = 7,
              config: Optional[SystemConfig] = None,
              iso_config: Optional[SystemConfig] = None,
              runner: Optional[JobRunner] = None
              ) -> Dict[str, List[float]]:
    """Weighted-speedup of each config over the stride baseline, per mix.

    Returns config name -> list of per-mix normalized weighted speedups.
    The isolated single-core runs, every mix's baseline, and every
    config run are submitted as one job batch: traces are generated
    once per ``(workload, n, seed)`` per worker, isolated baselines are
    shared across mixes (and with other experiments) via the cache, and
    independent mixes simulate in parallel.

    ``config`` / ``iso_config`` override the mixed and isolated system
    configurations (e.g. for DRAM-bandwidth sweeps).
    """
    mixes = generate_mixes(num_cores, mix_count, pool=pool, seed=seed)
    config = config or experiment_config(num_cores=num_cores)
    iso_config = iso_config or experiment_config(num_cores=1)
    runner = runner or job_runner()

    jobs: List[SimJob] = []
    iso_workloads = sorted({wl for mix in mixes for wl in mix})
    for wl in iso_workloads:
        jobs.append(SimJob.single(wl, n_per_core, iso_config, l1=l1))
    for mix in mixes:
        jobs.append(SimJob.multi(mix, n_per_core, config, l1=l1))
        for s in configs.values():
            jobs.append(SimJob.multi(mix, n_per_core, config, l1=l1,
                                     l2=(as_spec(s),)))
    results = iter(runner.run(jobs))

    singles = {wl: next(results).single.ipc for wl in iso_workloads}
    out: Dict[str, List[float]] = {name: [] for name in configs}
    out["baseline"] = []
    for mix in mixes:
        isolated = [singles[wl] for wl in mix]
        base = next(results).multicore
        base_ws = sum(c.ipc / i for c, i in zip(base.cores, isolated))
        out["baseline"].append(base_ws)
        for name in configs:
            res = next(results).multicore
            ws = sum(c.ipc / i for c, i in zip(res.cores, isolated))
            out[name].append(ws / base_ws)
    return out


@dataclass
class ExperimentResult:
    """Uniform result bundle every experiment returns."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""

    def table(self) -> str:
        text = format_table(self.headers, self.rows)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def as_dict(self) -> Dict[str, List]:
        return {"headers": self.headers, "rows": self.rows}


def fmt(x: object, digits: int = 3) -> object:
    if isinstance(x, float):
        return round(x, digits)
    return x
