"""Per-layer tracing from outside the program.

A :class:`LayerTracer` wraps public functions of ``repro`` in place
(class attributes for methods, every module binding for functions) and
records, per wrapped function, the call count and the *self* time: the
wall time of each call minus the time spent in wrapped calls it made.
Self times of nested wrapped calls therefore add up exactly to the
inclusive time of the outermost wrapped call.

Some wrappers also classify the outcome of each call (a cache hit, a
dropped prefetch) so ratios are measured where the work happens.
:meth:`LayerTracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Outcome classifier: ``(args, result) -> key or None``.  Keys are
#: counted per function (e.g. ``"L1D"`` / ``"L1D.hit"`` for a lookup).
Outcome = Callable[[tuple, Any], Optional[Tuple[str, ...]]]


def _cache_lookup(args: tuple, result: Any) -> Tuple[str, ...]:
    name = args[0].name
    return (name, name + ".hit") if result.hit else (name,)


def _cache_name(args: tuple, result: Any) -> Tuple[str, ...]:
    return (args[0].name,)


def _found(args: tuple, result: Any) -> Tuple[str, ...]:
    return ("hit",) if result is not None else ()


def _dropped(args: tuple, result: Any) -> Tuple[str, ...]:
    return ("dropped",) if result is False else ()


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + dotted ``attr`` (``Class.method``
    or a module-level function), reported under ``name``."""

    name: str
    module: str
    attr: str
    outcome: Optional[Outcome] = None


#: Every wrapped function, grouped by layer (the first name component).
TARGETS: Tuple[Target, ...] = (
    # memory: the demand path
    Target("memory.hierarchy.access", "repro.memory.hierarchy",
           "CoreHierarchy.access"),
    Target("memory.hierarchy.issue_prefetch", "repro.memory.hierarchy",
           "CoreHierarchy.issue_prefetch", _dropped),
    Target("memory.hierarchy.metadata_access", "repro.memory.hierarchy",
           "CoreHierarchy.metadata_access"),
    Target("memory.cache.lookup", "repro.memory.cache", "Cache.lookup",
           _cache_lookup),
    Target("memory.cache.fill", "repro.memory.cache", "Cache.fill",
           _cache_name),
    Target("memory.cache.probe", "repro.memory.cache", "Cache.probe",
           _cache_name),
    Target("memory.dram.access", "repro.memory.dram", "DRAM.access"),
    Target("memory.events.publish", "repro.memory.events",
           "EventBus.publish"),
    # sim: the engine (``run`` covers the stepping loop, timing proxy
    # and heap; ``Engine`` is construction)
    Target("sim.engine.Engine", "repro.sim.engine", "Engine.__init__"),
    Target("sim.engine.run_warmup", "repro.sim.engine", "Engine.run_warmup"),
    Target("sim.engine.run", "repro.sim.engine", "Engine.run"),
    Target("sim.engine.collect", "repro.sim.engine", "Engine.collect"),
    # prefetchers and core: training and metadata stores
    Target("prefetchers.stride.train", "repro.prefetchers.stride",
           "StridePrefetcher.train"),
    Target("prefetchers.triangel.train", "repro.prefetchers.triangel",
           "TriangelPrefetcher.train"),
    Target("core.streamline.train", "repro.core.streamline",
           "StreamlinePrefetcher.train"),
    Target("prefetchers.triage.ideal.train", "repro.prefetchers.triage",
           "IdealTriage.train"),
    Target("prefetchers.pairwise.lookup", "repro.prefetchers.pairwise",
           "PairwiseStore.lookup", _found),
    Target("prefetchers.pairwise.insert", "repro.prefetchers.pairwise",
           "PairwiseStore.insert"),
    Target("core.metadata_store.lookup", "repro.core.metadata_store",
           "StreamStore.lookup", _found),
    Target("core.metadata_store.insert", "repro.core.metadata_store",
           "StreamStore.insert"),
    # runner: batching, result cache, trace acquisition
    Target("runner.SimRunner.run", "repro.runner.runner", "SimRunner.run"),
    Target("runner.cache.get", "repro.runner.cache", "ResultCache.get",
           _found),
    Target("runner.cache.put", "repro.runner.cache", "ResultCache.put"),
    Target("runner.traces.get_trace", "repro.runner.traces", "get_trace"),
    # checkpoint and sampling stores
    Target("checkpoint.store.get", "repro.checkpoint.store",
           "CheckpointStore.get"),
    Target("checkpoint.store.put", "repro.checkpoint.store",
           "CheckpointStore.put"),
    Target("sampling.get_plan", "repro.sampling.plan", "get_plan"),
    # obs: run-log records
    Target("obs.runlog.emit", "repro.obs.runlog", "RunLogWriter.emit"),
)


@dataclass
class Record:
    """What one wrapped function did while the tracer was installed."""

    calls: int = 0
    self_s: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)


class LayerTracer:
    """Wraps :data:`TARGETS` (or the given targets) while installed.

    Use as a context manager, or call :meth:`install` /
    :meth:`uninstall`.  Not thread-safe: the traced run is serial.
    """

    def __init__(self, targets: Tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.records: Dict[str, Record] = {t.name: Record() for t in targets}
        # One accumulator per active wrapped call: time spent in the
        # wrapped calls it made, subtracted from its own on exit.
        self._stack: List[float] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, leaf = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, target))
            else:
                original = getattr(module, leaf)
                wrapper = self._wrap(original, target)
                # ``from .mod import fn`` copies the binding, so rebind
                # it in every loaded repro module that holds it.
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "") or ""
                    if (name == "repro" or name.startswith("repro.")) and \
                            getattr(mod, leaf, None) is original:
                        self._restore.append((mod, leaf, original))
                        setattr(mod, leaf, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()
        self._stack.clear()

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        record = self.records[target.name]
        outcomes = record.outcomes
        classify = target.outcome
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                record.calls += 1
                record.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if classify is not None:
                for key in classify(args, result) or ():
                    outcomes[key] = outcomes.get(key, 0) + 1
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-friendly copy of every record."""
        return {name: {"calls": r.calls, "self_s": r.self_s,
                       "outcomes": dict(r.outcomes)}
                for name, r in self.records.items()}
