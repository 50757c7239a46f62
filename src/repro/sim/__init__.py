"""Trace-driven simulation: config, engine, multicore, stats, traces."""

from .config import CHANNELS_BY_CORES, DEFAULT_CONFIG, SystemConfig
from .engine import (CoreModel, Engine, build_core, build_uncore,
                     collect_result, run_single)
from .multicore import MulticoreResult, build_multicore, run_multicore
from .stats import (PrefetchReport, SimResult, format_table, geomean,
                    geomean_speedup, mean_accuracy, mean_coverage, speedup)
from .trace import Trace, TraceBuilder

__all__ = [
    "CHANNELS_BY_CORES", "DEFAULT_CONFIG", "SystemConfig",
    "CoreModel", "Engine", "build_core", "build_uncore", "collect_result",
    "run_single",
    "MulticoreResult", "build_multicore", "run_multicore",
    "PrefetchReport", "SimResult", "format_table", "geomean",
    "geomean_speedup", "mean_accuracy", "mean_coverage", "speedup",
    "Trace", "TraceBuilder",
]
