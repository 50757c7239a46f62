"""The sampling subsystem's validated environment knobs.

Separate from ``__init__`` so :mod:`.plan` / :mod:`.execute` can read
them without importing the package facade (which imports them).
"""

from __future__ import annotations

import os
import pathlib
from typing import Optional

from ..envknobs import env_dir, env_int, env_tristate


def sampling_enabled(default: bool = False) -> bool:
    """Resolve the ``REPRO_SAMPLING`` tri-state against a caller default.

    Experiments that are *about* sampling (``fig9s``) pass
    ``default=True``; everything else defaults off, keeping default
    outputs bit-identical to a world without this subsystem.  Like
    ``REPRO_TRACE_STREAM`` the knob never enters job fingerprints — but
    unlike it, sampling is *not* bit-identical,
    so it selects which jobs are submitted (windowed ones, keyed by
    ``SimJob.window``) rather than how one job executes.
    """
    env = env_tristate("REPRO_SAMPLING")
    return bool(env) if env is not None else default


def sampling_dir() -> pathlib.Path:
    """Plan-store root: ``REPRO_SAMPLING_DIR`` or ``benchmarks/.splans``."""
    override = env_dir("REPRO_SAMPLING_DIR")
    if override:
        return pathlib.Path(override)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / ".splans"
    return pathlib.Path.home() / ".cache" / "repro-splans"


def sampling_k(default: Optional[int] = None) -> Optional[int]:
    """``REPRO_SAMPLING_K`` override (None = use the plan default)."""
    if not os.environ.get("REPRO_SAMPLING_K", ""):
        return default
    return env_int("REPRO_SAMPLING_K", 0, minimum=1, maximum=4096)
