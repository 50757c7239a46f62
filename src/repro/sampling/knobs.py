"""The sampling subsystem's validated environment knobs.

Separate from ``__init__`` so :mod:`.plan` / :mod:`.execute` can read
them without importing the package facade (which imports them).
"""

from __future__ import annotations

from typing import Optional

from ..envknobs import env_int, env_tristate


def sampling_enabled(default: bool = False) -> bool:
    """Resolve the ``REPRO_SAMPLING`` tri-state against a caller default.

    Experiments that are *about* sampling (``fig9s``) pass
    ``default=True``; everything else defaults off, keeping default
    outputs bit-identical to a world without this subsystem.  The knob
    never enters job fingerprints: sampling is *not* bit-identical, so
    it selects which jobs are submitted (windowed ones, keyed by
    ``SimJob.window``) rather than how one job executes.
    """
    env = env_tristate("REPRO_SAMPLING")
    return bool(env) if env is not None else default


def sampling_k(default: Optional[int] = None) -> Optional[int]:
    """``REPRO_SAMPLING_K`` override (None = use the plan default)."""
    return env_int("REPRO_SAMPLING_K", 0, minimum=1, maximum=4096) \
        or default
