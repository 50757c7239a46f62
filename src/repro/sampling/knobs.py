"""The sampling subsystem's validated environment knobs.

Separate from ``__init__`` so :mod:`.plan` / :mod:`.execute` can read
them without importing the package facade (which imports them).
"""

from __future__ import annotations

from typing import Optional

from ..envknobs import env_int


def sampling_k(default: Optional[int] = None) -> Optional[int]:
    """``REPRO_SAMPLING_K`` override (None = use the plan default)."""
    return env_int("REPRO_SAMPLING_K", 0, minimum=1, maximum=4096) \
        or default
