"""Serializable prefetcher specifications.

Experiment jobs cross process boundaries, so the experiment layer cannot
hand the engine bare closures: a prefetcher is named by a
:class:`PrefetcherSpec` — a registry name plus constructor kwargs — which
is picklable, hashable, and canonically printable (the same spec always
fingerprints the same way, regardless of kwargs order).

The registry covers every baseline plus the Figure 14 ablation variants
(as ``variant:<name>``); :func:`register` adds new ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.streamline import StreamlinePrefetcher
from ..prefetchers.base import NullPrefetcher, Prefetcher
from ..prefetchers.berti import BertiPrefetcher
from ..prefetchers.bingo import BingoPrefetcher
from ..prefetchers.ipcp import IPCPPrefetcher
from ..prefetchers.spp import SPPPrefetcher
from ..prefetchers.stride import StridePrefetcher
from ..prefetchers.triage import IdealTriage, TriagePrefetcher
from ..prefetchers.triangel import TriangelPrefetcher

VARIANT_PREFIX = "variant:"

_REGISTRY: Dict[str, Callable[..., Prefetcher]] = {
    "null": NullPrefetcher,
    "stride": StridePrefetcher,
    "berti": BertiPrefetcher,
    "ipcp": IPCPPrefetcher,
    "bingo": BingoPrefetcher,
    "spp-ppf": SPPPrefetcher,
    "triage": TriagePrefetcher,
    "ideal-triage": IdealTriage,
    "triangel": TriangelPrefetcher,
    "streamline": StreamlinePrefetcher,
}

#: Reverse map so legacy callers passing a registered class still work.
_REVERSE: Dict[Callable, str] = {cls: name for name, cls in
                                 _REGISTRY.items()}


def register(name: str, factory: Callable[..., Prefetcher]) -> None:
    """Register a prefetcher constructor under ``name``."""
    _REGISTRY[name] = factory
    _REVERSE[factory] = name


def resolve(name: str) -> Callable[..., Prefetcher]:
    """The constructor a spec name stands for; ``ValueError`` if none."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name.startswith(VARIANT_PREFIX):
        from ..core.variants import named_variants
        variants = named_variants()
        key = name[len(VARIANT_PREFIX):]
        if key in variants:
            return variants[key]
    raise ValueError(f"unknown prefetcher spec {name!r}; "
                     f"registered: {sorted(_REGISTRY)}")


@dataclass(frozen=True)
class PrefetcherSpec:
    """One prefetcher configuration: registry name + constructor kwargs.

    ``kwargs`` is stored as a sorted tuple of items so equal specs hash
    and fingerprint identically however they were written.
    """

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **kwargs) -> "PrefetcherSpec":
        return cls(name, tuple(sorted(kwargs.items())))

    def canonical(self) -> Dict[str, Any]:
        """JSON-friendly form used in job fingerprints."""
        return {"name": self.name, "kwargs": dict(self.kwargs)}

    def build(self) -> Prefetcher:
        """Construct a fresh prefetcher instance."""
        factory = resolve(self.name)
        return factory(**dict(self.kwargs))

    def factory(self) -> Callable[[], Prefetcher]:
        """Zero-arg factory form the engines consume."""
        return self.build

    def __str__(self) -> str:
        if not self.kwargs:
            return self.name
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        return f"{self.name}({args})"


def spec(name: str, **kwargs) -> PrefetcherSpec:
    """Shorthand for :meth:`PrefetcherSpec.of`."""
    return PrefetcherSpec.of(name, **kwargs)


def as_spec(obj) -> Optional[PrefetcherSpec]:
    """Coerce a spec, registry name, or registered class to a spec.

    ``None`` passes through (meaning "no prefetcher").  Arbitrary
    closures are rejected: they cannot cross process boundaries, which
    is the whole point of specs.
    """
    if obj is None or isinstance(obj, PrefetcherSpec):
        return obj
    if isinstance(obj, str):
        return PrefetcherSpec.of(obj)
    name = _REVERSE.get(obj)
    if name is not None:
        return PrefetcherSpec.of(name)
    raise TypeError(
        f"cannot convert {obj!r} to a PrefetcherSpec; pass a spec, a "
        f"registry name, or a registered class (see repro.runner.specs)")
