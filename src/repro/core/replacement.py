"""Metadata replacement for the stream store: TP-Mockingjay and SRRIP.

Section IV-D1 observes that Belady's MIN is the wrong oracle for
temporal metadata: MIN maximizes *trigger* hits, but a trigger whose
target keeps changing produces useless prefetches.  TP-MIN instead
evicts the *correlation* reused furthest in the future.  TP-Mockingjay
(Section IV-E5) is the practical policy that emulates TP-MIN, adapted
from Mockingjay [Shah+ HPCA'22]:

* sampled metadata sets record recently seen correlations (trigger,
  first target, hashed PC, timestamp);
* a per-PC predictor learns the reuse distance of *correlations* -- a
  trigger reappearing with a *different* target does not count;
* correlations that age out of the sampler unseen train the predictor
  toward "scan" (no reuse), so entries from scanning PCs become the
  preferred victims;
* each stored entry carries a quantized estimated-time-remaining (ETR,
  3 bits per the paper); the victim is the entry with the largest |ETR|,
  preferring overdue entries.

The plain SRRIP policy is the ablation point (what Triangel uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..memory.address import fold_hash
from .stream_entry import StreamEntry

#: 3-bit quantized reuse-distance levels; level d ~ 2**d set accesses.
MAX_LEVEL = 7
SCAN_LEVEL = 7


def quantize(distance: int) -> int:
    """Map a reuse distance (in set accesses) to a 3-bit level."""
    if distance < 0:
        return 0
    return min(MAX_LEVEL, max(0, distance.bit_length() - 1))


def dequantize(level: int) -> int:
    return 1 << level


@dataclass
class StoredEntry:
    """A stream entry resident in the metadata store, plus replacement
    state (the store owns these; policies read/update them).

    ``hashed_trigger`` and ``partial_tag`` cache ``entry``'s 10-bit
    hashed trigger and partial tag, so a pool scan compares ints instead
    of re-hashing every resident trigger.  Both are derived (never
    serialized): the store sets them whenever it places or overwrites
    an entry, and they default to the entry's own values.
    """

    entry: StreamEntry
    rrpv: int = 2
    pred_level: int = 3
    inserted_clock: int = 0
    hashed_trigger: int = -1
    partial_tag: int = -1

    def __post_init__(self) -> None:
        if self.hashed_trigger < 0:
            self.hashed_trigger = self.entry.hashed_trigger
        if self.partial_tag < 0:
            self.partial_tag = self.entry.partial_tag


class StreamReplacement:
    """Policy interface for the stream store's per-set entry pools."""

    name = "base"

    def on_access(self, set_idx: int, clock: int,
                  stored: Optional[StoredEntry]) -> None:
        """Called on every set access; ``stored`` is the hit entry or None."""

    def on_insert(self, set_idx: int, clock: int,
                  stored: StoredEntry) -> None:
        """Initialize replacement state for a new entry."""

    def victim(self, set_idx: int, clock: int,
               candidates: List[StoredEntry]) -> StoredEntry:
        raise NotImplementedError

    def observe_correlation(self, set_idx: int, clock: int, trigger: int,
                            first_target: int, pc: int) -> None:
        """Training hook (TP-Mockingjay's sampler); no-op by default."""

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Mutable policy state beyond the per-entry fields, which the
        store serializes with the entries themselves."""
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        raise NotImplementedError


class SRRIPStreamReplacement(StreamReplacement):
    """2-bit RRIP over the entries of a metadata set (Triangel's choice)."""

    name = "srrip"
    MAX_RRPV = 3

    def state_dict(self) -> dict:
        return {}  # all state lives in StoredEntry.rrpv

    def load_state(self, state: dict) -> None:
        pass

    def on_access(self, set_idx: int, clock: int,
                  stored: Optional[StoredEntry]) -> None:
        if stored is not None:
            stored.rrpv = 0

    def on_insert(self, set_idx: int, clock: int,
                  stored: StoredEntry) -> None:
        stored.rrpv = self.MAX_RRPV - 1

    def victim(self, set_idx: int, clock: int,
               candidates: List[StoredEntry]) -> StoredEntry:
        while True:
            for s in candidates:
                if s.rrpv >= self.MAX_RRPV:
                    return s
            for s in candidates:
                s.rrpv += 1


class _CorrelationSampler:
    """Bounded history of correlations for one sampled set."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._seen: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def observe(self, key: Tuple[int, int], clock: int,
                pc_hash: int) -> Tuple[Optional[int], List[int]]:
        """Record one correlation; returns (reuse distance or None,
        list of pc hashes whose samples aged out unseen)."""
        scans: List[int] = []
        prev = self._seen.get(key)
        distance = None
        if prev is not None:
            distance = clock - prev[0]
        self._seen[key] = (clock, pc_hash)
        if len(self._seen) > self.capacity:
            old_key = next(iter(self._seen))
            _, old_pc = self._seen.pop(old_key)
            scans.append(old_pc)
        return distance, scans

    def state_dict(self) -> list:
        # Insertion order drives the age-out above; keep it.
        return [[k[0], k[1], v[0], v[1]] for k, v in self._seen.items()]

    def load_state(self, state: list) -> None:
        self._seen = {(int(k0), int(k1)): (int(clock), int(pc))
                      for k0, k1, clock, pc in state}


class TPMockingjayReplacement(StreamReplacement):
    """The paper's TP-Mockingjay, at stream-entry granularity.

    Parameters
    ----------
    sample_every:
        Which metadata sets train the predictor (every N-th).
    sampler_capacity:
        Correlations remembered per sampled set.
    """

    name = "tp-mockingjay"

    def __init__(self, sample_every: int = 8, sampler_capacity: int = 64):
        self.sample_every = max(1, sample_every)
        self.sampler_capacity = sampler_capacity
        self._pred: Dict[int, int] = {}     # pc hash -> level
        self._samplers: Dict[int, _CorrelationSampler] = {}

    # -- prediction --------------------------------------------------------

    def predict(self, pc: int) -> int:
        return self._pred.get(fold_hash(pc, 8), 3)

    def _train(self, pc_hash: int, level: int) -> None:
        cur = self._pred.get(pc_hash, 3)
        # Saturating move toward the observation (cheap EWMA).
        if level > cur:
            self._pred[pc_hash] = min(MAX_LEVEL, cur + 1)
        elif level < cur:
            self._pred[pc_hash] = max(0, cur - 1)

    # -- hooks -----------------------------------------------------------------

    def observe_correlation(self, set_idx: int, clock: int, trigger: int,
                            first_target: int, pc: int) -> None:
        if set_idx % self.sample_every:
            return
        sampler = self._samplers.setdefault(
            set_idx, _CorrelationSampler(self.sampler_capacity))
        pc_hash = fold_hash(pc, 8)
        key = (fold_hash(trigger, 8), fold_hash(first_target, 8))
        distance, scans = sampler.observe(key, clock, pc_hash)
        if distance is not None:
            self._train(pc_hash, quantize(distance))
        for scan_pc in scans:
            self._train(scan_pc, SCAN_LEVEL)

    def on_insert(self, set_idx: int, clock: int,
                  stored: StoredEntry) -> None:
        stored.pred_level = self.predict(stored.entry.pc)
        stored.inserted_clock = clock

    def on_access(self, set_idx: int, clock: int,
                  stored: Optional[StoredEntry]) -> None:
        if stored is not None:
            # Reuse observed: refresh the ETR from the predictor.
            stored.pred_level = self.predict(stored.entry.pc)
            stored.inserted_clock = clock

    def victim(self, set_idx: int, clock: int,
               candidates: List[StoredEntry]) -> StoredEntry:
        def score(s: StoredEntry) -> Tuple[int, int]:
            remaining = dequantize(s.pred_level) - (clock
                                                    - s.inserted_clock)
            # Largest |ETR| loses; prefer overdue (likely dead) entries.
            return (abs(remaining), 1 if remaining < 0 else 0)

        return max(candidates, key=score)

    def state_dict(self) -> dict:
        return {
            "pred": [[pc, level] for pc, level in self._pred.items()],
            "samplers": [[set_idx, s.state_dict()]
                         for set_idx, s in self._samplers.items()],
        }

    def load_state(self, state: dict) -> None:
        self._pred = {int(pc): int(level) for pc, level in state["pred"]}
        samplers: Dict[int, _CorrelationSampler] = {}
        for set_idx, rows in state["samplers"]:
            sampler = _CorrelationSampler(self.sampler_capacity)
            sampler.load_state(rows)
            samplers[int(set_idx)] = sampler
        self._samplers = samplers


def make_stream_replacement(name: str, **kwargs) -> StreamReplacement:
    """Factory: ``"tp-mockingjay"`` or ``"srrip"``."""
    if name == "tp-mockingjay":
        return TPMockingjayReplacement(**kwargs)
    if name == "srrip":
        return SRRIPStreamReplacement()
    raise ValueError(f"unknown stream replacement {name!r}")
