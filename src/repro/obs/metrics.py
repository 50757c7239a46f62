"""Dependency-free metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per owner (a serve :class:`Server` owns
its own, so two servers in one process never merge their numbers),
rendered on demand as Prometheus text exposition format for
``GET /metrics``.

Naming convention (enforced at registration): every series is
``repro_<subsystem>_<name>_<unit>`` — e.g. ``repro_cache_hits_total``,
``repro_broker_queue_wait_seconds``.  Counters must end in ``_total``.

Transport follows the runlog model: worker processes do *not* push to a
shared registry — each job's numbers ride its ``job_end`` record (the
runlog shards already cross the process boundary and get merged), and
the server folds tailed ``job_end`` records into its registry.  That
keeps the hot path allocation-light and makes ``REPRO_JOBS=1`` serial
runs count everything exactly once.

Pull collectors cover the rest: broker and cache statistics are already
monotone counters maintained by their owners, so the registry reads
them through a callback at render time instead of instrumenting every
increment site.

Metrics are always on and are a pure observation channel — never part
of job fingerprints, never able to change a
:class:`~repro.sim.stats.SimResult`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^repro_[a-z0-9]+(_[a-z0-9]+)+$")

#: Default histogram bucket bounds, in seconds (job wall times span
#: milliseconds for cache hits to minutes for big sweeps).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0)


def _check_name(name: str, kind: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the repro_<subsystem>_"
            f"<name>_<unit> convention")
    if kind == "counter" and not name.endswith("_total"):
        raise ValueError(f"counter {name!r} must end in _total")
    if kind == "histogram" and name.endswith("_total"):
        raise ValueError(f"histogram {name!r} must not end in _total")


class Counter:
    """Monotone count.  With ``fn``, a *pull* counter: the value is read
    from an already-monotone external stat at render time."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help_text
        self._fn = fn
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError(f"{self.name} is a pull counter")
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value())]


class Gauge:
    """A value that can go up and down (queue depth, client count).
    With ``fn``, read from the owner at render time."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help_text
        self._fn = fn
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value())]


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets, Prometheus
    style).  Fixed buckets keep observation O(len(buckets)) with zero
    allocation — the default-cheap requirement."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"{name}: at least one bucket required")
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"buckets": list(self.buckets),
                    "counts": list(self._counts),
                    "sum": self._sum,
                    "count": sum(self._counts)}

    def samples(self) -> List[Tuple[str, float]]:
        snap = self.snapshot()
        out: List[Tuple[str, float]] = []
        cumulative = 0
        for bound, count in zip(snap["buckets"], snap["counts"]):
            cumulative += count
            out.append((f'{self.name}_bucket{{le="{_fmt(bound)}"}}',
                        float(cumulative)))
        cumulative += snap["counts"][-1]
        out.append((f'{self.name}_bucket{{le="+Inf"}}', float(cumulative)))
        out.append((f"{self.name}_sum", snap["sum"]))
        out.append((f"{self.name}_count", float(snap["count"])))
        return out


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """A named family of metrics with one render surface.

    Registration is idempotent-hostile on purpose: registering the same
    name twice raises, because two owners silently sharing a series is
    exactly the bug the per-owner registry design exists to prevent.
    """

    def __init__(self) -> None:
        self._metrics: "Dict[str, Any]" = {}
        self._lock = threading.Lock()

    def _register(self, metric: Any) -> Any:
        _check_name(metric.name, metric.kind)
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already "
                                 "registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                fn: Optional[Callable[[], float]] = None) -> Counter:
        return self._register(Counter(name, help_text, fn))

    def gauge(self, name: str, help_text: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(Gauge(name, help_text, fn))

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram(name, help_text, buckets))

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, value in metric.samples():
                lines.append(f"{sample_name} {_fmt_value(value)}")
        return "\n".join(lines) + "\n"


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- text-format lint (the tiny parser the tests and CLI share) ----------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse Prometheus text format into ``{family: {type, help,
    samples: {sample_name: value}}}``.

    Deliberately strict where it matters for lint: every sample line
    must belong to a family that already announced ``# HELP`` *and*
    ``# TYPE``, values must parse as floats, and counter samples must
    be non-negative.  Raises ``ValueError`` on violations.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[:-len(suffix)] if \
                sample_name.endswith(suffix) else None
            if base and base in families and \
                    families[base]["type"] == "histogram":
                return base
        return sample_name

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"samples": {}})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: unknown TYPE {kind!r}")
            families.setdefault(name, {"samples": {}})["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparsable sample {line!r}")
        sample_name = match.group(1) + (match.group(2) or "")
        try:
            value = float(match.group(3))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value in {line!r}") from None
        family = families.get(family_of(match.group(1)))
        if family is None or "type" not in family or "help" not in family:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} before its "
                "# HELP/# TYPE header")
        if family["type"] == "counter" and value < 0:
            raise ValueError(
                f"line {lineno}: counter {sample_name!r} is negative")
        family["samples"][sample_name] = value
    for name, family in families.items():
        if "type" not in family or "help" not in family:
            raise ValueError(f"family {name!r} missing # HELP or # TYPE")
    return families
