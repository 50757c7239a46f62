"""Distributed trace contexts: follow one request across processes.

A :class:`TraceContext` is a ``(trace_id, span_id)`` pair with a W3C
``traceparent``-style string form (``00-<32 hex>-<16 hex>-01``).  It is
minted once at the outermost entry point of a request — a
:class:`repro.serve.ServeClient` submission, the experiments CLI, or a
direct :meth:`repro.runner.SimRunner.run` call — and then *propagated*,
never re-minted:

* the serve wire format carries it as an optional ``traceparent``
  envelope field (old clients simply omit it, old servers ignore it);
* :class:`repro.serve.broker.JobBroker` threads it through its queue;
* :class:`repro.runner.SimRunner` hands it across the
  ``ProcessPoolExecutor`` boundary as an ``execute_job`` argument;
* :class:`repro.obs.runlog.RunLogWriter` binds the installed context
  into every record it emits, and the span profiler stamps it onto each
  job's profile payload.

``python -m repro obs report --trace <id>`` then reconstructs the full
tree of one request across server and worker shards.

Each hop mints a *child* context: same ``trace_id``, fresh ``span_id``,
with the parent's span recorded — so the runlog shows who caused what,
not just correlation.  Tracing is always on and is a pure observation
channel: it never enters job fingerprints and cannot change simulation
results.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: The traceparent version prefix we emit (W3C trace-context level 00).
_VERSION = "00"

#: Sampled flag — everything we trace is "recorded".
_FLAGS = "01"

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")


def _hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One hop of one request: the request id plus this hop's span."""

    trace_id: str                       # 32 lowercase hex chars
    span_id: str                        # 16 lowercase hex chars
    parent_span: Optional[str] = None   # the causing hop's span_id

    def __post_init__(self) -> None:
        if len(self.trace_id) != 32 or int(self.trace_id, 16) == 0:
            raise ValueError(f"bad trace_id {self.trace_id!r}")
        if len(self.span_id) != 16 or int(self.span_id, 16) == 0:
            raise ValueError(f"bad span_id {self.span_id!r}")

    def to_traceparent(self) -> str:
        """The wire form: ``00-<trace_id>-<span_id>-01``."""
        return f"{_VERSION}-{self.trace_id}-{self.span_id}-{_FLAGS}"

    def child(self) -> "TraceContext":
        """A new span in the same trace, parented to this one."""
        return TraceContext(self.trace_id, _hex(8), self.span_id)

    def fields(self) -> Dict[str, Any]:
        """The record-envelope fields runlog writers attach."""
        out: Dict[str, Any] = {"trace_id": self.trace_id,
                               "span_id": self.span_id}
        if self.parent_span:
            out["parent_span"] = self.parent_span
        return out


def new_context() -> TraceContext:
    """Mint a fresh root context (the outermost entry point does this)."""
    return TraceContext(_hex(16), _hex(8))


def from_traceparent(value: str) -> TraceContext:
    """Parse a wire ``traceparent``; raises ``ValueError`` on junk."""
    match = _TRACEPARENT_RE.match(value or "")
    if not match:
        raise ValueError(f"malformed traceparent {value!r}")
    return TraceContext(match.group(1), match.group(2))


def parse_or_none(value: Optional[str]) -> Optional[TraceContext]:
    """Schema-tolerant parse: None/malformed -> None (old clients may
    send nothing; a corrupt value must not fail the job it rides on)."""
    if not value:
        return None
    try:
        return from_traceparent(value)
    except ValueError:
        return None


# -- the per-process installed context -----------------------------------------
#
# Like the profiler and runlog writer, one job executes at a time per
# process (parallelism is process-level), so a module global is the
# scope: the runlog writer and profiler read it without every call site
# threading it through.

_current: Optional[TraceContext] = None


def current() -> Optional[TraceContext]:
    """The context installed for this process (None = untraced)."""
    return _current


def install(context: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install a context; returns the previous one (for restore)."""
    global _current
    previous = _current
    _current = context
    return previous


def uninstall() -> None:
    install(None)


def ambient() -> TraceContext:
    """The context a new batch should run under: the installed one, or
    a freshly minted root when nothing is installed (i.e. this process
    *is* the outermost entry point)."""
    return _current if _current is not None else new_context()
