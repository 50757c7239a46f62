"""The serve wire protocol: jobs and results as JSON payloads.

The job wire format *is* the canonical fingerprint JSON
(:meth:`repro.runner.SimJob.canonical`, already schema-versioned via
``repro.runner.jobs.SCHEMA_VERSION``): the client sends exactly the
dictionary its fingerprint hashes, plus the fingerprint it computed.
The server reconstructs a :class:`SimJob` from that dictionary
(:meth:`SimJob.from_canonical`) and recomputes the fingerprint; any
mismatch — a non-JSON-clean kwarg, a schema skew between client and
server, a tampered field — is rejected loudly instead of silently keying
a different simulation.  ``resume`` is not in the canonical form, so a
served job always runs straight (with bit-identical results).

Results travel as the pickled :class:`repro.runner.JobResult` bytes
(base64 inside the JSON envelope, sha256-guarded), i.e. the exact
payload the on-disk result cache stores — which is what makes a served
result *byte-identical* to a direct :class:`SimRunner` call, not merely
numerically equal.  Unpickling executes arbitrary bytecode, so the
client only ever talks to servers it trusts exactly as much as its own
``benchmarks/.simcache`` directory (the server is a loopback/LAN
deployment of this same codebase, not a public endpoint).
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from typing import Any, Dict, Optional, Tuple

from ..runner.jobs import SCHEMA_VERSION, JobResult, SimJob

#: Version of the HTTP/JSON envelope (bump when routes or payload
#: shapes change; the job schema itself is versioned separately by
#: ``repro.runner.jobs.SCHEMA_VERSION`` inside the canonical form).
#: v2: the ``/v1/healthz`` and ``/v1/stats`` routes are gone
#: (``/healthz`` and ``/metrics`` serve liveness and every counter).
WIRE_VERSION = 2


class WireError(ValueError):
    """A payload that cannot be (safely) decoded."""


# -- jobs ----------------------------------------------------------------------

def job_to_wire(job: SimJob,
                traceparent: Optional[str] = None) -> Dict[str, Any]:
    """Encode one job: its canonical form plus the claimed fingerprint.

    ``traceparent`` (the submitting request's ``repro.obs.trace``
    context in W3C string form) rides the envelope as an *optional*
    key: old servers never look for it, old clients never send it, and
    it stays outside the fingerprinted ``job`` object — tracing must
    not split cache entries.
    """
    payload = {"wire": WIRE_VERSION, "job": job.canonical(),
               "fingerprint": job.fingerprint()}
    if traceparent:
        payload["traceparent"] = traceparent
    return payload


def job_from_wire(payload: Dict[str, Any]) -> Tuple[SimJob, str]:
    """Decode and *verify* one job; returns ``(job, fingerprint)``.

    The reconstructed job's own fingerprint must equal the claimed one —
    that round-trip is the integrity check that keeps the server's
    cache keyed exactly like every direct caller's.
    """
    if payload.get("wire") != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: got {payload.get('wire')!r}, "
            f"this server speaks {WIRE_VERSION}")
    try:
        canonical = payload["job"]
        claimed = payload["fingerprint"]
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed job payload: {exc}") from None
    if not isinstance(canonical, dict):
        raise WireError("job payload must be the canonical JSON object")
    if canonical.get("schema") != SCHEMA_VERSION:
        raise WireError(
            f"job schema mismatch: got {canonical.get('schema')!r}, "
            f"this server speaks {SCHEMA_VERSION}")
    try:
        job = SimJob.from_canonical(canonical)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed job payload: {exc}") from None
    fingerprint = job.fingerprint()
    if fingerprint != claimed:
        raise WireError(
            f"fingerprint mismatch: client claimed {claimed!r} but the "
            f"reconstructed job keys as {fingerprint!r} (non-JSON-clean "
            f"parameter, or client/server schema skew)")
    return job, fingerprint


# -- results -------------------------------------------------------------------

def result_to_wire(result: JobResult) -> Dict[str, Any]:
    """Encode one result as guarded pickle bytes."""
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return {"wire": WIRE_VERSION,
            "pickle": base64.b64encode(blob).decode("ascii"),
            "sha256": hashlib.sha256(blob).hexdigest()}


def result_from_wire(payload: Dict[str, Any]) -> JobResult:
    """Decode one result, verifying the digest before unpickling."""
    if payload.get("wire") != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: got {payload.get('wire')!r}, "
            f"this client speaks {WIRE_VERSION}")
    try:
        blob = base64.b64decode(payload["pickle"].encode("ascii"))
        digest = payload["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed result payload: {exc}") from None
    if hashlib.sha256(blob).hexdigest() != digest:
        raise WireError("result payload failed its sha256 check")
    try:
        result = pickle.loads(blob)
    except Exception as exc:
        raise WireError(f"result payload failed to unpickle: {exc}") \
            from None
    if not isinstance(result, JobResult):
        raise WireError(
            f"result payload decoded to {type(result).__name__}, "
            f"expected JobResult")
    return result

