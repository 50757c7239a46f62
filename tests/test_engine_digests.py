"""Pinned engine digests: the bit-exact oracle for the simulator.

Every case below is one :class:`~repro.runner.SimJob` at the 1/8-scale
test hierarchy.  For each case the file ``data/engine_digests.json``
pins:

* ``results`` — every ``SimResult`` the job returns (bus-event counters
  included) plus its probe payloads;
* ``warm_state`` — a key-sorted digest of ``Engine.state_dict()`` at the
  warm-up boundary (for the progress-mark case, also ``marks``: the
  digests of every state the mark hook sees);
* ``fingerprint`` / ``warmup_fingerprint`` — the result-cache and
  checkpoint keys.

A restructure of the engine, hierarchy or caches may change anything
except these numbers.  The file changes only on purpose, through
``python tests/test_engine_digests.py --regenerate`` (run from the
repository root with ``PYTHONPATH=src``), and only with a change that
is meant to move simulated results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.runner import SimJob
from repro.sim.config import SystemConfig
from repro.telemetry.config import TelemetryConfig

DIGEST_FILE = pathlib.Path(__file__).parent / "data" / "engine_digests.json"

#: Trace records per core.
N = 4000
#: Progress-mark interval of the ``marks`` case (several marks per run).
MARK_EVERY = 700

PREFETCHER_SETS = {
    "none": (None, ()),
    "stride": ("stride", ()),
    "stride+triangel": ("stride", ("triangel",)),
    "stride+streamline": ("stride", ("streamline",)),
    "berti+triage": ("berti", ("triage",)),
}


@dataclasses.dataclass(frozen=True)
class Case:
    workloads: Tuple[str, ...]
    prefetchers: str
    llc: str = "srrip"
    telemetry: bool = False
    #: "straight", "resume" (restored from a warm checkpoint) or "marks"
    #: (``REPRO_CKPT_MARK`` progress marks during the measured region).
    mode: str = "straight"

    def config(self) -> SystemConfig:
        cfg = SystemConfig().scaled_down(8).scaled(llc_replacement=self.llc)
        if self.telemetry:
            cfg = cfg.scaled(telemetry=TelemetryConfig(interval=500))
        return cfg

    def job(self) -> SimJob:
        l1, l2 = PREFETCHER_SETS[self.prefetchers]
        if len(self.workloads) > 1:
            return SimJob.multi(self.workloads, N, self.config(), l1=l1,
                                l2=l2, probes=("bus_counts",))
        probes = ("telemetry",) if self.telemetry else ()
        return SimJob.single(self.workloads[0], N, self.config(), l1=l1,
                             l2=l2, probes=probes,
                             resume=self.mode != "straight")


def _cases() -> Dict[str, Case]:
    cases = {}
    for wl in ("06.mcf", "06.lbm", "gap.pr"):
        for pfs in PREFETCHER_SETS:
            cases[f"{wl}/{pfs}"] = Case((wl,), pfs)
    cases["gap.pr/stride+streamline/telemetry"] = Case(
        ("gap.pr",), "stride+streamline", telemetry=True)
    cases["gap.pr/stride+streamline/resume"] = Case(
        ("gap.pr",), "stride+streamline", mode="resume")
    cases["06.mcf/stride+triangel/marks"] = Case(
        ("06.mcf",), "stride+triangel", mode="marks")
    cases["mix2/stride+streamline"] = Case(
        ("06.mcf", "gap.pr"), "stride+streamline")
    cases["mix4/stride+streamline"] = Case(
        ("06.mcf", "06.omnetpp", "17.xalancbmk", "06.lbm"),
        "stride+streamline")
    cases["gap.pr/stride+streamline/llc-lru"] = Case(
        ("gap.pr",), "stride+streamline", llc="lru")
    cases["gap.pr/stride+streamline/llc-hawkeye"] = Case(
        ("gap.pr",), "stride+streamline", llc="hawkeye")
    return cases


CASES = _cases()


# -- digests -------------------------------------------------------------------


def tree_digest(tree: Any) -> str:
    """sha256 of a state tree: key-sorted JSON structure and scalars,
    then every array's dtype, shape and exact bytes."""
    arrays: List[np.ndarray] = []

    def encode(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            arrays.append(node)
            return {"__nd__": len(arrays) - 1}
        if isinstance(node, dict):
            return {str(k): encode(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [encode(v) for v in node]
        if isinstance(node, np.generic):
            return node.item()
        return node

    h = hashlib.sha256(json.dumps(encode(tree), sort_keys=True).encode())
    for arr in arrays:
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def result_digest(job_result) -> str:
    value = job_result.value
    cores = getattr(value, "cores", None)
    singles = list(cores) if cores is not None else [value]
    return tree_digest({"results": [dataclasses.asdict(s) for s in singles],
                        "probes": job_result.probes})


def measure(case: Case, ckpt_dir: pathlib.Path,
            monkeypatch) -> Dict[str, Any]:
    """Run ``case`` and return its digests."""
    monkeypatch.setenv("REPRO_PROFILE", "0")  # profiles hold host timings
    job = case.job()
    warm = job._build_engine()
    warm.run_warmup()
    out: Dict[str, Any] = {
        "fingerprint": job.fingerprint(),
        "warmup_fingerprint": job.warmup_fingerprint(),
        "warm_state": tree_digest(warm.state_dict()),
    }
    if case.mode != "straight":
        monkeypatch.setenv("REPRO_CKPT", "1")
        monkeypatch.setenv("REPRO_CKPT_DIR", str(ckpt_dir))
    if case.mode == "resume":
        assert job.prewarm()
    if case.mode == "marks":
        monkeypatch.setenv("REPRO_CKPT_MARK", str(MARK_EVERY))
        marks: List[str] = []
        warm.set_mark_hook(MARK_EVERY,
                           lambda e: marks.append(tree_digest(e.state_dict())))
        warm.run()
        assert marks, "the progress-mark case placed no marks"
        out["marks"] = tree_digest(marks)
    out["results"] = result_digest(job.execute())
    return out


def pinned() -> Dict[str, Dict[str, Any]]:
    return json.loads(DIGEST_FILE.read_text())


# Test ids spell the case names with "-": "/" reads as a path separator.
@pytest.mark.parametrize("name", sorted(CASES),
                         ids=lambda name: name.replace("/", "-"))
def test_engine_digest(name, tmp_path, monkeypatch):
    want = pinned()[name]
    got = measure(CASES[name], tmp_path, monkeypatch)
    assert got == want


def test_every_case_is_pinned():
    assert sorted(pinned()) == sorted(CASES)


def regenerate() -> None:
    import tempfile
    book = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as env:
            book[name] = measure(CASES[name], pathlib.Path(tmp), env)
        print(name, book[name]["results"][:12])
    DIGEST_FILE.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_engine_digests.py --regenerate")
    regenerate()
