"""Streaming trace pipeline: constant-memory replay + generation speedup.

Two guarantees, asserted every run:

1. **O(chunk) memory** — generating a 10M-access trace straight to the
   on-disk store and replaying it chunk-by-chunk both peak at a fixed
   memory budget that does not scale with ``n`` (the whole point of the
   out-of-core pipeline: a materialized 10M trace is ~220 MB of
   columns; 100M would be ~2.2 GB).  Peaks are measured with
   ``tracemalloc`` and asserted against an absolute budget and against
   a fraction of the materialized size.
2. **Vectorized generation pays** — the chunk producers beat a
   faithful per-record scalar loop (the pre-streaming ``TraceBuilder``
   idiom) by a measured floor.  Rates are compared records/second so
   the scalar reference can run at a smaller n without inflating the
   bench's wall clock.

Floors (full scale / ``REPRO_QUICK``): generation speedup >= 4x / 2.5x;
memory budget 64 MB at any scale.

Run standalone: ``python benchmarks/bench_tracestream.py``
"""

import json
import pathlib
import sys
import tempfile
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

#: Peak-memory ceiling for generate-to-store and replay, independent of
#: n.  Roughly: a few 64Ki-record chunk buffers (~1.4 MB each) plus
#: numpy/interpreter slack — far under the materialized trace size.
MEMORY_BUDGET_BYTES = 64 << 20

#: Bytes per materialized record (int64 pc + int64 addr + bool + int32
#: + bool), for the "what streaming avoids" comparison.
RECORD_BYTES = 22

WORKLOAD = "06.lbm"  # pure stream archetype: regular, rng-free


def _n() -> int:
    from repro.experiments.common import env_n, quick_mode

    n = env_n(10_000_000)
    return min(n, 1_000_000) if quick_mode() else n


def _speedup_floor() -> float:
    from repro.experiments.common import quick_mode

    return 2.5 if quick_mode() else 4.0


def _scalar_reference(n: int):
    """The pre-streaming idiom: one ``TraceBuilder.add`` per record.

    Replicates ``workloads.base.stream`` (the 06.lbm archetype,
    arrays=4) record by record; the digest check below proves it.
    """
    from repro.sim.trace import TraceBuilder
    from repro.workloads.base import _PC_BASE, REGION_BITS

    arrays, array_bytes, stride, gap = 4, 1 << 22, 8, 2
    b = TraceBuilder("scalar")
    for i in range(n):
        a = i % arrays
        off = ((i // arrays) * stride) % array_bytes
        b.add(_PC_BASE + 4 * a, ((a + 1) << REGION_BITS) + off,
              a == arrays - 1, gap)
    return b


def _digest(t) -> str:
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for arr in (t.pcs, t.addrs, t.writes, t.gaps, t.deps):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _measure_generation(n: int):
    """Vectorized-vs-scalar producer rates (+ identity check).

    Both sides are measured as *producers* — the vectorized side
    drains the chunk stream (what the store persists; nothing is ever
    concatenated on the streaming path), the scalar side runs the
    per-record ``add`` loop the generators used before the rewrite.
    """
    from repro.sim.trace import Trace
    from repro.workloads import make_chunks

    t0 = time.perf_counter()
    produced = sum(len(c) for c in make_chunks(WORKLOAD, n, 42))
    vec_secs = time.perf_counter() - t0
    assert produced == n

    # The scalar loop is O(n) Python bytecode; run it at a bounded n
    # and compare records/second.  Identity is asserted at scalar n.
    n_ref = min(n, 500_000)
    t0 = time.perf_counter()
    scalar = _scalar_reference(n_ref)
    scalar_secs = time.perf_counter() - t0
    assert _digest(scalar.build()) == _digest(
        Trace.from_chunks("v", make_chunks(WORKLOAD, n_ref, 42))), \
        "scalar reference diverged from the vectorized generator"

    vec_rate = n / max(vec_secs, 1e-9)
    scalar_rate = n_ref / max(scalar_secs, 1e-9)
    return {
        "n": n,
        "n_scalar_ref": n_ref,
        "vectorized_secs": round(vec_secs, 3),
        "scalar_secs": round(scalar_secs, 3),
        "vectorized_records_per_sec": int(vec_rate),
        "scalar_records_per_sec": int(scalar_rate),
        "speedup": round(vec_rate / scalar_rate, 2),
    }


def _measure_memory(n: int):
    """Peak tracemalloc bytes for store-generate and chunked replay."""
    from repro.tracestream.store import TraceStore
    from repro.workloads import make_chunks

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(pathlib.Path(tmp))
        tracemalloc.start()
        trace = store.put(WORKLOAD, n, 42, make_chunks(WORKLOAD, n, 42))
        _, gen_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        records = 0
        for chunk in trace.iter_chunks():
            records += len(chunk)
        _, replay_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert records == n
    return {
        "n": n,
        "materialized_bytes": n * RECORD_BYTES,
        "generate_peak_bytes": gen_peak,
        "replay_peak_bytes": replay_peak,
        "budget_bytes": MEMORY_BUDGET_BYTES,
    }


def _check(gen, mem):
    floor = _speedup_floor()
    assert gen["speedup"] >= floor, \
        f"vectorized generation {gen['speedup']:.2f}x below the " \
        f"{floor}x floor"
    for phase in ("generate_peak_bytes", "replay_peak_bytes"):
        peak = mem[phase]
        assert peak <= MEMORY_BUDGET_BYTES, \
            f"{phase} {peak / 2**20:.1f} MB exceeds the " \
            f"{MEMORY_BUDGET_BYTES / 2**20:.0f} MB O(chunk) budget"
        # O(chunk), not O(n): at full scale the peak must sit well
        # under the materialized trace it replaces.
        if mem["materialized_bytes"] >= 4 * MEMORY_BUDGET_BYTES:
            assert peak < mem["materialized_bytes"] // 4, \
                f"{phase} scales with n"


def _lines(gen, mem):
    return [
        f"== tracestream == ({WORKLOAD}, n={gen['n']:,})",
        f"  generation: vectorized {gen['vectorized_secs']:7.3f}s "
        f"({gen['vectorized_records_per_sec']:,}/s)  scalar ref "
        f"{gen['scalar_secs']:7.3f}s at n={gen['n_scalar_ref']:,} "
        f"({gen['scalar_records_per_sec']:,}/s)  "
        f"x{gen['speedup']:.2f} (floor {_speedup_floor()}x)",
        f"  memory: materialized would be "
        f"{mem['materialized_bytes'] / 2**20:.0f} MB; peaks "
        f"generate {mem['generate_peak_bytes'] / 2**20:.1f} MB, "
        f"replay {mem['replay_peak_bytes'] / 2**20:.1f} MB "
        f"(budget {MEMORY_BUDGET_BYTES / 2**20:.0f} MB)",
    ]


def _persist(gen, mem):
    from _harness import RESULTS_DIR, SUMMARY, _atomic_write_json

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "exp_id": "tracestream",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": WORKLOAD,
        "generation": gen,
        "memory": mem,
        "speedup_floor": _speedup_floor(),
    }
    (RESULTS_DIR / "tracestream.txt").write_text(
        "\n".join(_lines(gen, mem)) + "\n")
    _atomic_write_json(RESULTS_DIR / "tracestream.json", record)
    summary_path = RESULTS_DIR / SUMMARY
    summary = {"schema": 1, "benches": {}}
    if summary_path.is_file():
        try:
            loaded = json.loads(summary_path.read_text(encoding="utf-8"))
            if isinstance(loaded.get("benches"), dict):
                summary["benches"] = loaded["benches"]
                summary["schema"] = loaded.get("schema", 1)
        except (json.JSONDecodeError, OSError):
            pass  # corrupt summary: rebuild from this run onward
    summary["updated"] = record["timestamp"]
    summary["benches"]["tracestream"] = {
        "timestamp": record["timestamp"],
        "generation_speedup": gen["speedup"],
        "generate_peak_mb": round(mem["generate_peak_bytes"] / 2**20, 1),
        "replay_peak_mb": round(mem["replay_peak_bytes"] / 2**20, 1),
    }
    _atomic_write_json(summary_path, summary)


def test_tracestream_memory_and_speedup(benchmark):
    n = _n()
    gen, mem = benchmark.pedantic(
        lambda: (_measure_generation(n), _measure_memory(n)),
        rounds=1, iterations=1)
    _check(gen, mem)
    print()
    print("\n".join(_lines(gen, mem)))
    benchmark.extra_info["generation_speedup"] = gen["speedup"]
    benchmark.extra_info["replay_peak_bytes"] = mem["replay_peak_bytes"]
    _persist(gen, mem)


def main() -> None:
    n = _n()
    gen = _measure_generation(n)
    mem = _measure_memory(n)
    _check(gen, mem)
    print("\n".join(_lines(gen, mem)))
    _persist(gen, mem)


if __name__ == "__main__":
    main()
