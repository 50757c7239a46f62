"""Checkpoint & resume: warm-up reuse speedup and snapshot overhead.

A degree sweep is the checkpoint subsystem's headline use case: every
point shares the identical warm-up region (``measure_overrides`` only
bite after the boundary), so a straight sweep simulates that region
once per point while a resuming sweep simulates it once *total* and
restores it N−1 times.  With ``warmup_fraction = 0.5`` and N points the
ideal speedup is ``2N / (N + 1)`` (≈1.71× at N=6).

Guarantees asserted every run:

1. **Resume is exact** — every resumed point's ``SimResult`` equals the
   straight run's, bit for bit.
2. **Reuse pays** — the resuming sweep beats the straight sweep
   (≥1.3× at full scale, >1.0× under ``REPRO_QUICK``/CI sizes).

Also measured: snapshot serialized size, save and restore wall-clock.

Run standalone: ``python benchmarks/bench_checkpoint.py``
"""

import dataclasses
import os
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

WORKLOAD = "gap.pr"
DEGREES = (1, 2, 3, 4, 6, 8)

#: Accesses per trace when ``REPRO_N`` is unset.
DEFAULT_N = 60_000


def _jobs():
    from repro.experiments.common import env_n, experiment_config
    from repro.runner import SimJob, spec

    n = env_n(DEFAULT_N)
    # Half the trace is warm-up: the region the sweep shares.
    cfg = dataclasses.replace(experiment_config(), warmup_fraction=0.5)
    l2 = (spec("streamline", stability_degree=False),)
    return [SimJob.single(WORKLOAD, n, cfg, l2=l2,
                          measure_overrides=(("degree", d),),
                          resume=True)
            for d in DEGREES]


def _run_sweep(jobs, resume: bool):
    results, t0 = [], time.perf_counter()
    for job in jobs:
        results.append(dataclasses.replace(job, resume=resume)
                       .execute().single)
    return results, time.perf_counter() - t0


def _measure(ckpt_dir: str):
    """(lines, speedup): the report body and the headline ratio."""
    from repro.checkpoint import CheckpointStore, dumps_size

    os.environ["REPRO_CKPT"] = "1"
    os.environ["REPRO_CKPT_DIR"] = ckpt_dir
    os.environ.pop("REPRO_CKPT_MARK", None)
    jobs = _jobs()

    os.environ["REPRO_CKPT"] = "0"
    straight, straight_secs = _run_sweep(jobs, resume=False)
    os.environ["REPRO_CKPT"] = "1"

    # Prewarm once (timed as part of the resuming sweep's cost).
    t0 = time.perf_counter()
    jobs[0].prewarm()
    prewarm_secs = time.perf_counter() - t0
    resumed, resume_secs = _run_sweep(jobs, resume=True)
    resume_secs += prewarm_secs

    assert resumed == straight, \
        "resumed sweep diverged from the straight sweep"
    assert len({j.warmup_fingerprint() for j in jobs}) == 1, \
        "degree sweep no longer shares one warm-up fingerprint"

    store = CheckpointStore(pathlib.Path(ckpt_dir))
    key = jobs[0].warmup_fingerprint()
    snap_path = store.path(key)
    snap_kib = snap_path.stat().st_size / 1024.0
    t0 = time.perf_counter()
    state = store.get(key)
    load_secs = time.perf_counter() - t0
    raw_kib = dumps_size(state) / 1024.0

    speedup = straight_secs / resume_secs if resume_secs else 0.0
    n = len(jobs)
    lines = [
        "== checkpoint & resume ==",
        f"workload {WORKLOAD}, streamline degree sweep "
        f"{list(DEGREES)}, warmup_fraction 0.5",
        f"straight sweep : {straight_secs:7.3f}s "
        f"({n}x full warm-up)",
        f"resuming sweep : {resume_secs:7.3f}s "
        f"(1 warm-up + {n}x restore; incl. {prewarm_secs:.3f}s prewarm)",
        f"speedup        : {speedup:.2f}x "
        f"(ideal {2 * n / (n + 1):.2f}x)",
        f"snapshot size  : {snap_kib:.1f} KiB on disk "
        f"({raw_kib:.1f} KiB serialized)",
        f"snapshot load  : {load_secs * 1000:.1f} ms",
        "resumed results bit-identical to straight: yes",
    ]
    return lines, speedup


def _speedup_floor() -> float:
    from repro.experiments.common import env_n, quick_mode

    return 1.0 if quick_mode() or env_n(DEFAULT_N) < 40_000 else 1.3


def _check_speedup(speedup: float) -> None:
    floor = _speedup_floor()
    assert speedup > floor, \
        f"warm-up reuse speedup {speedup:.2f}x below the {floor}x floor"


def test_checkpoint_speedup(benchmark):
    with tempfile.TemporaryDirectory() as ckpt_dir:
        lines, speedup = benchmark.pedantic(
            lambda: _measure(ckpt_dir), rounds=1, iterations=1)
    print()
    print("\n".join(lines))
    benchmark.extra_info["speedup"] = speedup
    _check_speedup(speedup)


def main() -> None:
    with tempfile.TemporaryDirectory() as ckpt_dir:
        lines, speedup = _measure(ckpt_dir)
    text = "\n".join(lines) + "\n"
    print(text)
    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "checkpoint.txt").write_text(text)
    _check_speedup(speedup)


if __name__ == "__main__":
    main()
