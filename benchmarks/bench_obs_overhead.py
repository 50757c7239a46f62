"""Span-profiler overhead: profiling must be free when off, cheap when on.

Four guarantees, asserted every run:

1. **Off is off** — two ``REPRO_PROFILE``-unset executions of the same
   job are bit-identical (dataclass equality over every ``SimResult``
   field), i.e. the profiler's mere existence perturbs nothing.
2. **On is pure observation** — a profiled run produces the exact same
   ``SimResult`` as the off run once the ``profile`` payload is masked
   out; only timing metadata is added, never simulation state.
3. **Spans account for the job** — the depth-1 phase spans (build,
   warmup, measure, collect, ...) sum to within 10% of the profiled
   job's wall-clock, and the profiler-on overhead stays <= 25% over the
   off run.
4. **Tracing is near-free** — ``execute_job(job, traceparent)`` under a
   live trace context produces a ``SimResult`` bit-identical to
   ``execute_job(job, None)`` (no masking needed: contexts ride the
   runlog, never the result), and the on-path overhead stays <= 10%.

Run standalone: ``python benchmarks/bench_obs_overhead.py``
"""

import dataclasses
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

WORKLOAD = "gap.pr"

#: Acceptance bounds: profiled overhead and phase-sum error.
MAX_OVERHEAD = 0.25
MAX_PHASE_ERROR = 0.10

#: Acceptance bound: traced-execution on-path overhead.
MAX_OBS_PLANE_OVERHEAD = 0.10


def _job():
    from repro.experiments.common import env_n, experiment_config
    from repro.runner import SimJob, spec

    n = env_n(30_000)
    return SimJob.single(WORKLOAD, n, experiment_config(), l1="stride",
                         l2=(spec("streamline"),))


def _timed_execute(job, profile: bool):
    from repro.obs import profile as obs_profile

    os.environ["REPRO_PROFILE"] = "1" if profile else "0"
    assert obs_profile.enabled() == profile
    t0 = time.perf_counter()
    try:
        result = job.execute()
    finally:
        os.environ.pop("REPRO_PROFILE", None)
    return result, time.perf_counter() - t0


def _timed_execute_traced(job, traced: bool):
    """One :func:`execute_job` pass under a fresh root context's
    traceparent, or with none."""
    from repro.obs import trace as obs_trace
    from repro.runner.jobs import execute_job

    traceparent = obs_trace.new_context().to_traceparent() \
        if traced else None
    t0 = time.perf_counter()
    result = execute_job(job, traceparent)
    return result, time.perf_counter() - t0


def _check_plane(job):
    """Guarantee 4; returns (untraced seconds, traced seconds,
    overhead)."""
    off_a, off_secs_a = _timed_execute_traced(job, traced=False)
    off_b, off_secs_b = _timed_execute_traced(job, traced=False)
    assert off_a.single == off_b.single, \
        "untraced runs are not bit-identical"
    on_a, on_secs_a = _timed_execute_traced(job, traced=True)
    on_b, on_secs_b = _timed_execute_traced(job, traced=True)
    assert on_a.single == off_a.single, \
        "tracing perturbed the SimResult"
    off_secs = min(off_secs_a, off_secs_b)
    on_secs = min(on_secs_a, on_secs_b)
    overhead = on_secs / off_secs - 1.0 if off_secs else 0.0
    assert overhead <= MAX_OBS_PLANE_OVERHEAD, \
        f"traced on-path overhead {100 * overhead:.1f}% > " \
        f"{100 * MAX_OBS_PLANE_OVERHEAD:.0f}%"
    return off_secs, on_secs, overhead


def _check(off_result, on_result):
    """Guarantees 2 and 3; returns (profile payload, phase error)."""
    payload = on_result.single.profile
    assert payload is not None and payload["enabled"], \
        "profiled run carries no profile payload"
    masked = dataclasses.replace(on_result.single, profile=None)
    assert masked == off_result.single, \
        "profiled run diverged from unprofiled results"
    wall = payload["wall_seconds"]
    phase_sum = sum(payload["phases"].values())
    error = abs(phase_sum - wall) / wall if wall else 0.0
    assert error <= MAX_PHASE_ERROR, \
        f"phase spans sum to {phase_sum:.3f}s vs wall {wall:.3f}s " \
        f"({100 * error:.1f}% > {100 * MAX_PHASE_ERROR:.0f}%)"
    for span in payload["spans"]:
        assert span["self"] <= span["total"] + 1e-9, \
            f"span {span['path']}: self > total"
    return payload, error


def test_obs_overhead(benchmark):
    job = _job()
    off_a, _ = _timed_execute(job, profile=False)
    off_b, off_secs = _timed_execute(job, profile=False)
    assert off_a.single == off_b.single, \
        "profiler-off runs are not bit-identical"
    on_result, on_secs = benchmark.pedantic(
        lambda: _timed_execute(job, profile=True), rounds=1, iterations=1)
    payload, error = _check(off_b, on_result)
    benchmark.extra_info["off_secs"] = off_secs
    benchmark.extra_info["overhead"] = on_secs / off_secs - 1.0 \
        if off_secs else 0.0
    benchmark.extra_info["phase_error"] = error
    _, _, plane_overhead = _check_plane(job)
    benchmark.extra_info["trace_overhead"] = plane_overhead


def main() -> None:
    job = _job()
    off_a, secs_a = _timed_execute(job, profile=False)
    off_b, secs_b = _timed_execute(job, profile=False)
    assert off_a.single == off_b.single, \
        "profiler-off runs are not bit-identical"
    on_result, on_secs = _timed_execute(job, profile=True)
    payload, error = _check(off_b, on_result)
    off_secs = min(secs_a, secs_b)
    overhead = on_secs / off_secs - 1.0 if off_secs else 0.0
    assert overhead <= MAX_OVERHEAD, \
        f"profiler-on overhead {100 * overhead:.1f}% > " \
        f"{100 * MAX_OVERHEAD:.0f}%"
    plane_off, plane_on, plane_overhead = _check_plane(job)
    components = sorted(payload["components"].items(),
                        key=lambda kv: -kv[1]["seconds"])[:5]
    lines = [
        "== obs overhead ==",
        f"workload {WORKLOAD}: off {off_secs:.3f}s on {on_secs:.3f}s "
        f"-> overhead {100 * overhead:+.1f}% "
        f"(bound {100 * MAX_OVERHEAD:.0f}%)",
        f"phase-span sum within {100 * error:.1f}% of wall "
        f"(bound {100 * MAX_PHASE_ERROR:.0f}%)",
        "profiler-off runs bit-identical: yes",
        "profiled SimResult identical to off (profile masked): yes",
        f"tracing: untraced {plane_off:.3f}s traced {plane_on:.3f}s "
        f"-> overhead {100 * plane_overhead:+.1f}% "
        f"(bound {100 * MAX_OBS_PLANE_OVERHEAD:.0f}%), "
        "results bit-identical: yes",
        "hottest components: " + ", ".join(
            f"{name} {comp['seconds']:.3f}s" for name, comp in components),
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "obs_overhead.txt").write_text(text)


if __name__ == "__main__":
    main()
