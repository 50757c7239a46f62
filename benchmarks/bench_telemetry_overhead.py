"""Telemetry overhead: observation must be free when off, cheap when on.

Three guarantees, asserted every run:

1. **Off is off** — two telemetry-off executions of the same job are
   bit-identical (dataclass equality over every ``SimResult`` field),
   i.e. the subsystem's mere existence perturbs nothing.
2. **On is pure observation** — a telemetry-on run produces the exact
   same ``SimResult`` as the off run (same timing, same stats, same bus
   counters); only the probe payload differs.
3. **The lifecycle identity holds** — per prefetcher,
   ``on_time + late + unused + in_flight == issued``.

The measured quantity is the wall-clock ratio of on vs. off execution
(printed and recorded in ``extra_info`` under pytest-benchmark).

Run standalone: ``python benchmarks/bench_telemetry_overhead.py``
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

WORKLOAD = "gap.pr"


def _jobs():
    from repro.experiments.common import env_n, experiment_config
    from repro.runner import SimJob, spec
    from repro.telemetry import TelemetryConfig

    n = env_n(30_000)
    cfg = experiment_config()
    l2 = (spec("streamline"),)
    off = SimJob.single(WORKLOAD, n, cfg, l1="stride", l2=l2)
    on = SimJob.single(WORKLOAD, n,
                       cfg.scaled(telemetry=TelemetryConfig(interval=1000)),
                       l1="stride", l2=l2, probes=("telemetry",))
    return off, on


def _check(off_result, on_result):
    """The three guarantees; returns the telemetry payload."""
    assert off_result.single == on_result.single, \
        "telemetry-on run diverged from telemetry-off results"
    payload = on_result.probes["telemetry"]
    assert payload["enabled"]
    assert payload["intervals"]["index"], "no interval samples collected"
    for name, entry in payload["lifecycle"].items():
        resolved = (entry["on_time"] + entry["late"] + entry["unused"]
                    + entry["in_flight"])
        assert resolved == entry["issued"], \
            f"{name}: lifecycle classes {resolved} != issued " \
            f"{entry['issued']}"
    return payload


def _timed_execute(job):
    t0 = time.perf_counter()
    result = job.execute()
    return result, time.perf_counter() - t0


def test_telemetry_overhead(benchmark):
    off_job, on_job = _jobs()
    off_a, _ = _timed_execute(off_job)
    off_b, off_secs = _timed_execute(off_job)
    assert off_a.single == off_b.single, \
        "telemetry-off runs are not bit-identical"
    on_result = benchmark.pedantic(on_job.execute, rounds=1, iterations=1)
    payload = _check(off_b, on_result)
    benchmark.extra_info["off_secs"] = off_secs
    benchmark.extra_info["samples"] = len(payload["intervals"]["index"])


def main() -> None:
    off_job, on_job = _jobs()
    off_a, secs_a = _timed_execute(off_job)
    off_b, secs_b = _timed_execute(off_job)
    assert off_a.single == off_b.single, \
        "telemetry-off runs are not bit-identical"
    on_result, on_secs = _timed_execute(on_job)
    payload = _check(off_b, on_result)
    off_secs = min(secs_a, secs_b)
    overhead = (on_secs / off_secs - 1.0) * 100.0 if off_secs else 0.0
    lines = [
        "== telemetry overhead ==",
        f"workload {WORKLOAD}: off {off_secs:.3f}s on {on_secs:.3f}s "
        f"-> overhead {overhead:+.1f}%",
        f"interval samples: {len(payload['intervals']['index'])}",
        "telemetry-off runs bit-identical: yes",
        "telemetry-on SimResult identical to off: yes",
        "lifecycle conservation (sum == issued): yes",
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "telemetry_overhead.txt").write_text(text)


if __name__ == "__main__":
    main()
