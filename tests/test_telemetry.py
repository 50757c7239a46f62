"""Telemetry subsystem: conservation, lifecycle identity, hygiene.

The two load-bearing properties (ISSUE acceptance criteria):

* **Interval-sum conservation** — summed per-interval deltas from the
  :class:`IntervalSampler` (final partial interval included) equal the
  end-of-run event-bus and ``CacheStats`` totals, for every counter
  sampled, over 3 workloads x 2 temporal prefetchers.
* **Lifecycle identity** — per prefetcher,
  ``issued == on_time + late + unused + in_flight``, and summed issues
  match the bus's own ``prefetch-issued`` counter.

Plus bus hygiene (double-unsubscribe, subscriber accounting, no leaked
handlers after a run), env-knob validation, and export round-trips.
"""

import json

import pytest

from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.events import EV, EventBus
from repro.memory.hierarchy import SharedUncore
from repro.runner import SimJob, spec
from repro.runner.jobs import execute_job
from repro.runner.runner import env_jobs
from repro.runner.traces import get_trace
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.telemetry import (COUNTER_SPECS, IntervalSampler,
                             PrefetchLifecycleTracer, TelemetryConfig,
                             validate_jsonl, validate_records, write_jsonl)
from repro.telemetry.export import SCHEMA, iter_records

TINY_N = 6000
ALL_COUNTERS = tuple(COUNTER_SPECS)


def run_engine(workload: str, pf_name: str, n: int = TINY_N,
               interval: int = 500, counters=ALL_COUNTERS) -> Engine:
    trace = get_trace(workload, n, 1234)
    config = SystemConfig().scaled_down(8).scaled(
        telemetry=TelemetryConfig(interval=interval, counters=counters))
    engine = Engine([trace], config,
                    l1_prefetcher=spec("stride").factory(),
                    l2_prefetchers=[spec(pf_name).factory()])
    engine.run()
    engine.collect()
    return engine


WORKLOADS = ["gap.pr", "gap.cc", "06.omnetpp"]
PREFETCHERS = ["triangel", "streamline"]


class TestConservation:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("pf_name", PREFETCHERS)
    def test_interval_sums_match_bus_and_cache_totals(self, workload,
                                                      pf_name):
        engine = run_engine(workload, pf_name)
        sampler = engine.telemetry.sampler
        series = sampler.series()
        bus = engine.bus
        for name in ALL_COUNTERS:
            kind, level, origin = COUNTER_SPECS[name]
            summed = sum(series["counters"][name])
            assert summed == sampler.totals()[name], name
            assert summed == bus.count(kind, level, origin), name
        # The same sums against the caches' own independent counters.
        core = engine.cores[0]
        counters = series["counters"]
        assert sum(counters["l1d_misses"]) == core.l1d.stats.misses
        assert sum(counters["l2_misses"]) == core.l2.stats.misses
        assert sum(counters["llc_misses"]) == engine.uncore.llc.stats.misses
        assert sum(counters["l1d_hits"]) == core.l1d.stats.hits
        # Sanity: the graph runs actually exercise prefetching (omnetpp
        # legitimately trains no temporal streams at this tiny n).
        if workload.startswith("gap."):
            assert sum(counters["pf_issued"]) > 0

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("pf_name", PREFETCHERS)
    def test_lifecycle_identity(self, workload, pf_name):
        engine = run_engine(workload, pf_name)
        tracer = engine.telemetry.tracer
        assert tracer.check_conservation() == []
        by_owner = tracer.by_owner()
        for counts in by_owner.values():
            assert counts.issued == counts.resolved + counts.in_flight
        total_issued = sum(c.issued for c in by_owner.values())
        assert total_issued == engine.bus.count(EV.PREFETCH_ISSUED)

    def test_access_pacing_counts_demand_accesses(self):
        engine = run_engine("gap.pr", "streamline", interval=500)
        series = engine.telemetry.sampler.series()
        # Snapshots land every `interval` post-warmup accesses, plus one
        # final partial flush; `access` is cumulative and monotone.
        assert series["access"] == sorted(series["access"])
        full = [a for a in series["access"] if a % 500 == 0]
        assert len(full) >= len(series["access"]) - 1


class TestBusHygiene:
    def test_double_unsubscribe_is_noop(self):
        bus = EventBus()
        fn = lambda ev: None  # noqa: E731
        bus.subscribe(EV.FILL, fn)
        assert bus.subscriber_count(EV.FILL) == 1
        bus.unsubscribe(EV.FILL, fn)
        bus.unsubscribe(EV.FILL, fn)  # second time: no-op, no raise
        bus.unsubscribe(EV.ACCESS, fn)  # never subscribed: no-op
        assert bus.subscriber_count(EV.FILL) == 0
        assert bus.subscriber_count() == 0

    def test_scoped_subscriptions_count_and_unsubscribe_idempotently(self):
        bus = EventBus()
        seen = []
        fn = seen.append
        bus.subscribe(EV.LOOKUP_HIT, fn, level="l1d")
        bus.subscribe(EV.ACCESS, fn, origin="demand")
        bus.subscribe(EV.ACCESS, fn)
        assert bus.subscriber_count(EV.ACCESS) == 2
        assert bus.subscriber_count(EV.LOOKUP_HIT) == 1
        assert bus.subscriber_count() == 3
        bus.publish(EV.ACCESS, "llc", 0, 1, origin="demand")
        assert len(seen) == 2
        # One unsubscribe drops one subscription (the earliest), whatever
        # its scope; extra calls are no-ops.
        bus.unsubscribe(EV.ACCESS, fn)
        bus.publish(EV.ACCESS, "llc", 0, 2, origin="prefetch")
        assert [ev.blk for ev in seen] == [1, 1, 2]
        for _ in range(3):
            bus.unsubscribe(EV.ACCESS, fn)
            bus.unsubscribe(EV.LOOKUP_HIT, fn)
        assert bus.subscriber_count() == 0
        bus.publish(EV.ACCESS, "llc", 0, 3, origin="demand")
        bus.publish(EV.LOOKUP_HIT, "l1d", 0, 4)
        assert len(seen) == 3

    def test_subscriber_count_per_kind_and_total(self):
        bus = EventBus()
        a = lambda ev: None  # noqa: E731
        b = lambda ev: None  # noqa: E731
        bus.subscribe(EV.FILL, a)
        bus.subscribe(EV.FILL, b)
        bus.subscribe(EV.EVICTION, a)
        assert bus.subscriber_count(EV.FILL) == 2
        assert bus.subscriber_count(EV.EVICTION) == 1
        assert bus.subscriber_count() == 3

    def test_run_leaves_no_observer_subscriptions(self):
        # Baseline: what a bare uncore subscribes for its own stats.
        bare = SharedUncore(Cache("LLC", 64 * 1024, 16, 20), DRAM())
        baseline = bare.bus.subscriber_count()
        engine = run_engine("gap.pr", "streamline")
        # collect() tore down trainers, duelers, and telemetry.
        assert engine.bus.subscriber_count() == baseline
        # Teardown is idempotent.
        engine.cores[0].detach_prefetchers()
        engine.telemetry.detach()
        assert engine.bus.subscriber_count() == baseline

    def test_back_to_back_runs_identical(self):
        config = SystemConfig().scaled_down(8)
        job = SimJob.single("gap.pr", TINY_N, config, l1="stride",
                            l2=(spec("streamline"),))
        first = execute_job(job)
        second = execute_job(job)
        assert first.single == second.single
        assert first.single.events == second.single.events


class TestKnobValidation:
    def test_repro_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            env_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            env_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            env_jobs()
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert env_jobs() == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(interval=0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_intervals=0)
        with pytest.raises(ValueError):
            TelemetryConfig(intervals=False, lifecycle=False)
        with pytest.raises(ValueError, match="unknown telemetry counters"):
            IntervalSampler(EventBus(),
                            TelemetryConfig(counters=("no_such",)))


class TestSamplerUnits:
    def test_reset_drops_series_and_truncation(self):
        bus = EventBus()
        sampler = IntervalSampler(
            bus, TelemetryConfig(interval=2, max_intervals=2,
                                 counters=("l1d_misses",)))
        for i in range(10):
            bus.publish(EV.LOOKUP_MISS, "l1d", 0, i, now=float(i))
        assert sampler.num_samples == 2 and sampler.truncated
        sampler.reset()
        assert sampler.num_samples == 0 and not sampler.truncated
        assert sampler.totals() == {"l1d_misses": 0}
        bus.publish(EV.LOOKUP_MISS, "l1d", 0, 1, now=1.0)
        bus.publish(EV.LOOKUP_MISS, "l1d", 0, 2, now=2.0)
        assert sampler.num_samples == 1
        sampler.detach()
        bus.publish(EV.LOOKUP_MISS, "l1d", 0, 3, now=3.0)
        assert sampler.totals() == {"l1d_misses": 2}

    def test_tracer_reset_drops_pending_records(self):
        bus = EventBus()
        tracer = PrefetchLifecycleTracer(bus)
        bus.publish(EV.FILL, "l2", 0, 7, origin="prefetch", now=50.0)
        bus.publish(EV.PREFETCH_ISSUED, "l2", 0, 7, owner=0, now=10.0)
        tracer.reset()  # the warm-up boundary
        bus.publish(EV.PREFETCH_USEFUL, "l2", 0, 7, owner=0, now=60.0)
        tracer.finalize()
        assert tracer.by_owner() == {}  # pre-reset issue not classified

    def test_tracer_stale_reissue_counts_unused(self):
        bus = EventBus()
        tracer = PrefetchLifecycleTracer(bus)
        for now in (10.0, 20.0):
            bus.publish(EV.FILL, "l2", 0, 7, origin="prefetch",
                        now=now + 40.0)
            bus.publish(EV.PREFETCH_ISSUED, "l2", 0, 7, owner=0, now=now)
        tracer.finalize()
        counts = tracer.by_owner()[0]
        assert (counts.issued, counts.unused, counts.in_flight) == (2, 1, 1)
        assert tracer.check_conservation() == []


class TestExport:
    def test_probe_and_jsonl_roundtrip(self, tmp_path):
        config = SystemConfig().scaled_down(8).scaled(
            telemetry=TelemetryConfig(interval=500))
        job = SimJob.single("gap.pr", TINY_N, config, l1="stride",
                            l2=(spec("streamline"),), probes=("telemetry",))
        payload = execute_job(job).probes["telemetry"]
        assert payload["enabled"]
        assert payload["intervals"]["index"]
        assert "streamline" in payload["lifecycle"]
        records = list(iter_records(payload))
        assert validate_records(records) == []
        path = tmp_path / "t.jsonl"
        assert write_jsonl(payload, path) == len(records)
        assert validate_jsonl(path) == []
        # The checked-in schema artifact matches the code's SCHEMA.
        import pathlib
        checked_in = json.loads(
            (pathlib.Path(__file__).parent.parent / "benchmarks" /
             "telemetry_schema.json").read_text())
        assert checked_in == SCHEMA
        assert validate_jsonl(path, checked_in) == []

    def test_validator_catches_malformed_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "interval", "index": "x"}) + "\n")
        errors = validate_jsonl(path)
        assert any("missing" in e or "should be" in e for e in errors)
        assert any("no meta record" in e for e in errors)

    def test_probe_without_config_reports_disabled(self):
        config = SystemConfig().scaled_down(8)
        job = SimJob.single("gap.pr", TINY_N, config, l1="stride",
                            probes=("telemetry",))
        assert execute_job(job).probes["telemetry"] == {"enabled": False}


class TestObservationPurity:
    def test_telemetry_on_results_bit_identical_to_off(self):
        config = SystemConfig().scaled_down(8)
        off = SimJob.single("gap.pr", TINY_N, config, l1="stride",
                            l2=(spec("streamline"),))
        on = SimJob.single(
            "gap.pr", TINY_N,
            config.scaled(telemetry=TelemetryConfig(interval=500)),
            l1="stride", l2=(spec("streamline"),))
        assert execute_job(off).single == execute_job(on).single
