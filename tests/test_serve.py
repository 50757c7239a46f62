"""The serve subsystem: wire protocol, sharding, dedup, byte-identity.

The headline acceptance criteria live here: a 3-workload x 2-prefetcher
matrix submitted through the HTTP job server (including a two-instance
sharded ring) comes back *byte-identical* — equal pickles, not merely
equal numbers — to a direct :class:`SimRunner` call; cache-hit replies,
in-flight dedup (one execution for two concurrent identical
submissions), and per-job progress streaming to two concurrent clients
are all pinned; and with the knobs unset nothing routes anywhere.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
import urllib.request
from typing import Dict, List, Optional

import pytest

from repro.experiments.common import experiment_config, serve_runner
from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import runlog as obs_runlog
from repro.obs import trace as obs_trace
from repro.runner import JobResult, ResultCache, SimJob, SimRunner, spec
from repro.serve import (JobBroker, ServeClient, Server, ServerThread,
                         ShardMap, WireError, job_from_wire, job_to_wire,
                         pick_free_port, result_from_wire, result_to_wire,
                         shard_of)
from repro.telemetry import TelemetryConfig

TINY_N = 2000
CFG = experiment_config()
WORKLOADS = ("gap.pr", "06.lbm", "06.mcf")
PREFETCHERS = ("triangel", "streamline")


def _matrix_jobs() -> List[SimJob]:
    """The acceptance matrix: 3 workloads x (baseline + 2 prefetchers)."""
    jobs = []
    for wl in WORKLOADS:
        jobs.append(SimJob.single(wl, TINY_N, CFG, l1="stride"))
        for pf in PREFETCHERS:
            jobs.append(SimJob.single(wl, TINY_N, CFG, l1="stride",
                                      l2=(spec(pf),)))
    return jobs


def _direct(jobs: List[SimJob]) -> List[JobResult]:
    return SimRunner(jobs=1,
                     cache=ResultCache(persistent=False)).run(jobs)


def _mem_runner() -> SimRunner:
    return SimRunner(jobs=1, cache=ResultCache(persistent=False))


def _server(runner: Optional[SimRunner] = None,
            shard_map: Optional[ShardMap] = None,
            port: int = 0, obs_root=None) -> ServerThread:
    broker = JobBroker(runner=runner if runner is not None
                       else _mem_runner())
    return ServerThread(Server(broker, port=port, shard_map=shard_map,
                               obs_root=obs_root,
                               poll_interval=0.05)).start()


def _bytes(results: List[JobResult]) -> List[bytes]:
    return [pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)
            for r in results]


# -- wire protocol -------------------------------------------------------------

class TestWire:
    def test_job_roundtrip_is_identity(self):
        tcfg = TelemetryConfig(interval=500)
        jobs = [
            SimJob.single("gap.pr", TINY_N, CFG, l1="stride"),
            SimJob.single("06.lbm", TINY_N, CFG, l1="stride",
                          l2=(spec("streamline", degree=2),),
                          probes=("bus_counts",),
                          measure_overrides=(("degree", 4),)),
            SimJob.single("06.mcf", TINY_N,
                          CFG.scaled(telemetry=tcfg), l1="berti",
                          l2=(spec("triangel"),)),
            SimJob.multi(["gap.pr", "06.lbm"], TINY_N,
                         experiment_config(num_cores=2), l1="stride"),
        ]
        for job in jobs:
            # Through real JSON text, as the HTTP body would carry it.
            payload = json.loads(json.dumps(job_to_wire(job)))
            decoded, fingerprint = job_from_wire(payload)
            assert fingerprint == job.fingerprint()
            assert decoded.canonical() == job.canonical()

    def test_wire_version_mismatch_rejected(self):
        payload = job_to_wire(_matrix_jobs()[0])
        payload["wire"] = 999
        with pytest.raises(WireError, match="wire version"):
            job_from_wire(payload)

    def test_schema_mismatch_rejected(self):
        payload = job_to_wire(_matrix_jobs()[0])
        payload["job"]["schema"] = 1
        with pytest.raises(WireError, match="schema"):
            job_from_wire(payload)

    def test_tampered_job_fails_fingerprint_check(self):
        payload = job_to_wire(_matrix_jobs()[0])
        payload["job"]["n"] = TINY_N + 1
        with pytest.raises(WireError, match="fingerprint mismatch"):
            job_from_wire(payload)

    def test_unknown_config_field_rejected(self):
        payload = job_to_wire(_matrix_jobs()[0])
        payload["job"]["config"]["no_such_knob"] = 1
        with pytest.raises(WireError, match="no_such_knob"):
            job_from_wire(payload)

    def test_result_roundtrip_and_digest_guard(self):
        result = _direct(_matrix_jobs()[:1])[0]
        payload = json.loads(json.dumps(result_to_wire(result)))
        decoded = result_from_wire(payload)
        assert pickle.dumps(decoded) == pickle.dumps(result)
        payload["sha256"] = "0" * 64
        with pytest.raises(WireError, match="sha256"):
            result_from_wire(payload)


# -- sharding ------------------------------------------------------------------

class TestSharding:
    def test_shard_of_is_deterministic_and_in_range(self):
        fingerprints = [job.fingerprint() for job in _matrix_jobs()]
        for fp in fingerprints:
            assert shard_of(fp, 2) == shard_of(fp, 2)
            assert 0 <= shard_of(fp, 2) < 2
            assert shard_of(fp, 1) == 0

    def test_shard_map_partitions_exclusively(self):
        ring = ShardMap(urls=("http://a:1", "http://b:2"), index=0)
        other = ShardMap(urls=ring.urls, index=1)
        for job in _matrix_jobs():
            fp = job.fingerprint()
            assert ring.owns(fp) != other.owns(fp)
            assert ring.owner_of(fp) in ring.urls

    def test_shard_map_validation(self):
        with pytest.raises(ValueError):
            ShardMap(urls=(), index=0)
        with pytest.raises(ValueError):
            ShardMap(urls=("http://a:1",), index=1)


# -- single instance end to end ------------------------------------------------

class TestSingleInstance:
    def test_matrix_is_byte_identical_and_cache_hits_on_resubmit(self):
        jobs = _matrix_jobs()
        direct = _direct(jobs)
        thread = _server()
        try:
            client = ServeClient(thread.url)
            assert client.healthz()["status"] == "ok"
            served = client.submit(jobs)
            assert _bytes(served) == _bytes(direct)
            stats = client.stats()
            assert stats["broker"]["executed"] == len(jobs)
            # Second submission: every reply comes from the cache.
            again = client.submit(jobs)
            assert _bytes(again) == _bytes(direct)
            stats = client.stats()
            assert stats["broker"]["executed"] == len(jobs)
            assert stats["broker"]["cache_hits"] == len(jobs)
        finally:
            thread.stop()

    def test_duplicate_fingerprints_in_one_batch_submit_once(self):
        job = _matrix_jobs()[0]
        thread = _server()
        try:
            client = ServeClient(thread.url)
            results = client.submit([job, job, job])
            assert len({pickle.dumps(r) for r in results}) == 1
            assert client.stats()["broker"]["executed"] == 1
        finally:
            thread.stop()

    def test_result_endpoint_unknown_fingerprint_404(self):
        thread = _server()
        try:
            client = ServeClient(thread.url)
            status, payload = client._get_raw(
                f"{thread.url}/v1/results/{'0' * 64}?timeout=0")
            assert status == 404
        finally:
            thread.stop()

    def test_result_endpoint_malformed_fingerprint_400(self):
        thread = _server()
        try:
            client = ServeClient(thread.url)
            for bad in ("../victim", "..%2Fvictim", "abc", "g" * 64,
                        "0" * 63, "0" * 65):
                status, payload = client._get_raw(
                    f"{thread.url}/v1/results/{bad}?timeout=0")
                assert status == 400, bad
                assert "64 hex digits" in payload["error"]
            # Refused before the broker: no cache lookup happened.
            assert client.stats()["cache"]["misses"] == 0
        finally:
            thread.stop()

    def test_invalid_payload_is_refused_loudly(self):
        thread = _server()
        try:
            client = ServeClient(thread.url)
            payload = job_to_wire(_matrix_jobs()[0])
            payload["job"]["n"] = TINY_N + 7  # breaks the fingerprint
            reply = client._request(f"{thread.url}/v1/jobs",
                                    body={"wire": 1, "jobs": [payload]})
            assert reply["jobs"][0]["status"] == "invalid"
            assert "fingerprint" in reply["jobs"][0]["error"]
        finally:
            thread.stop()


# -- in-flight dedup -----------------------------------------------------------

class _GatedRunner:
    """Blocks execution until released, recording what actually ran."""

    def __init__(self, gate: threading.Event):
        self.inner = _mem_runner()
        self.gate = gate
        self.executed: List[str] = []

    @property
    def cache(self):
        return self.inner.cache

    @property
    def workers(self) -> int:
        return 1

    def run(self, jobs, contexts=None):
        self.executed.extend(job.fingerprint() for job in jobs)
        assert self.gate.wait(timeout=60.0), "test gate never released"
        return self.inner.run(jobs, contexts=contexts)


class TestInflightDedup:
    def test_concurrent_identical_submissions_execute_once(self):
        job = _matrix_jobs()[0]
        gate = threading.Event()
        runner = _GatedRunner(gate)
        thread = _server(runner=runner)  # type: ignore[arg-type]
        results: Dict[str, List[JobResult]] = {}
        try:
            def submit(name: str) -> None:
                client = ServeClient(thread.url, timeout=120.0)
                results[name] = client.submit([job])

            t_a = threading.Thread(target=submit, args=("a",))
            t_b = threading.Thread(target=submit, args=("b",))
            t_a.start()
            # Both submissions must be in before execution unblocks.
            poll = ServeClient(thread.url)
            deadline = time.monotonic() + 30.0
            t_b.start()
            while poll.stats()["broker"]["submitted"] < 2:
                assert time.monotonic() < deadline, \
                    "submissions never arrived"
                time.sleep(0.02)
            gate.set()
            t_a.join(timeout=120.0)
            t_b.join(timeout=120.0)
            assert not t_a.is_alive() and not t_b.is_alive()
            # One execution observed, two identical results served.
            assert runner.executed.count(job.fingerprint()) == 1
            assert pickle.dumps(results["a"][0]) == \
                pickle.dumps(results["b"][0])
            stats = poll.stats()["broker"]
            assert stats["joined"] == 1
            assert stats["executed"] == 1
        finally:
            gate.set()
            thread.stop()


# -- two-instance sharded ring -------------------------------------------------

class TestShardedRing:
    def test_two_instance_ring_is_byte_identical_to_direct(self):
        jobs = _matrix_jobs()
        direct = _direct(jobs)
        fingerprints = [job.fingerprint() for job in jobs]
        ports = (pick_free_port(), pick_free_port())
        urls = tuple(f"http://127.0.0.1:{p}" for p in ports)
        threads = [
            _server(shard_map=ShardMap(urls=urls, index=i), port=ports[i])
            for i in range(2)]
        try:
            # Everything goes to instance 0; out-of-shard jobs bounce to
            # instance 1 via the owner address in the rejection.
            client = ServeClient(urls[0])
            served = client.submit(jobs)
            assert _bytes(served) == _bytes(direct)
            split = [sum(1 for fp in set(fingerprints)
                         if shard_of(fp, 2) == i) for i in range(2)]
            assert sum(split) == len(set(fingerprints))
            for i, thread in enumerate(threads):
                stats = ServeClient(urls[i]).stats()["broker"]
                assert stats["executed"] == split[i], \
                    f"instance {i} executed out-of-shard work"
            # The matrix hashes onto both instances (deterministic).
            assert all(count > 0 for count in split)
        finally:
            for thread in threads:
                thread.stop()

    def test_out_of_shard_result_names_owner(self):
        job = _matrix_jobs()[0]
        fp = job.fingerprint()
        ports = (pick_free_port(), pick_free_port())
        urls = tuple(f"http://127.0.0.1:{p}" for p in ports)
        wrong = 1 - shard_of(fp, 2)
        thread = _server(shard_map=ShardMap(urls=urls, index=wrong),
                         port=ports[wrong])
        try:
            client = ServeClient(urls[wrong])
            status, payload = client._get_raw(
                f"{urls[wrong]}/v1/results/{fp}?timeout=0")
            assert status == 421
            assert payload["owner"] == urls[shard_of(fp, 2)]
        finally:
            thread.stop()


# -- restart survival ----------------------------------------------------------

class TestRestart:
    def test_new_instance_serves_predecessors_results(self, tmp_path):
        jobs = _matrix_jobs()[:3]
        direct = _direct(jobs)
        cache_dir = tmp_path / "simcache"

        first = _server(runner=SimRunner(
            jobs=1, cache=ResultCache(directory=cache_dir,
                                      persistent=True)))
        try:
            served = ServeClient(first.url).submit(jobs)
            assert _bytes(served) == _bytes(direct)
        finally:
            first.stop()

        second = _server(runner=SimRunner(
            jobs=1, cache=ResultCache(directory=cache_dir,
                                      persistent=True)))
        try:
            client = ServeClient(second.url)
            again = client.submit(jobs)
            assert _bytes(again) == _bytes(direct)
            stats = client.stats()
            assert stats["broker"]["executed"] == 0
            assert stats["broker"]["cache_hits"] == len(jobs)
        finally:
            second.stop()


# -- progress streaming --------------------------------------------------------

class TestProgressStreaming:
    def test_two_concurrent_clients_see_every_job(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        jobs = _matrix_jobs()[:2]
        fingerprints = {job.fingerprint() for job in jobs}
        thread = _server(obs_root=tmp_path / "obs")
        streams: Dict[str, List[dict]] = {"a": [], "b": []}
        try:
            client = ServeClient(thread.url, timeout=120.0)

            def listen(name: str) -> None:
                seen = streams[name]
                for record in ServeClient(thread.url).events(timeout=30.0):
                    seen.append(record)
                    ends = {r.get("fingerprint") for r in seen
                            if r.get("event") == "job_end"}
                    if fingerprints <= ends:
                        return

            listeners = [threading.Thread(target=listen, args=(name,))
                         for name in streams]
            for listener in listeners:
                listener.start()
            deadline = time.monotonic() + 30.0
            while client.stats()["subscribers"] < 2:
                assert time.monotonic() < deadline, \
                    "subscribers never registered"
                time.sleep(0.02)
            client.submit(jobs)
            for listener in listeners:
                listener.join(timeout=60.0)
                assert not listener.is_alive(), "listener timed out"
            for name, seen in streams.items():
                for fp in fingerprints:
                    events = {r["event"] for r in seen
                              if r.get("fingerprint") == fp}
                    assert {"job_start", "job_end"} <= events, \
                        f"client {name} missed progress for {fp}"
        finally:
            thread.stop()


# -- the experiment thin-client path -------------------------------------------

class TestExperimentClientPath:
    def test_serve_runner_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_URL", raising=False)
        assert serve_runner() is None
        monkeypatch.setenv("REPRO_SERVE_URL", "0")
        assert serve_runner() is None

    def test_quick_fig9_through_server_matches_direct(self, monkeypatch):
        from repro.experiments import fig9
        from repro.runner import reset_runner
        workloads = ["gap.pr", "06.lbm"]

        monkeypatch.delenv("REPRO_SERVE_URL", raising=False)
        reset_runner()
        direct = fig9.run(n=TINY_N, workloads=workloads)

        thread = _server()
        try:
            monkeypatch.setenv("REPRO_SERVE_URL", thread.url)
            reset_runner()
            served = fig9.run(n=TINY_N, workloads=workloads)
            executed = ServeClient(thread.url).stats()["broker"]["executed"]
            assert executed > 0, "fig9 never reached the server"
        finally:
            thread.stop()
        assert served.headers == direct.headers
        assert served.rows == direct.rows
        assert served.notes == direct.notes


# -- env knobs -----------------------------------------------------------------

class TestServeKnobs:
    def test_serve_url_validated_loudly(self, monkeypatch):
        from repro.envknobs import env_url
        monkeypatch.setenv("REPRO_SERVE_URL", "not a url")
        with pytest.raises(ValueError, match="REPRO_SERVE_URL"):
            env_url("REPRO_SERVE_URL")
        monkeypatch.setenv("REPRO_SERVE_URL", "ftp://host:1")
        with pytest.raises(ValueError, match="REPRO_SERVE_URL"):
            env_url("REPRO_SERVE_URL")
        monkeypatch.setenv("REPRO_SERVE_URL", "http://host:8023/")
        assert env_url("REPRO_SERVE_URL") == "http://host:8023"

    def test_serve_port_validated_loudly(self, monkeypatch):
        from repro.envknobs import env_int
        monkeypatch.setenv("REPRO_SERVE_PORT", "99999")
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            env_int("REPRO_SERVE_PORT", 8023, minimum=0, maximum=65535)
        monkeypatch.setenv("REPRO_SERVE_PORT", "junk")
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            env_int("REPRO_SERVE_PORT", 8023, minimum=0, maximum=65535)
        monkeypatch.setenv("REPRO_SERVE_PORT", "8024")
        assert env_int("REPRO_SERVE_PORT", 8023,
                       minimum=0, maximum=65535) == 8024

    def test_serve_shards_validated_loudly(self, monkeypatch):
        from repro.envknobs import env_url_list
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "http://a:1,junk")
        with pytest.raises(ValueError, match="REPRO_SERVE_SHARDS"):
            env_url_list("REPRO_SERVE_SHARDS")
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "http://a:1,http://a:1")
        with pytest.raises(ValueError, match="REPRO_SERVE_SHARDS"):
            env_url_list("REPRO_SERVE_SHARDS")
        monkeypatch.setenv("REPRO_SERVE_SHARDS",
                           "http://a:1, http://b:2/")
        assert env_url_list("REPRO_SERVE_SHARDS") == \
            ("http://a:1", "http://b:2")
        monkeypatch.delenv("REPRO_SERVE_SHARDS")
        assert env_url_list("REPRO_SERVE_SHARDS") is None


# -- observability plane: /metrics, /v1/healthz, trace propagation -------------

def _metrics_text(url: str):
    """GET /metrics raw: ``(content_type, text)``."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30.0) as resp:
        return resp.headers.get("Content-Type", ""), \
            resp.read().decode("utf-8")


def _obs_records(obs_dir) -> List[dict]:
    records: List[dict] = []
    for run_dir in obs_runlog.list_runs(obs_dir):
        records.extend(obs_runlog.load_runlog(run_dir / obs_runlog.MERGED))
    return records


class TestObservabilityPlane:
    def test_v1_healthz(self):
        thread = _server()
        try:
            health = ServeClient(thread.url).health()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            assert health["inflight"] == 0
            assert health["subscribers"] == 0
            assert "memo_hits" in health["cache"]
        finally:
            thread.stop()

    def test_metrics_lint_and_exact_runlog_match(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        jobs = _matrix_jobs()[:4]
        thread = _server(obs_root=tmp_path / "obs")
        try:
            client = ServeClient(thread.url, timeout=120.0)
            client.submit(jobs)
            content_type, text = _metrics_text(thread.url)
            assert content_type.startswith("text/plain")
            families = obs_metrics.parse_text(text)  # the format lint

            def value(name: str, sample: Optional[str] = None) -> float:
                return families[name]["samples"][sample or name]

            # The acceptance protocol: a cold batch of K unique jobs
            # must count exactly K, matching the runlog's job_end count.
            ends = [r for r in _obs_records(tmp_path / "obs")
                    if r.get("event") == "job_end"]
            assert value("repro_broker_jobs_total") == len(jobs)
            assert len(ends) == len(jobs)
            assert value("repro_cache_hits_total") == 0
            assert value("repro_serve_sse_clients") == 0

            # Warm resubmit: K cache hits, zero new executions, zero
            # new job_end records.
            client.submit(jobs)
            _, text = _metrics_text(thread.url)
            families = obs_metrics.parse_text(text)
            assert value("repro_broker_jobs_total") == len(jobs)
            assert value("repro_cache_hits_total") == len(jobs)
            ends = [r for r in _obs_records(tmp_path / "obs")
                    if r.get("event") == "job_end"]
            assert len(ends) == len(jobs)

            # The tailer folds job_end metrics sections into the
            # registry (poll interval 0.05s in this harness).
            deadline = time.monotonic() + 30.0
            while True:
                _, text = _metrics_text(thread.url)
                families = obs_metrics.parse_text(text)
                if value("repro_job_wall_seconds",
                         "repro_job_wall_seconds_count") == len(jobs):
                    break
                assert time.monotonic() < deadline, \
                    "job_end metrics never folded into the registry"
                time.sleep(0.05)
            assert value("repro_job_events_total") > 0
        finally:
            thread.stop()

    def test_trace_propagates_through_single_instance(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        jobs = _matrix_jobs()[:2]
        thread = _server(obs_root=tmp_path / "obs")
        try:
            client = ServeClient(thread.url, timeout=120.0)
            client.submit(jobs)
            trace_id = client.last_context.trace_id
            records = _obs_records(tmp_path / "obs")
            assert records
            # Every record of the run — batch and job alike — carries
            # the client's trace id.
            assert {r.get("trace_id") for r in records} == {trace_id}
            ends = [r for r in records if r.get("event") == "job_end"]
            assert len(ends) == len(jobs)
            for r in ends:
                assert r["parent_span"]  # a child of the server hop
        finally:
            thread.stop()

    def test_trace_reconstructs_across_two_shard_ring(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        jobs = _matrix_jobs()
        fingerprints = {job.fingerprint() for job in jobs}
        ports = (pick_free_port(), pick_free_port())
        urls = tuple(f"http://127.0.0.1:{p}" for p in ports)
        threads = [
            _server(shard_map=ShardMap(urls=urls, index=i),
                    port=ports[i], obs_root=tmp_path / "obs")
            for i in range(2)]
        try:
            # One ambient root spans the whole request; the client
            # inherits it instead of minting per-submit roots.  The
            # shard groups go out one at a time because this in-process
            # ring shares the per-process runlog writer — production
            # rings are separate processes and run concurrently.
            root = obs_trace.new_context()
            previous = obs_trace.install(root)
            try:
                by_shard: Dict[int, List[SimJob]] = {0: [], 1: []}
                for job in jobs:
                    by_shard[shard_of(job.fingerprint(), 2)].append(job)
                assert all(by_shard.values())  # the matrix spans both
                for index, group in sorted(by_shard.items()):
                    client = ServeClient(urls[index], timeout=120.0)
                    client.submit(group)
                    assert client.last_context is root
            finally:
                obs_trace.install(previous)
            trace_id = root.trace_id
            collected = obs_report.collect_trace(trace_id,
                                                 root=tmp_path / "obs")
            assert collected
            # One trace id across both instances' runs.
            assert {r["trace_id"] for r in collected} == {trace_id}
            assert {r["trace_id"] for r in
                    _obs_records(tmp_path / "obs")} == {trace_id}
            assert len({r["run_id"] for r in collected}) >= 2
            ends = [r for r in collected if r.get("event") == "job_end"]
            assert {r["fingerprint"] for r in ends} == fingerprints
            # And the CLI's view reassembles it into one tree.
            text = obs_report.render_trace(trace_id, collected)
            assert f"trace {trace_id}" in text
            payload = obs_report.trace_to_json(trace_id, collected)
            assert payload["records"] == len(collected)
            assert len(payload["runs"]) >= 2
        finally:
            for thread in threads:
                thread.stop()

    def test_plane_off_is_bit_identical_and_unexposed(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        monkeypatch.setenv("REPRO_METRICS", "0")
        jobs = _matrix_jobs()[:3]
        direct = _direct(jobs)
        thread = _server()
        try:
            client = ServeClient(thread.url, timeout=120.0)
            served = client.submit(jobs)
            assert _bytes(served) == _bytes(direct)
            assert client.last_context is None
            status, payload = client._get_raw(f"{thread.url}/metrics")
            assert status == 404
        finally:
            thread.stop()
