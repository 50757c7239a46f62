"""The serve subsystem: wire protocol, dedup, byte-identity, restart.

The headline acceptance criteria live here: a 3-workload x 2-prefetcher
matrix submitted through the HTTP job server comes back
*byte-identical* — equal pickles, not merely equal numbers — to a
direct :class:`SimRunner` call; cache-hit replies, in-flight dedup (one
execution for two concurrent identical submissions), restart survival,
and per-job progress streaming to two concurrent clients are all
pinned; and with ``REPRO_SERVE_URL`` unset nothing routes anywhere.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import threading
import time
import urllib.request
from typing import Dict, List, Optional

import pytest

from repro.experiments.common import experiment_config, job_runner
from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import runlog as obs_runlog
from repro.obs import trace as obs_trace
from repro.runner import JobResult, ResultCache, SimJob, SimRunner, \
    get_runner, reset_runner, spec
from repro.serve import (WIRE_VERSION, JobBroker, ServeClient, Server,
                         ServerThread, WireError, job_from_wire,
                         job_to_wire, result_from_wire, result_to_wire)
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
            obs_root=None) -> ServerThread:
    broker = JobBroker(runner=runner if runner is not None
                       else _mem_runner())
    return ServerThread(Server(broker, obs_root=obs_root,
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
            # A sampled representative interval: the window is part of
            # the canonical form, so it must survive the trip.
            SimJob.single("gap.pr", 24000, CFG, l1="stride",
                          l2=(spec("streamline"),),
                          window=(4096, 8192, 12288)),
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
            stats = thread.server.broker.stats
            assert stats.executed == len(jobs)
            # Second submission: every reply comes from the cache.
            again = client.submit(jobs)
            assert _bytes(again) == _bytes(direct)
            assert stats.executed == len(jobs)
            assert stats.cache_hits == len(jobs)
        finally:
            thread.stop()

    def test_duplicate_fingerprints_in_one_batch_submit_once(self):
        job = _matrix_jobs()[0]
        thread = _server()
        try:
            client = ServeClient(thread.url)
            results = client.submit([job, job, job])
            assert len({pickle.dumps(r) for r in results}) == 1
            assert thread.server.broker.stats.executed == 1
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
            assert thread.server.broker.cache.stats.misses == 0
        finally:
            thread.stop()

    def test_invalid_payload_is_refused_loudly(self):
        thread = _server()
        try:
            client = ServeClient(thread.url)
            payload = job_to_wire(_matrix_jobs()[0])
            payload["job"]["n"] = TINY_N + 7  # breaks the fingerprint
            reply = client._request(f"{thread.url}/v1/jobs",
                                    body={"wire": WIRE_VERSION,
                                          "jobs": [payload]})
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
            stats = thread.server.broker.stats
            deadline = time.monotonic() + 30.0
            t_b.start()
            while stats.submitted < 2:
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
            assert stats.joined == 1
            assert stats.executed == 1
        finally:
            gate.set()
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
            stats = second.server.broker.stats
            assert stats.executed == 0
            assert stats.cache_hits == len(jobs)
        finally:
            second.stop()


# -- in-process harness --------------------------------------------------------

class TestServerThread:
    def test_stop_raises_when_the_thread_outlives_its_timeout(self):
        thread = _server()
        hung = thread._thread
        real_stop = thread.server.stop
        release = threading.Event()

        async def stuck_stop() -> None:
            while not release.is_set():
                await asyncio.sleep(0.01)
            await real_stop()

        thread.server.stop = stuck_stop  # type: ignore[method-assign]
        try:
            with pytest.raises(RuntimeError, match=(
                    r"server thread 'repro-serve' did not stop "
                    r"within 0\.3s")):
                thread.stop(timeout=0.3)
            # The hung thread stays tracked rather than forgotten.
            assert thread._thread is hung and hung.is_alive()
        finally:
            release.set()
            hung.join(timeout=10.0)
        assert not hung.is_alive()


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
            clients = thread.server.metrics.get("repro_serve_sse_clients")
            deadline = time.monotonic() + 30.0
            while clients.value() < 2:
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
        assert job_runner() is get_runner()
        monkeypatch.setenv("REPRO_SERVE_URL", "0")
        assert job_runner() is get_runner()

    def test_quick_fig9_through_server_matches_direct(self, monkeypatch):
        from repro.experiments import fig9
        workloads = ["gap.pr", "06.lbm"]

        monkeypatch.delenv("REPRO_SERVE_URL", raising=False)
        reset_runner()
        direct = fig9.run(n=TINY_N, workloads=workloads)

        thread = _server()
        try:
            monkeypatch.setenv("REPRO_SERVE_URL", thread.url)
            reset_runner()
            served = fig9.run(n=TINY_N, workloads=workloads)
            executed = thread.server.broker.stats.executed
            assert executed > 0, "fig9 never reached the server"
        finally:
            thread.stop()
        assert served.headers == direct.headers
        assert served.rows == direct.rows
        assert served.notes == direct.notes

    def test_cli_runner_line_names_the_server(self, monkeypatch, capsys):
        # A served run's [runner] line names the server; the local
        # runner's counters (all zero: it ran nothing) are not printed.
        from repro.__main__ import main
        from repro.experiments import ALL_EXPERIMENTS, fig12
        monkeypatch.setitem(
            ALL_EXPERIMENTS, "fig12ts",
            lambda: fig12.run_fig12_intervals(n=TINY_N,
                                              workloads=["gap.pr"]))
        thread = _server()
        try:
            monkeypatch.setenv("REPRO_SERVE_URL", thread.url)
            reset_runner()
            assert main(["experiments", "fig12ts"]) == 0
            assert thread.server.broker.stats.executed == 1
        finally:
            thread.stop()
        last = capsys.readouterr().out.rstrip().splitlines()[-1]
        assert last == f"[runner] server={thread.url}"
        monkeypatch.delenv("REPRO_SERVE_URL")
        assert main(["experiments", "fig12ts"]) == 0
        last = capsys.readouterr().out.rstrip().splitlines()[-1]
        assert last.startswith("[runner] workers=") and "misses=1" in last

    def test_fig12ts_through_server_matches_direct(self, monkeypatch):
        # fig12ts builds its jobs with get_runner() at the parent, so it
        # never reached a server; its jobs also carry a TelemetryConfig.
        from repro.experiments import fig12
        kwargs = dict(n=TINY_N, workloads=["gap.pr"])

        monkeypatch.delenv("REPRO_SERVE_URL", raising=False)
        reset_runner()
        direct = fig12.run_fig12_intervals(**kwargs)

        thread = _server()
        try:
            monkeypatch.setenv("REPRO_SERVE_URL", thread.url)
            reset_runner()
            served = fig12.run_fig12_intervals(**kwargs)
            stats = thread.server.broker.stats
            assert stats.executed == stats.submitted == 1
        finally:
            thread.stop()
        assert (served.headers, served.rows, served.notes) == \
            (direct.headers, direct.rows, direct.notes)


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


# -- observability plane: /metrics, trace propagation --------------------------

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
    def test_status_routes(self):
        # /healthz answers liveness and /metrics every counter; the
        # routes that repeated them are gone.
        thread = _server()
        try:
            client = ServeClient(thread.url)
            assert client.healthz()["status"] == "ok"
            for route in ("/v1/healthz", "/v1/stats"):
                status, _ = client._get_raw(f"{thread.url}{route}")
                assert status == 404, route
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

            # The tailer folds job_end fields into the registry (poll
            # interval 0.05s in this harness).
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

    def test_trace_reconstructs_across_batches(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        jobs = _matrix_jobs()[:4]
        fingerprints = {job.fingerprint() for job in jobs}
        thread = _server(obs_root=tmp_path / "obs")
        try:
            # One ambient root spans the whole request; the client
            # inherits it instead of minting per-submit roots.  Each
            # submit waits for its results, so the two groups run as
            # two broker batches, and every batch is its own
            # SimRunner.run with its own run log.
            root = obs_trace.new_context()
            previous = obs_trace.install(root)
            try:
                client = ServeClient(thread.url, timeout=120.0)
                for group in (jobs[:2], jobs[2:]):
                    client.submit(group)
                    assert client.last_context is root
            finally:
                obs_trace.install(previous)
            trace_id = root.trace_id
            collected = obs_report.collect_trace(trace_id,
                                                 root=tmp_path / "obs")
            assert collected
            # One trace id across both batches' runs.
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
            thread.stop()
