"""Observability subsystem: profiler purity, span trees, run logs,
progress, knobs, trace contexts, metrics, and the report CLI."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import subprocess
import sys
import pathlib

import pytest

from repro.envknobs import env_flag, env_int
from repro.obs import metrics, profile, progress, report, runlog, trace
from repro.runner import SimJob, SimRunner, spec
from repro.runner.cache import ResultCache
from repro.sim.config import SystemConfig


def _tiny_job(workload: str = "gap.pr", pf: str = "stride",
              n: int = 3000) -> SimJob:
    return SimJob.single(workload, n, SystemConfig().scaled_down(8),
                         l1="stride", l2=(spec(pf),))


#: Measured accesses of a 3000-access job (the first 20% warm up).
MEASURED = 2400


def _runner() -> SimRunner:
    return SimRunner(jobs=1, cache=ResultCache(persistent=False))


# -- env knobs -----------------------------------------------------------------

class TestEnvKnobs:
    def test_env_int_default_and_valid(self, monkeypatch):
        monkeypatch.delenv("REPRO_N", raising=False)
        assert env_int("REPRO_N", 42) == 42
        monkeypatch.setenv("REPRO_N", "1000")
        assert env_int("REPRO_N", 42) == 1000

    @pytest.mark.parametrize("bad", ["abc", "1.5", "0", "-3"])
    def test_env_int_rejects_junk_and_nonpositive(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_N", bad)
        with pytest.raises(ValueError, match="REPRO_N"):
            env_int("REPRO_N", 42)

    def test_env_flag_strict(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUICK", raising=False)
        assert env_flag("REPRO_QUICK", False) is False
        monkeypatch.setenv("REPRO_QUICK", "1")
        assert env_flag("REPRO_QUICK", False) is True
        monkeypatch.setenv("REPRO_QUICK", "0")
        assert env_flag("REPRO_QUICK", True) is False
        monkeypatch.setenv("REPRO_QUICK", "yes")
        with pytest.raises(ValueError, match="REPRO_QUICK"):
            env_flag("REPRO_QUICK", False)

    def test_experiment_knobs_use_validation(self, monkeypatch):
        from repro.experiments.common import env_n, quick_mode
        monkeypatch.setenv("REPRO_N", "oops")
        with pytest.raises(ValueError, match="REPRO_N"):
            env_n()
        monkeypatch.setenv("REPRO_N", "-1")
        with pytest.raises(ValueError, match="REPRO_N"):
            env_n()
        monkeypatch.setenv("REPRO_QUICK", "junk")
        with pytest.raises(ValueError, match="REPRO_QUICK"):
            quick_mode()


# -- span profiler -------------------------------------------------------------

class TestSpanProfiler:
    def test_nesting_and_aggregation(self):
        prof = profile.SpanProfiler()
        prof.start("job")
        prof.start("a")
        with prof.span("b"):
            pass
        with prof.span("b"):
            pass
        prof.stop()
        prof.stop()
        spans = {s["path"]: s for s in prof.spans()}
        assert set(spans) == {"job", "job/a", "job/a/b"}
        assert spans["job/a/b"]["count"] == 2
        # Child total <= parent total, self <= total, everywhere.
        assert spans["job/a/b"]["total"] <= spans["job/a"]["total"]
        assert spans["job/a"]["total"] <= spans["job"]["total"]
        for s in spans.values():
            assert 0.0 <= s["self"] <= s["total"] + 1e-12

    def test_report_phases_and_components(self):
        prof = profile.SpanProfiler()
        prof.start(profile.ROOT)
        with prof.span("measure"):
            with prof.span("lookup:l1d"):
                with prof.span("lookup:l2"):
                    pass
        prof.stop()
        rep = prof.report()
        assert rep["enabled"] and rep["wall_seconds"] > 0
        assert set(rep["phases"]) == {"measure"}
        assert {"measure", "lookup:l1d", "lookup:l2",
                profile.ROOT} <= set(rep["components"])
        # Self-times partition the root: their sum equals the wall.
        total_self = sum(c["seconds"] for c in rep["components"].values())
        assert total_self == pytest.approx(rep["wall_seconds"], rel=0.2)

    def test_close_pops_abandoned_spans(self):
        prof = profile.SpanProfiler()
        prof.start("job")
        prof.start("leak")
        prof.close()
        assert {s["path"] for s in prof.spans()} == {"job", "job/leak"}

    def test_enabled_knob_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "maybe")
        with pytest.raises(ValueError, match="REPRO_PROFILE"):
            profile.enabled()

    def test_start_job_off_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profile.start_job() is None
        assert profile.current() is None


class TestProfiledExecution:
    def test_off_runs_bit_identical_and_unprofiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        job = _tiny_job()
        a, b = job.execute(), job.execute()
        assert a.single == b.single
        assert a.single.profile is None

    def test_profiled_run_pure_and_well_formed(self, monkeypatch):
        job = _tiny_job()
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        plain = job.execute()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        profiled = job.execute()
        payload = profiled.single.profile
        assert payload is not None
        # Purity: masking the profile recovers the plain result exactly.
        masked = dataclasses.replace(profiled.single, profile=None)
        assert masked == plain.single
        # Well-formedness: phases partition the wall; spans nest.
        wall = payload["wall_seconds"]
        assert 0 < sum(payload["phases"].values()) <= wall * 1.1
        comp_total = sum(c["seconds"]
                         for c in payload["components"].values())
        assert comp_total <= wall * 1.1
        by_path = {s["path"]: s for s in payload["spans"]}
        for path, s in by_path.items():
            assert s["self"] <= s["total"] + 1e-9
            parent = path.rpartition("/")[0]
            if parent:
                assert s["total"] <= by_path[parent]["total"] + 1e-9
        assert {"lookup:l1d", "lookup:l2", "lookup:llc"} <= \
            set(payload["components"])
        # The active profiler never leaks past the job.
        assert profile.current() is None

    def test_profiled_components_and_phases(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        payload = _tiny_job(pf="streamline").execute().single.profile
        assert {"access", "dram", "metadata", "train:streamline",
                "issue:streamline"} <= set(payload["components"])
        assert set(payload["phases"]) == \
            {"build", "warmup", "measure", "collect", "probes"}

    def test_restored_engine_is_instrumented(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CKPT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CKPT", "1")
        job = dataclasses.replace(_tiny_job(pf="streamline"), resume=True)
        straight = job.execute().single  # records the warm-up
        monkeypatch.setenv("REPRO_PROFILE", "1")
        profiled = job.execute().single  # restores it
        payload = profiled.profile
        assert "ckpt:load" in payload["phases"]
        assert "warmup" not in payload["phases"]
        assert {"lookup:l1d", "train:streamline"} <= \
            set(payload["components"])
        assert dataclasses.replace(profiled, profile=None) == straight

    def test_profiled_multicore_job_end(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        job = SimJob.multi(("gap.pr", "gap.bfs"), 2000,
                           SystemConfig().scaled_down(8), l1="stride",
                           l2=(spec("streamline"),))
        _runner().run([job])
        records = runlog.load_runlog(
            runlog.list_runs(tmp_path)[-1] / runlog.MERGED)
        end = next(r for r in records if r["event"] == "job_end")
        components = end["profile"]["components"]
        assert {"train:streamline", "lookup:llc"} <= set(components)
        # Both cores walk the hierarchy under one profile.
        assert components["access"]["count"] == 2 * 2000

    def test_profiling_leaves_the_classes_untouched(self, monkeypatch):
        """Spans wrap one engine's objects, never the classes that
        ``perfbench/layers.py`` wraps."""
        from repro.core.streamline import StreamlinePrefetcher
        from repro.memory.cache import Cache
        from repro.memory.dram import DRAM
        from repro.memory.hierarchy import CoreHierarchy
        methods = {(cls, name): cls.__dict__[name] for cls, name in (
            (Cache, "lookup"), (DRAM, "access"),
            (CoreHierarchy, "access"), (CoreHierarchy, "issue_prefetch"),
            (CoreHierarchy, "metadata_access"),
            (StreamlinePrefetcher, "train"))}
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert _tiny_job(pf="streamline").execute().single.profile
        for (cls, name), fn in methods.items():
            assert cls.__dict__[name] is fn
            assert fn.__qualname__ == f"{cls.__name__}.{name}"

    def test_profiled_run_bypasses_cache(self, monkeypatch):
        runner = _runner()
        job = _tiny_job()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        runner.run_one(job)
        assert runner.cache.stats.snapshot() == \
            {"memo_hits": 0, "disk_hits": 0, "misses": 0, "stores": 0,
             "evictions": 0}
        monkeypatch.delenv("REPRO_PROFILE")
        runner.run_one(job)
        assert runner.cache.stats.misses == 1


# -- run logs ------------------------------------------------------------------

class TestRunLog:
    def test_writer_envelope_and_merge_ordering(self, tmp_path):
        log = runlog.RunLog("r1", tmp_path / "r1")
        log.directory.mkdir(parents=True)
        # Interleave two "workers" with deliberately equal timestamps to
        # exercise the (ts, pid, seq) tie-break.
        for pid, name in ((2, "worker-2"), (1, "worker-1")):
            with open(log.directory / f"{name}.jsonl", "w") as fh:
                for seq in range(3):
                    fh.write(json.dumps({"ts": 100.0, "pid": pid,
                                         "seq": seq, "event": "e"}) + "\n")
        merged = log.merge()
        records = runlog.load_runlog(merged)
        assert [(r["pid"], r["seq"]) for r in records] == \
            [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        # Shards are consumed by the merge.
        assert sorted(p.name for p in log.directory.iterdir()) == \
            ["runlog.jsonl"]

    def test_merge_skips_torn_lines(self, tmp_path):
        log = runlog.RunLog("r2", tmp_path / "r2")
        log.directory.mkdir(parents=True)
        (log.directory / "worker-9.jsonl").write_text(
            json.dumps({"ts": 1.0, "pid": 9, "seq": 0, "event": "ok"})
            + "\n" + '{"ts": 2.0, "pid": 9, "se')  # killed mid-write
        records = runlog.load_runlog(log.merge())
        assert [r["event"] for r in records] == ["ok"]

    def test_enabled_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not runlog.enabled()
        monkeypatch.setenv("REPRO_OBS", "1")
        assert runlog.enabled()
        monkeypatch.setenv("REPRO_OBS", "2")
        with pytest.raises(ValueError, match="REPRO_OBS"):
            runlog.enabled()

    def _sweep(self, workers: int, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        jobs = [SimJob.single(wl, 3000, SystemConfig().scaled_down(8),
                              l1="stride", l2=(spec(pf),))
                for wl in ("gap.pr", "gap.bfs")
                for pf in ("stride", "streamline")]
        runner = SimRunner(jobs=workers,
                           cache=ResultCache(persistent=False))
        results = runner.run(jobs)
        runs = runlog.list_runs(tmp_path)
        assert len(runs) == 1
        return results, runlog.load_runlog(runs[0] / runlog.MERGED)

    def test_serial_sweep_logs_jobs(self, tmp_path, monkeypatch):
        _, records = self._sweep(1, tmp_path, monkeypatch)
        events = [r["event"] for r in records]
        assert events[0] == "run_start" and events[-1] == "run_end"
        assert events.count("job_start") == 4
        assert events.count("job_end") == 4
        start = next(r for r in records if r["event"] == "run_start")
        assert start["jobs"] == 4 and start["executed"] == 4

    def test_multiworker_merge_is_ordered_and_complete(self, tmp_path,
                                                       monkeypatch):
        results, records = self._sweep(2, tmp_path, monkeypatch)
        assert len(results) == 4
        # Global ordering: non-decreasing (ts, pid, seq).
        keys = [(r["ts"], r["pid"], r["seq"]) for r in records]
        assert keys == sorted(keys)
        # Per-writer order survives the merge.
        ends = [r for r in records if r["event"] == "job_end"]
        assert len(ends) == 4
        assert len({r["pid"] for r in ends}) >= 1
        for r in ends:
            assert r["wall_seconds"] > 0
            assert r["fingerprint"]
            assert r["profile"] is None  # REPRO_PROFILE off


# -- progress line -------------------------------------------------------------

class _Tty(io.StringIO):
    def isatty(self):
        return True


class TestProgress:
    def test_silent_when_piped(self):
        buf = io.StringIO()  # not a TTY
        line = progress.ProgressLine(4, stream=buf)
        line.update(done=2)
        line.finish()
        assert buf.getvalue() == ""

    def test_renders_on_tty(self):
        buf = _Tty()
        line = progress.ProgressLine(4, stream=buf, min_interval=0.0)
        line.update(done=1, memo_hits=1)
        line.update(done=2)
        line.finish()
        out = buf.getvalue()
        assert "\r" in out and out.endswith("\n")
        assert "2/4 jobs" in out and "memo 1" in out

    def test_eta_excludes_cache_hits(self):
        line = progress.ProgressLine(10, done=8, stream=_Tty(),
                                     min_interval=0.0)
        # No executed jobs yet: no rate, so no (absurdly small) ETA.
        assert "eta" not in line.render_line()
        line.update(done=9)
        assert "eta" in line.render_line()

    def test_format_eta(self):
        assert progress.format_eta(41) == "0:41"
        assert progress.format_eta(3661) == "1:01:01"
        assert progress.format_eta(-5) == "0:00"


# -- report + CLI --------------------------------------------------------------

class TestReportCli:
    @pytest.fixture()
    def sweep_dir(self, tmp_path, monkeypatch):
        """A profiled 2-workload x 2-prefetcher sweep's obs directory."""
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        jobs = [SimJob.single(wl, 3000, SystemConfig().scaled_down(8),
                              l1="stride", l2=(spec(pf),))
                for wl in ("gap.pr", "gap.bfs")
                for pf in ("stride", "streamline")]
        SimRunner(jobs=1, cache=ResultCache(persistent=False)).run(jobs)
        return tmp_path

    def test_summarize_and_render(self, sweep_dir):
        runs = runlog.list_runs(sweep_dir)
        assert len(runs) == 1
        summary = report.summarize(runs[0])
        assert summary.total == 4 and summary.executed == 4
        assert len(summary.profiled_jobs) == 4
        components = summary.components()
        assert "lookup:l1d" in components
        text = report.render(summary)
        assert "Slowest jobs" in text
        assert "Time by component" in text
        assert "Span tree" in text
        assert "gap.pr" in text
        assert "## Time by component (4 profiled jobs" in text
        assert "## Metrics (4 executed job(s))" in text
        events = sum(j.events for j in summary.jobs)
        assert events == 4 * MEASURED
        assert summary.job_metrics()["events"] == events
        assert summary.job_metrics()["wall_seconds"] == pytest.approx(
            sum(j.wall_seconds for j in summary.jobs))
        metrics = text[text.index("## Metrics"):].splitlines()
        assert metrics[2] == "| wall | events | events/s | " \
                             "ckpt restores | trace store hits |"
        assert metrics[4].split(" | ")[1] == str(events)
        assert metrics[5:] == []  # one row ends the report

    def test_cli_smoke(self, sweep_dir):
        env = dict(os.environ,
                   REPRO_OBS_DIR=str(sweep_dir),
                   PYTHONPATH=str(pathlib.Path("src").resolve()))
        for args in (["list"], ["report"], ["report", "--json"],
                     ["report", "--top", "3"]):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "obs"] + args,
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip()

    def test_cli_unknown_run(self, sweep_dir):
        env = dict(os.environ,
                   REPRO_OBS_DIR=str(sweep_dir),
                   PYTHONPATH=str(pathlib.Path("src").resolve()))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "obs", "report", "nope"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "no run matches" in proc.stderr

    def _cli(self, sweep_dir, *args):
        env = dict(os.environ,
                   REPRO_OBS_DIR=str(sweep_dir),
                   PYTHONPATH=str(pathlib.Path("src").resolve()))
        return subprocess.run(
            [sys.executable, "-m", "repro", "obs"] + list(args),
            env=env, capture_output=True, text=True, timeout=120)

    def test_cli_list_columns(self, sweep_dir):
        proc = self._cli(sweep_dir, "list")
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.splitlines()[:2]
        for column in ("run", "started", "jobs", "exec", "cache",
                       "shards", "prof", "wall"):
            assert column in header
        run_id = runlog.list_runs(sweep_dir)[0].name
        assert row.startswith(run_id)
        assert " 4 " in row  # job count

    def test_cli_json_surfaces(self, sweep_dir):
        rep = json.loads(self._cli(sweep_dir, "report",
                                   "--json").stdout)
        assert rep["jobs"] == 4 and rep["executed"] == 4
        assert rep["shards"] >= 1 and rep["started"] > 0
        assert len(rep["slowest_jobs"]) == 4
        assert all(j["events"] == MEASURED for j in rep["slowest_jobs"])
        assert "metrics" not in rep["slowest_jobs"][0]
        assert rep["metrics"]["events"] == 4 * MEASURED
        assert rep["metrics"]["events_per_second"] > 0
        assert rep["metrics"]["ckpt_restores"] == 0
        assert "lookup:l1d" in rep["components"]
        assert rep["run_id"] == runlog.list_runs(sweep_dir)[0].name
        text = self._cli(sweep_dir, "report")
        assert text.returncode == 0
        metrics = text.stdout[text.stdout.index("## Metrics"):]
        assert "events/s" in metrics and str(4 * MEASURED) in metrics

    def test_cli_compare_matches_jobs_across_runs(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        jobs = [_tiny_job("gap.pr", pf) for pf in ("stride", "streamline")]
        for _ in range(2):
            _runner().run(jobs)
        run_a, run_b = (r.name for r in runlog.list_runs(tmp_path))
        proc = self._cli(tmp_path, "report", "--compare", run_a, run_b)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert out.startswith(f"# obs compare — {run_a} (A) vs {run_b} (B)")
        heading = "## Matched jobs (top 10 by |Δwall|, 2 matched)"
        assert heading in out
        table = out[out.index(heading):].split("\n\n")[1]
        header, _, *rows = table.splitlines()
        assert header == "| job | A | B | Δ | ratio |"
        assert sorted(row.split(" | ")[0] for row in rows) == sorted(
            f"| gap.pr/l1:stride+{pf} [{job.fingerprint()[:10]}]"
            for job, pf in zip(jobs, ("stride", "streamline")))
        # One view at a time, and --compare has no --json form.
        for argv in (["--compare", run_a, run_b, "--json"],
                     [run_a, "--compare", run_a, run_b],
                     ["--compare", run_a, run_b, "--trace", "ab"]):
            bad = self._cli(tmp_path, "report", *argv)
            assert bad.returncode == 2, argv
            assert "error:" in bad.stderr and bad.stdout == ""

    def test_cli_trace(self, sweep_dir):
        records = runlog.load_runlog(
            runlog.list_runs(sweep_dir)[0] / runlog.MERGED)
        trace_id = records[0]["trace_id"]
        proc = self._cli(sweep_dir, "report", "--trace", trace_id[:10])
        assert proc.returncode == 0, proc.stderr
        assert f"trace {trace_id}" in proc.stdout
        payload = json.loads(self._cli(
            sweep_dir, "report", "--trace", trace_id, "--json").stdout)
        assert payload["trace_id"] == trace_id
        missing = self._cli(sweep_dir, "report", "--trace", "f" * 32)
        assert missing.returncode == 1
        assert "no records carry trace" in missing.stderr
        # A prefix two traces share names neither: one line, exit 1.
        other = sweep_dir / "other-run"
        other.mkdir()
        (other / runlog.MERGED).write_text(json.dumps(
            {"ts": 0.0, "pid": 1, "seq": 0, "event": "run_start",
             "trace_id": trace_id[:10] + "0" * 22}) + "\n")
        ambiguous = self._cli(sweep_dir, "report", "--trace",
                              trace_id[:10])
        assert ambiguous.returncode == 1
        assert ambiguous.stderr.count("\n") == 1
        assert "is ambiguous" in ambiguous.stderr


# -- runlog tailer (the serve event stream's source) ---------------------------

class TestRunLogTailer:
    def _emit(self, path: pathlib.Path, pid: int, seq: int,
              event: str = "job_end", **payload):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps({"ts": float(seq), "pid": pid,
                                 "seq": seq, "event": event,
                                 **payload}) + "\n")

    def test_incremental_poll_sees_only_new_records(self, tmp_path):
        shard = tmp_path / "run1" / "worker-1.jsonl"
        tailer = runlog.RunLogTailer(tmp_path)
        assert tailer.poll() == []
        self._emit(shard, 1, 0, "job_start")
        self._emit(shard, 1, 1, "job_end")
        assert [r["event"] for r in tailer.poll()] == \
            ["job_start", "job_end"]
        assert tailer.poll() == []
        self._emit(shard, 1, 2)
        assert [r["seq"] for r in tailer.poll()] == [2]

    def test_torn_tail_is_deferred_until_complete(self, tmp_path):
        shard = tmp_path / "run1" / "worker-1.jsonl"
        self._emit(shard, 1, 0)
        with open(shard, "a") as fh:  # a writer killed mid-record
            fh.write('{"ts": 1.0, "pid": 1, "se')
        tailer = runlog.RunLogTailer(tmp_path)
        assert [r["seq"] for r in tailer.poll()] == [0]
        with open(shard, "a") as fh:
            fh.write('q": 1, "event": "late"}\n')
        assert [r["event"] for r in tailer.poll()] == ["late"]

    def test_merge_rewrite_does_not_replay_records(self, tmp_path):
        log = runlog.RunLog("r1", tmp_path / "r1")
        log.directory.mkdir(parents=True)
        for seq in range(3):
            self._emit(log.directory / "worker-7.jsonl", 7, seq)
        tailer = runlog.RunLogTailer(tmp_path)
        assert len(tailer.poll()) == 3
        # The merge deletes the shard and rewrites every record into
        # runlog.jsonl; the (ts, pid, seq) dedup must keep them silent.
        log.merge()
        assert tailer.poll() == []

    def test_multiple_runs_and_ordering(self, tmp_path):
        self._emit(tmp_path / "r1" / "worker-1.jsonl", 1, 5)
        self._emit(tmp_path / "r2" / "worker-2.jsonl", 2, 3)
        tailer = runlog.RunLogTailer(tmp_path)
        assert [(r["ts"], r["pid"]) for r in tailer.poll()] == \
            [(3.0, 2), (5.0, 1)]

    def test_rotated_shard_is_reopened_and_reread(self, tmp_path):
        # A log manager replacing the file under the tailer (new inode)
        # must not wedge the stream on the remembered offset.
        shard = tmp_path / "run1" / "worker-1.jsonl"
        self._emit(shard, 1, 0)
        self._emit(shard, 1, 1)
        tailer = runlog.RunLogTailer(tmp_path)
        assert [r["seq"] for r in tailer.poll()] == [0, 1]
        shard.unlink()
        self._emit(shard, 1, 7)  # shorter than the old offset
        assert [r["seq"] for r in tailer.poll()] == [7]

    def test_truncated_shard_is_reread_from_start(self, tmp_path):
        # Same inode, shrunk size (copytruncate-style rotation): the
        # offset is reset and the (ts, pid, seq) dedup absorbs any
        # record that survived the truncation.
        shard = tmp_path / "run1" / "worker-1.jsonl"
        self._emit(shard, 1, 0)
        self._emit(shard, 1, 1)
        tailer = runlog.RunLogTailer(tmp_path)
        assert len(tailer.poll()) == 2
        first = shard.read_text().splitlines()[0]
        shard.write_text(first + "\n")  # truncate to the first record
        assert tailer.poll() == []  # replay deduped
        self._emit(shard, 1, 9)
        assert [r["seq"] for r in tailer.poll()] == [9]


# -- trace contexts ------------------------------------------------------------

class TestTraceContext:
    def test_traceparent_roundtrip(self):
        context = trace.new_context()
        parsed = trace.from_traceparent(context.to_traceparent())
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id
        assert parsed.parent_span is None

    def test_child_keeps_trace_and_records_parent(self):
        root = trace.new_context()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.parent_span == root.span_id
        fields = child.fields()
        assert fields["trace_id"] == root.trace_id
        assert fields["parent_span"] == root.span_id
        assert "parent_span" not in root.fields()

    @pytest.mark.parametrize("junk", [
        "", "junk", "00-dead-beef-01",
        "00-" + "g" * 32 + "-" + "0" * 15 + "1-01",   # non-hex
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",    # wrong version
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",    # short trace id
    ])
    def test_malformed_traceparent(self, junk):
        with pytest.raises(ValueError, match="traceparent"):
            trace.from_traceparent(junk)
        assert trace.parse_or_none(junk) is None
        assert trace.parse_or_none(None) is None

    def test_context_validation(self):
        with pytest.raises(ValueError, match="trace_id"):
            trace.TraceContext("0" * 32, "1" * 16)  # all-zero forbidden
        with pytest.raises(ValueError, match="span_id"):
            trace.TraceContext("a" * 32, "0" * 16)
        with pytest.raises(ValueError, match="trace_id"):
            trace.TraceContext("abc", "1" * 16)

    def test_install_restore_and_ambient(self):
        context = trace.new_context()
        previous = trace.install(context)
        try:
            assert trace.current() is context
            # With a context installed, ambient inherits instead of
            # minting a new root.
            assert trace.ambient() is context
        finally:
            trace.install(previous)
        assert trace.current() is previous
        trace.uninstall()
        assert trace.current() is None
        # Nothing installed: each ambient() call is a fresh root.
        assert trace.ambient().trace_id != trace.ambient().trace_id


# -- metrics registry ----------------------------------------------------------

class TestMetricsRegistry:
    def test_naming_convention_enforced(self):
        registry = metrics.MetricsRegistry()
        with pytest.raises(ValueError, match="convention"):
            registry.counter("bad_name_total", "no repro_ prefix")
        with pytest.raises(ValueError, match="convention"):
            registry.gauge("repro_Depth", "uppercase")
        with pytest.raises(ValueError, match="_total"):
            registry.counter("repro_cache_hits", "counter sans _total")
        with pytest.raises(ValueError, match="_total"):
            registry.histogram("repro_job_wall_total", "histogram")
        registry.counter("repro_cache_hits_total", "ok")
        with pytest.raises(ValueError, match="already"):
            registry.counter("repro_cache_hits_total", "dup")

    def test_counter_semantics(self):
        registry = metrics.MetricsRegistry()
        c = registry.counter("repro_test_things_total", "things")
        c.inc()
        c.inc(2)
        assert c.value() == 3
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)
        pull = registry.counter("repro_test_pulled_total", "pulled",
                                fn=lambda: 41)
        assert pull.value() == 41
        with pytest.raises(RuntimeError, match="pull"):
            pull.inc()

    def test_gauge_and_histogram(self):
        registry = metrics.MetricsRegistry()
        g = registry.gauge("repro_test_depth_jobs", "depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4
        h = registry.histogram("repro_test_wait_seconds", "wait",
                               buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 30.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [1, 2, 1]  # per-bucket, +Inf last
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(31.05)
        samples = dict(h.samples())
        assert samples['repro_test_wait_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_test_wait_seconds_bucket{le="1"}'] == 3
        assert samples['repro_test_wait_seconds_bucket{le="+Inf"}'] == 4
        assert samples["repro_test_wait_seconds_count"] == 4

    def test_render_parses_as_prometheus_text(self):
        registry = metrics.MetricsRegistry()
        registry.counter("repro_test_hits_total", "hits").inc(7)
        registry.gauge("repro_test_depth_jobs", "queue depth").set(2)
        registry.histogram("repro_test_wait_seconds", "wait",
                           buckets=(1.0,)).observe(0.5)
        families = metrics.parse_text(registry.render())
        assert families["repro_test_hits_total"]["type"] == "counter"
        assert families["repro_test_hits_total"]["samples"][
            "repro_test_hits_total"] == 7
        assert families["repro_test_depth_jobs"]["type"] == "gauge"
        hist = families["repro_test_wait_seconds"]
        assert hist["type"] == "histogram"
        assert hist["samples"][
            'repro_test_wait_seconds_bucket{le="+Inf"}'] == 1
        assert hist["samples"]["repro_test_wait_seconds_sum"] == 0.5

    def test_parse_text_lints(self):
        with pytest.raises(ValueError, match="before its"):
            metrics.parse_text("repro_orphan_total 3\n")
        with pytest.raises(ValueError, match="unknown TYPE"):
            metrics.parse_text("# HELP repro_x_total x\n"
                               "# TYPE repro_x_total summary\n")
        with pytest.raises(ValueError, match="negative"):
            metrics.parse_text("# HELP repro_x_total x\n"
                               "# TYPE repro_x_total counter\n"
                               "repro_x_total -1\n")
        with pytest.raises(ValueError, match="missing"):
            metrics.parse_text("# HELP repro_x_total x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            metrics.parse_text("# HELP repro_x_total x\n"
                               "# TYPE repro_x_total counter\n"
                               "repro_x_total lots\n")


# -- trace propagation through the runner --------------------------------------

class TestTracePropagation:
    def _sweep(self, workers: int, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        jobs = [_tiny_job(wl, pf) for wl in ("gap.pr", "gap.bfs")
                for pf in ("stride", "streamline")]
        root = trace.new_context()
        previous = trace.install(root)
        try:
            SimRunner(jobs=workers,
                      cache=ResultCache(persistent=False)).run(jobs)
        finally:
            trace.install(previous)
        runs = runlog.list_runs(tmp_path)
        assert len(runs) == 1
        return root, runlog.load_runlog(runs[0] / runlog.MERGED)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_trace_id_on_every_record(self, workers, tmp_path,
                                          monkeypatch):
        root, records = self._sweep(workers, tmp_path, monkeypatch)
        assert records
        assert {r["trace_id"] for r in records} == {root.trace_id}
        # Batch records run under the root's span; each job is a child
        # span parented to its submitter's span.
        batch = next(r for r in records if r["event"] == "run_start")
        assert batch["span_id"] == root.span_id
        ends = [r for r in records if r["event"] == "job_end"]
        assert len(ends) == 4
        for r in ends:
            assert r["span_id"] != root.span_id
            assert r["parent_span"] == root.span_id

    def test_collect_and_render_trace(self, tmp_path, monkeypatch):
        root, records = self._sweep(2, tmp_path, monkeypatch)
        collected = report.collect_trace(root.trace_id[:12],
                                         root=tmp_path)
        assert len(collected) == len(records)
        tree = report.trace_tree(collected)
        assert len(tree) == 1  # the batch span roots the whole request
        assert {c["records"][0]["event"] for c in tree[0]["children"]} \
            <= {"job_start", "job_end"}
        text = report.render_trace(root.trace_id, collected)
        assert f"trace {root.trace_id}" in text
        assert "job gap.pr" in text
        payload = report.trace_to_json(root.trace_id, collected)
        assert payload["trace_id"] == root.trace_id
        assert payload["spans"][0]["children"]

    def test_trace_off_leaves_records_clean_and_results_identical(
            self, tmp_path, monkeypatch):
        # Tracing is always on; what stays clean is the result: a
        # traced, logged batch returns exactly what job.execute() does
        # with no context installed and no run-log writer.
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        jobs = [_tiny_job("gap.pr", pf)
                for pf in ("stride", "streamline")]
        previous = trace.install(None)
        try:
            bare = [job.execute() for job in jobs]
        finally:
            trace.install(previous)
        traced = SimRunner(jobs=1,
                           cache=ResultCache(persistent=False)).run(jobs)
        records = runlog.load_runlog(
            runlog.list_runs(tmp_path)[-1] / runlog.MERGED)
        assert [r["event"] for r in records].count("job_end") == 2
        assert all(r["trace_id"] for r in records)
        # The observation plane never perturbs simulation results.
        assert [pickle.dumps(r) for r in traced] == \
            [pickle.dumps(r) for r in bare]

    def test_profiler_spans_carry_the_trace(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        root = trace.new_context()
        previous = trace.install(root)
        try:
            SimRunner(jobs=1, cache=ResultCache(persistent=False)).run(
                [_tiny_job()])
        finally:
            trace.install(previous)
        records = runlog.load_runlog(
            runlog.list_runs(tmp_path)[-1] / runlog.MERGED)
        end = next(r for r in records if r["event"] == "job_end")
        assert end["trace_id"] == root.trace_id
        payload = end["profile"]
        assert payload["enabled"]
        # The profiler stamps the job's own span, not the batch root's.
        assert payload["trace_id"] == root.trace_id
        assert payload["span_id"] == end["span_id"] != root.span_id

    def test_job_end_metrics_section(self, tmp_path, monkeypatch):
        # Each fact once: job_end carries the simulated accesses and
        # cycles at top level, and no section repeating its own fields.
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        job = _tiny_job()
        result = SimRunner(jobs=1, cache=ResultCache(
            persistent=False)).run_one(job)
        records = runlog.load_runlog(
            runlog.list_runs(tmp_path)[-1] / runlog.MERGED)
        start = next(r for r in records if r["event"] == "run_start")
        assert start["schema"] == runlog.RUNLOG_SCHEMA_VERSION == 2
        end = next(r for r in records if r["event"] == "job_end")
        assert "metrics" not in end
        assert end["events"] == result.single.accesses == MEASURED
        assert end["sim_cycles"] == result.single.cycles > 0
        assert end["wall_seconds"] > 0
        assert end["restored"] is False
        assert set(end["trace_store"]) >= {"hits", "misses"}


# -- cache evictions in the run log --------------------------------------------

class TestCacheEvictRecords:
    def test_eviction_surfaces_in_run_start_and_cache_evict(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        cache_dir = tmp_path / "sc"
        job = SimJob.single("gap.pr", 3000,
                            SystemConfig().scaled_down(8), l1="stride")
        SimRunner(jobs=1, cache=ResultCache(
            cache_dir, persistent=True)).run_one(job)
        # Corrupt the stored entry; the next batch's lookup evicts it.
        fresh = ResultCache(cache_dir, persistent=True)
        path = fresh.path(job.fingerprint())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.warns(UserWarning, match="evicting corrupt"):
            SimRunner(jobs=1, cache=fresh).run_one(job)
        runs = runlog.list_runs(tmp_path / "obs")
        records = runlog.load_runlog(runs[-1] / runlog.MERGED)
        start = next(r for r in records if r["event"] == "run_start")
        assert start["evictions"] == 1
        evict = next(r for r in records if r["event"] == "cache_evict")
        assert evict["store"] == "results"
        assert evict["key"] == job.fingerprint()
        assert "sha256" in evict["reason"]
