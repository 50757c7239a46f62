"""Tests for the package API surface and the command line
(``python -m repro <subsystem> <verb>``)."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import ALL_EXPERIMENTS


class TestPackageAPI:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_top_level_exports(self):
        import repro
        for name in ("run_single", "run_multicore", "SystemConfig",
                     "SimResult", "Trace", "quick_compare"):
            assert hasattr(repro, name)

    def test_memory_exports(self):
        from repro import memory
        for name in ("Cache", "DRAM", "CoreHierarchy", "SharedUncore",
                     "PartitionController", "make_policy"):
            assert hasattr(memory, name)

    def test_core_exports(self):
        from repro import core
        for name in ("StreamlinePrefetcher", "StreamEntry",
                     "StreamStore", "align", "realign",
                     "UtilityAwarePartitioner",
                     "TPMockingjayReplacement"):
            assert hasattr(core, name)

    def test_prefetcher_exports(self):
        from repro import prefetchers
        for name in ("StridePrefetcher", "BertiPrefetcher",
                     "IPCPPrefetcher", "BingoPrefetcher",
                     "SPPPrefetcher", "TriagePrefetcher",
                     "TriangelPrefetcher", "IdealTriage"):
            assert hasattr(prefetchers, name)


class TestExperimentsCLI:
    def test_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out

    def test_unknown_experiment(self, capsys):
        for argv in (["experiments", "fig99"],
                     ["experiments", "table1", "fig99"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "fig99" in capsys.readouterr().err

    def test_runs_analytic_experiment(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "FTS" in out
        assert out.startswith("== table1 (")
        assert out.rstrip().splitlines()[-1].startswith("[runner] ")


def _subcommands(parser: argparse.ArgumentParser):
    """A parser's subcommand names -> their parsers."""
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


#: Arguments a verb needs between its subsystem and its own name.
_BEFORE_VERB = {"store": ["results"]}

_VERBS = [(subsystem, verb)
          for subsystem, sub in _subcommands(build_parser()).items()
          for verb in _subcommands(sub)]


def _cli(*argv):
    """``python -m repro`` in a child process."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path("src").resolve()))
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestCommandLine:
    """One parser: every verb of every subsystem parses, and bad input
    is a usage error (exit 2) rather than a traceback."""

    def test_every_subsystem_has_its_verbs(self):
        verbs = {}
        for subsystem, verb in _VERBS:
            verbs.setdefault(subsystem, set()).add(verb)
        assert verbs.pop("experiments") == {"list", "report", "all",
                                            *ALL_EXPERIMENTS}
        assert verbs == {"store": {"list", "verify", "gc"},
                         "obs": {"list", "report"},
                         "serve": {"run", "ping"},
                         "sampling": {"plan", "run", "validate"},
                         "telemetry": {"run", "validate"},
                         "checkpoint": {"inspect"}}

    @pytest.mark.parametrize("subsystem, verb", _VERBS,
                             ids=[f"{s}-{v}" for s, v in _VERBS])
    def test_verb_help(self, subsystem, verb, capsys):
        argv = [subsystem, *_BEFORE_VERB.get(subsystem, []), verb]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert usage.startswith(f"usage: python -m repro {subsystem} ")
        assert f" {verb}" in usage

    @pytest.mark.parametrize("argv", [
        ["store", "results", "verify", "../x"],
        ["store", "results", "gc", "--keep", "-1"],
        ["checkpoint", "inspect", "../x"],
        ["telemetry", "validate", "{missing}"],
        ["obs", "report", "--top", "-1"],
        ["telemetry", "run", "nowork"],
        ["telemetry", "run", "gap.pr", "--prefetcher", "nope"],
        ["sampling", "plan", "nowork"],
        ["sampling", "plan", "gap.pr", "--n", "0"],
        ["telemetry", "run", "gap.pr", "--interval", "0"],
        ["telemetry", "run", "gap.pr", "--scale", "0"],
        ["serve", "run", "--port", "70000"],
    ])
    def test_bad_input_is_a_usage_error(self, argv, tmp_path):
        argv = [a.format(missing=tmp_path / "missing.jsonl")
                for a in argv]
        proc = _cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_empty_prefetcher_means_none(self):
        args = build_parser().parse_args(
            ["telemetry", "run", "gap.pr", "--prefetcher", ""])
        assert args.prefetcher == ""

    def test_serve_ping_without_url(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_URL", raising=False)
        assert main(["serve", "ping"]) == 2
        assert "error: no URL given" in capsys.readouterr().err

    def test_checkpoint_inspect_missing_key(self, capsys):
        assert main(["checkpoint", "inspect", "no-such-key"]) == 1
        assert "no (readable) checkpoint" in capsys.readouterr().err

    def test_telemetry_run_then_validate(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["telemetry", "run", "gap.pr", "--n", "3000",
                     "--interval", "500", "--jsonl", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["telemetry", "validate", str(out)]) == 0
        assert "valid" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        del records[0]["interval"]
        bad.write_text("\n".join(json.dumps(r) for r in records))
        assert main(["telemetry", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err
