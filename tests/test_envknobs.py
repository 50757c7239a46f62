"""Every ``REPRO_*`` knob is read through :mod:`repro.envknobs`.

The helpers there validate every value the same way (a junk value
raises naming the variable); a module reading ``os.environ`` itself
would bypass that, so no module but ``envknobs.py`` may.  Likewise the
simulator (``repro.memory``, ``repro.sim``, ``repro.core``,
``repro.prefetchers``) imports nothing from ``repro.obs``: profiling
wraps a built engine from outside.  The bench
scripts size their runs through the same ``REPRO_N``/``REPRO_QUICK``
helpers as ``repro.experiments``.  The knob table in
``benchmarks/README.md`` lists exactly the knobs ``src/`` reads.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
BENCHMARKS = SRC.parents[1] / "benchmarks"
ENVIRON = ("environ", "environb", "getenv", "getenvb")


def _environ_reads(path: pathlib.Path):
    """Line numbers where ``path`` touches the process environment."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRON \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in ENVIRON for alias in node.names):
            yield node.lineno


def test_only_envknobs_reads_the_environment():
    assert (SRC / "envknobs.py").is_file()
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if path != SRC / "envknobs.py"
                 for line in _environ_reads(path)]
    assert offenders == []


def test_the_scan_sees_environment_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom os import getenv\n"
                     "x = os.environ.get('REPRO_X')\n")
    assert list(_environ_reads(probe)) == [2, 3]


#: The simulator's packages: none of their modules may import
#: ``repro.obs``.
SIMULATOR = ("memory", "sim", "core", "prefetchers")


def _obs_imports(path: pathlib.Path, package: str):
    """Line numbers where ``path`` (a module of ``package``) imports
    ``repro.obs`` or anything under it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[:len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [module] + [f"{module}.{alias.name}"
                                for alias in node.names]
        else:
            continue
        if any(n == "repro.obs" or n.startswith("repro.obs.")
               for n in names):
            yield node.lineno


def test_the_simulator_imports_no_observer():
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for sub in SIMULATOR
                 for path in sorted((SRC / sub).rglob("*.py"))
                 for line in _obs_imports(
                     path, ".".join(("repro",) + path.relative_to(
                         SRC).parent.parts))]
    assert offenders == []


def test_the_scan_sees_observer_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ..obs.profile import SpanProfiler\n"
                     "import repro.obs\nfrom .. import obs\n"
                     "from ..observer import x\nfrom . import obs\n")
    assert list(_obs_imports(probe, "repro.memory")) == [1, 2, 3]


def test_knob_table_lists_exactly_the_knobs_src_reads():
    """Every quoted ``"REPRO_*"`` name under ``src/`` is a knob some
    module reads; the README table must name each once, and no other."""
    read = {name for path in SRC.rglob("*.py")
            for name in re.findall(r'"(REPRO_[A-Z0-9_]+)"',
                                   path.read_text(encoding="utf-8"))}
    rows = re.findall(r"^\| `(REPRO_[A-Z0-9_]+)",
                      (BENCHMARKS / "README.md").read_text(
                          encoding="utf-8"), flags=re.M)
    assert len(rows) == len(set(rows)), "a knob is listed twice"
    assert sorted(rows) == sorted(read)


#: Each bench script's sizing helper and the knobs it reads.
BENCH_SIZING = (
    ("bench_checkpoint.py", "_jobs", ("REPRO_N",)),
    ("bench_checkpoint.py", "_speedup_floor", ("REPRO_N", "REPRO_QUICK")),
    ("bench_sampling.py", "_validation_grid", ("REPRO_QUICK",)),
    ("bench_tracestream.py", "_n", ("REPRO_N", "REPRO_QUICK")),
    ("bench_telemetry_overhead.py", "_jobs", ("REPRO_N",)),
    ("bench_obs_overhead.py", "_job", ("REPRO_N",)),
)

#: A value each knob's shared parser rejects.
JUNK = {"REPRO_N": "0", "REPRO_QUICK": "yes"}


def _load_bench(script: str):
    spec = importlib.util.spec_from_file_location(
        f"{script[:-3]}_under_test", BENCHMARKS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, helper, knob", [
    (script, helper, knob)
    for script, helper, knobs in BENCH_SIZING for knob in knobs])
def test_bench_sizing_rejects_junk_knobs(monkeypatch, script, helper,
                                         knob):
    monkeypatch.delenv("REPRO_N", raising=False)
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    monkeypatch.setenv(knob, JUNK[knob])
    sizing = getattr(_load_bench(script), helper)
    with pytest.raises(ValueError, match=knob):
        sizing()
