"""Every ``REPRO_*`` knob is read through :mod:`repro.envknobs`.

The helpers there validate every value the same way (a junk value
raises naming the variable); a module reading ``os.environ`` itself
would bypass that, so no module but ``envknobs.py`` may.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
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
