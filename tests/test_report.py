"""Tests for the results-report assembler."""

from repro.__main__ import main
from repro.experiments.report import ORDER, TITLES, assemble


def test_order_covers_all_experiments():
    from repro.experiments import ALL_EXPERIMENTS
    assert set(ORDER) == set(ALL_EXPERIMENTS)
    assert set(TITLES) == set(ORDER)


def test_assemble_orders_and_flags_missing():
    report = assemble({"fig9": "TABLE9", "table1": "TABLE1"})
    assert report.index("Table I") < report.index("Figure 9")
    assert "TABLE1" in report and "TABLE9" in report
    assert "Missing" in report


def test_assemble_includes_unknown_extras():
    report = assemble({"custom": "X"})
    assert "## custom" in report


def test_collect_and_main(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "fig9.txt").write_text("hello fig9")
    out = tmp_path / "report.md"
    assert main(["experiments", "report", str(results), str(out)]) == 0
    assert "hello fig9" in out.read_text()


def test_main_missing_dir(tmp_path):
    assert main(["experiments", "report", str(tmp_path / "nope"),
                 str(tmp_path / "r.md")]) == 1
