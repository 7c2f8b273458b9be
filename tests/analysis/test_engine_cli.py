"""The analyze driver and its CLI surface: determinism, baseline gate."""

import os
import shutil

import repro
from repro.analysis.determinism import DEFAULT_TARGETS
from repro.analysis.engine import (
    analyze_workload,
    lint_workload_names,
    run_analysis,
)
from repro.cli import main


def test_registry_names_are_the_paper_workloads():
    assert lint_workload_names() == ["merge", "photo", "tasks", "tsp"]


def test_reports_are_byte_identical_across_runs():
    first = run_analysis(workloads=["merge"]).render()
    second = run_analysis(workloads=["merge"]).render()
    assert first == second
    assert first  # merge has known (baselined, waived) findings


def test_unknown_pass_rejected():
    import pytest

    with pytest.raises(ValueError):
        analyze_workload("tasks", passes=("nonsense",))


def test_checked_in_baseline_covers_current_findings():
    """The CI gate's exact invariant: a full run against the committed
    baseline produces zero *new* diagnostics."""
    report = run_analysis(baseline_path="analysis-baseline.txt")
    assert report.new_diagnostics() == []
    assert report.diagnostics  # merge/tsp findings exist and are baselined


def test_cli_analyze_clean_workload_exits_zero(capsys):
    code = main(["analyze", "--workload", "tasks"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new" in out


def test_cli_analyze_findings_without_baseline_exit_one(capsys):
    # tsp's annotations carry no findings; merge still carries its
    # by-design, waived RS001 findings
    code = main(["analyze", "--workload", "merge"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RS001" in out


def test_cli_analyze_baseline_roundtrip(tmp_path, capsys):
    baseline = str(tmp_path / "base.txt")
    code = main(
        ["analyze", "--workload", "merge", "--baseline", baseline,
         "--write-baseline"]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["analyze", "--workload", "merge", "--baseline", baseline])
    out = capsys.readouterr().out
    assert code == 0
    assert "(baseline)" in out


def test_cli_analyze_unknown_workload_exits_two(capsys):
    assert main(["analyze", "--workload", "nope"]) == 2


def test_cli_analyze_pass_selection(capsys):
    code = main(["analyze", "--workload", "tsp", "--pass", "locks"])
    out = capsys.readouterr().out
    assert code == 0  # tsp's findings are annotation findings
    assert "AN00" not in out


def test_cli_lint_shipped_source_exits_zero(capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    for target in DEFAULT_TARGETS:
        assert os.path.exists(os.path.join(src, target)), target
    code = main(["lint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_cli_lint_missing_path_exits_two(capsys):
    code = main(["lint", "repro/no_such_dir"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "repro lint: no such lint target: repro/no_such_dir"
    ]


def test_cli_lint_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT = time.time()\n")
    code = main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "DT003" in out


def test_strict_baseline_fails_on_stale_entries(tmp_path, capsys):
    baseline = tmp_path / "base.txt"
    shutil.copy("analysis-baseline.txt", baseline)
    with open(baseline, "a", encoding="utf-8") as fh:
        fh.write("deadbeefcafe  RS001 a finding nobody produces anymore\n")
    code = main(
        ["analyze", "--workload", "merge", "--baseline", str(baseline),
         "--strict-baseline"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "stale" in err
    assert "deadbeefcafe" in err


def test_strict_baseline_passes_when_exact(capsys):
    code = main(
        ["analyze", "--workload", "merge", "--baseline",
         "analysis-baseline.txt", "--strict-baseline"]
    )
    assert code == 0


def test_cli_analyze_update_baseline_roundtrip(tmp_path, capsys):
    """--update-baseline regenerates the file when nothing new and of
    error severity appeared; warnings are accepted silently."""
    baseline = str(tmp_path / "base.txt")
    code = main(
        ["analyze", "--workload", "tsp", "--baseline", baseline,
         "--update-baseline"]
    )
    out = capsys.readouterr().out
    assert code == 0  # tsp's findings are warnings: accepted
    assert "updated" in out
    first = open(baseline).read()
    code = main(
        ["analyze", "--workload", "tsp", "--baseline", baseline,
         "--update-baseline"]
    )
    capsys.readouterr()
    assert code == 0
    assert open(baseline).read() == first


def test_cli_analyze_update_baseline_refuses_new_errors(tmp_path, capsys):
    """A new error-severity finding must never be silently baselined."""
    from repro.analysis.diagnostics import Diagnostic, Report, refresh_baseline

    baseline = tmp_path / "base.txt"
    baseline.write_text("# empty baseline\n")
    report = Report()
    report.extend(
        [
            Diagnostic(code="MC003", message="results diverged", source="mc(x)"),
            Diagnostic(code="DT004", message="a warning", source="repro-lint"),
        ]
    )
    report.finalize()
    blocking = refresh_baseline(str(baseline), report)
    assert [d.code for d in blocking] == ["MC003"]
    assert baseline.read_text() == "# empty baseline\n"  # untouched


def test_cli_analyze_update_baseline_needs_baseline_flag(capsys):
    assert main(["analyze", "--workload", "tasks", "--update-baseline"]) == 2


def test_cli_mc_explores_fixture_cleanly(capsys):
    code = main(["mc", "--fixture", "pipeline", "--skip-model",
                 "--no-chaos"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pipeline" in out
    assert "no findings" in out


def test_cli_mc_unknown_fixture_exits_two(capsys):
    assert main(["mc", "--fixture", "nope"]) == 2
