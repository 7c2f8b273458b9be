"""Diagnostic framework: codes, ordering, fingerprints, baselines."""

import re

import pytest

from repro.analysis.diagnostics import (
    CODES,
    RETIRED,
    Diagnostic,
    Report,
    add_waiver,
    load_baseline,
    load_waivers,
    refresh_baseline,
    write_baseline,
)
from repro.cli import build_parser


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic(code="XX999", message="nope")


@pytest.mark.parametrize("code", ["DT007", "SA001", "SA002", "SA003"])
def test_retired_code_is_reserved_not_reusable(code):
    assert code in RETIRED
    assert not set(RETIRED) & set(CODES)
    with pytest.raises(ValueError, match="retired"):
        Diagnostic(code=code, message="nope")


def test_severity_and_title_come_from_registry():
    diag = Diagnostic(code="LK001", message="cycle")
    assert diag.severity == "error"
    assert diag.title == "lock-order-cycle"
    assert set(CODES["AN001"]) == {"warning", "missing-edge"}


def test_render_includes_anchor_code_and_source():
    diag = Diagnostic(
        code="DT001",
        message="default_rng() without a seed",
        anchor="repro/x.py:12",
        source="repro-lint",
    )
    text = diag.render()
    assert "repro/x.py:12" in text
    assert "DT001" in text
    assert "error" in text
    assert "[repro-lint]" in text


def test_fingerprint_is_stable_and_content_sensitive():
    a = Diagnostic(code="AN001", message="m", anchor="f:1", source="s")
    b = Diagnostic(code="AN001", message="m", anchor="f:1", source="s")
    c = Diagnostic(code="AN002", message="m", anchor="f:1", source="s")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 12


def test_report_orders_deterministically():
    diags = [
        Diagnostic(code="RS001", message="z", source="races(b)"),
        Diagnostic(code="AN001", message="a", source="annotations(a)"),
        Diagnostic(code="AN001", message="a", source="annotations(a)",
                   anchor="f:2"),
    ]
    report = Report(diagnostics=list(diags))
    report.finalize()
    rendered = report.render()
    assert rendered == Report(diagnostics=list(reversed(diags))).render()
    assert rendered.index("annotations(a)") < rendered.index("races(b)")


def test_baseline_roundtrip_suppresses(tmp_path):
    diag = Diagnostic(code="AN002", message="spurious", source="t")
    report = Report(diagnostics=[diag])
    path = tmp_path / "baseline.txt"
    write_baseline(str(path), report)
    accepted = load_baseline(str(path))
    assert diag.fingerprint() in accepted
    report.baseline = accepted
    assert report.new_diagnostics() == []
    assert "(baseline)" in report.render()
    fresh = Diagnostic(code="AN001", message="new", source="t")
    report.extend([fresh])
    assert report.new_diagnostics() == [fresh]


def test_missing_baseline_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.txt")) == set()


# -- waivers ------------------------------------------------------------------


def _report(*diags):
    report = Report()
    report.extend(diags)
    report.finalize()
    return report


def test_waiver_round_trip(tmp_path):
    baseline = str(tmp_path / "base.txt")
    diag = Diagnostic(code="RS001", message="benign race", source="races(x)")
    report = _report(diag)
    write_baseline(baseline, report, waivers={diag.fingerprint(): "by design"})
    assert load_waivers(baseline) == {diag.fingerprint(): "by design"}
    assert diag.fingerprint() in load_baseline(baseline)


def test_update_baseline_preserves_waivers(tmp_path):
    baseline = str(tmp_path / "base.txt")
    diag = Diagnostic(code="RS001", message="benign race", source="races(x)")
    write_baseline(
        baseline, _report(diag), waivers={diag.fingerprint(): "by design"}
    )
    # refresh with the same finding plus a new warning
    extra = Diagnostic(code="AN002", message="spurious", source="annotations(x)")
    blocking = refresh_baseline(baseline, _report(diag, extra))
    assert blocking == []
    assert load_waivers(baseline) == {diag.fingerprint(): "by design"}
    assert extra.fingerprint() in load_baseline(baseline)


def test_add_waiver_refuses_new_error_severity(tmp_path):
    baseline = tmp_path / "base.txt"
    baseline.write_text("# empty\n")
    error_diag = Diagnostic(code="LK001", message="cycle", source="locks(x)")
    report = _report(error_diag)
    message = add_waiver(
        str(baseline), report, error_diag.fingerprint(), "please ignore"
    )
    assert message is not None and "refusing" in message
    assert baseline.read_text() == "# empty\n"  # untouched


def test_add_waiver_unknown_fingerprint_rejected(tmp_path):
    baseline = tmp_path / "base.txt"
    baseline.write_text("# empty\n")
    message = add_waiver(str(baseline), _report(), "cafecafecafe", "reason")
    assert message is not None and "no current finding" in message


def test_checked_in_waivers_justify_every_rs001():
    """The shipped baseline documents why each merge race is accepted."""
    waivers = load_waivers("analysis-baseline.txt")
    accepted = load_baseline("analysis-baseline.txt")
    assert accepted, "baseline is empty"
    assert set(waivers) == accepted  # every remaining entry is waived
    assert all("by-design" in reason for reason in waivers.values())


def test_checked_in_baseline_header_names_a_working_command(tmp_path):
    """The shipped baseline's header is the one ``write_baseline`` emits,
    and the regenerate command it names parses: a renamed flag cannot
    leave the file telling readers to run a command that exits 2."""
    fresh = tmp_path / "fresh.txt"
    write_baseline(str(fresh), _report())
    header = fresh.read_text(encoding="utf-8").splitlines()
    with open("analysis-baseline.txt", encoding="utf-8") as fh:
        shipped = fh.read().splitlines()
    assert shipped[: len(header)] == header
    named = re.findall(r"`repro ([^`]+)`", "\n".join(header))
    assert len(named) == 1
    argv = named[0].replace("FILE", "analysis-baseline.txt").split()
    args = build_parser().parse_args(argv)
    assert args.command == "analyze"
