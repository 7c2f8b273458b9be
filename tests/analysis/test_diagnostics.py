"""Diagnostic framework: codes, ordering, fingerprints, baselines."""

import pytest

from repro.analysis.diagnostics import (
    CODES,
    RETIRED,
    Diagnostic,
    Report,
    load_baseline,
    write_baseline,
)


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic(code="XX999", message="nope")


def test_retired_code_is_reserved_not_reusable():
    assert "DT007" in RETIRED
    assert not set(RETIRED) & set(CODES)
    with pytest.raises(ValueError, match="retired"):
        Diagnostic(code="DT007", message="nope")


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
