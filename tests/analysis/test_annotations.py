"""Annotation linter: the seeded-bug fixture and forged-edge detection."""

from repro.analysis.engine import analyze_workload
from repro.faults.injector import FaultInjector
from repro.faults.plan import AnnotationFaults, FaultPlan

from tests.analysis.fixtures.badworkloads import MisannotatedWorkload


def _findings(**kwargs):
    return analyze_workload(
        "misannotated",
        workload_factory=MisannotatedWorkload,
        passes=("annotations",),
        **kwargs,
    )


def _by_code(found, code):
    return [d for d in found if d.code == code]


def test_missing_edge_flagged_an001():
    an001 = _by_code(_findings(), "AN001")
    messages = " | ".join(d.message for d in an001)
    assert "sharer-a -> sharer-b" in messages
    # the symmetric overlap is deduped: only the canonical direction
    # (higher observed q, tie broken lexicographically) is reported
    assert "sharer-b -> sharer-a" not in messages


def test_spurious_edge_flagged_an002():
    an002 = _by_code(_findings(), "AN002")
    assert len(an002) == 1
    assert "loner-a -> loner-b" in an002[0].message
    assert "q=0.90" in an002[0].message


def test_mis_weighted_edge_flagged_an003():
    an003 = _by_code(_findings(), "AN003")
    assert len(an003) == 1
    assert "half-a -> half-b" in an003[0].message
    assert "q=1.00" in an003[0].message


def test_findings_anchor_at_workload_class():
    for diag in _findings():
        assert diag.anchor is not None
        assert diag.anchor.endswith("badworkloads.py:25")
        assert diag.source == "annotations(misannotated)"


def test_well_annotated_pairs_stay_silent():
    # the loner pair's regions really are disjoint, so apart from the
    # three seeded bugs nothing else may fire: no AN00x mentions loners
    # as a *sharing* pair, and no finding names a loner with a sharer
    for diag in _findings():
        if diag.code == "AN001":
            assert "loner" not in diag.message


def test_forged_edges_flagged_end_to_end():
    """PR 1's injector forges bogus at_share edges; the linter must see
    the edges the graph actually received and flag the fabrications."""
    injector = FaultInjector(
        FaultPlan(seed=7, annotation=AnnotationFaults(bogus_prob=1.0))
    )
    found = _findings(injector=injector)
    assert injector.bogus_edges > 0
    an002 = _by_code(found, "AN002")
    # the fixture itself plants exactly one spurious edge; every extra
    # AN002 is a forged edge caught end-to-end
    forged = [d for d in an002 if "loner-a -> loner-b" not in d.message]
    assert forged, "no forged edge was flagged"


def test_inference_corroboration_in_messages():
    """With the online estimator attached, AN001 messages note when the
    inference subsystem independently derived the missing edge."""
    found = _findings(with_inference=True)
    an001 = _by_code(found, "AN001")
    assert an001  # corroboration text is optional per-pair, code is not
    found_without = _findings(with_inference=False)
    assert {d.code for d in found_without} == {"AN001", "AN002", "AN003"}


def test_an001_symmetric_dedupe_emits_one_direction():
    findings = analyze_workload(
        "misannotated",
        workload_factory=MisannotatedWorkload,
        passes=("annotations",),
    )
    an001 = [d.message for d in findings if d.code == "AN001"]
    forward = [m for m in an001 if "sharer-a -> sharer-b" in m]
    backward = [m for m in an001 if "sharer-b -> sharer-a" in m]
    assert len(forward) == 1
    assert backward == []
