"""The diagnostic vocabulary shared by every analysis pass.

A :class:`Diagnostic` is one finding: a stable code (``AN001``), a
severity, an optional ``file:line`` anchor, and a human-readable message.
Diagnostics order and render deterministically -- two runs of the same
analysis over the same inputs produce byte-identical reports, which is
what lets CI diff a report against a checked-in baseline.

Codes are append-only: a code's meaning never changes once shipped, so
baselines and suppressions stay valid across versions.  The registry:

======  ========  ======================================================
code    severity  meaning
======  ========  ======================================================
AN001   warning   missing-edge: threads demonstrably share state but no
                  ``at_share`` edge (or annotated path) covers the pair
AN002   warning   spurious-edge: an annotated pair shares (almost) no
                  state in the observed run
AN003   warning   mis-weighted-edge: annotated q is off by > 0.25 from
                  the footprint-derived coefficient
LK001   error     lock-order-cycle: the (static or dynamic) lock-order
                  graph contains a cycle -- a potential deadlock
LK002   warning   blocking-while-holding: a thread performed a blocking
                  operation while holding a mutex
LK003   error     finished-holding-lock: a thread ended its body still
                  owning a mutex
RS001   warning   unsynchronized-sharing: conflicting accesses to the
                  same cache line with no happens-before ordering
DT001   error     unseeded-rng: ``default_rng()`` with no seed
DT002   warning   hidden-seed: ``default_rng(<literal>)`` buried in an
                  implementation instead of a plumbed parameter
DT003   error     wall-clock: reading host time inside the simulation
DT004   warning   unordered-iteration: iterating a set (or set-valued
                  name) where order can leak into results
DT005   warning   id-keyed-dict-iteration: iterating a dict keyed by
                  ``id(...)`` -- insertion order follows memory layout,
                  which is not stable across runs
DT006   error     unaudited-timer: a raw wall-clock read inside a
                  subsystem with an audited clock (``repro/bench``)
                  outside that clock module -- timing must flow
                  through the subsystem's one audited reader
DT007   retired   registration-order-iteration: scoped to the removed
                  cluster dispatch layer; reserved, never reused
MC001   error     unpredicted-deadlock: the model checker reached a
                  deadlock that the lock-order pass does not predict
MC002   error     sync-order-violation: non-FIFO mutex/semaphore handoff
                  or a barrier generation-safety breach in some explored
                  interleaving
MC003   error     result-divergence: two explored interleavings produced
                  different final workload results (the "hints never
                  affect correctness" theorem is violated)
MC004   error     priority-update-violation: an LFF context switch
                  touched a thread that is neither the blocker nor one
                  of its d graph-successors, or touched more than 1+d
                  entries
MC005   error     cache-model-violation: the closed-form footprint
                  formulas disagree with the brute-forced birth-death
                  chain, or a case-3 reduction / monotonicity law fails
SA001   retired   static-unannotated-sharing: scoped to the removed
                  static sharing inference; reserved, never reused
SA002   retired   static-unreachable-annotation: scoped to the removed
                  static sharing inference; reserved, never reused
SA003   retired   static-dynamic-disagreement: scoped to the removed
                  static sharing inference; reserved, never reused
======  ========  ======================================================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: code -> (severity, short title); append-only
CODES: Dict[str, Tuple[str, str]] = {
    "DT000": ("error", "parse-error"),
    "AN001": ("warning", "missing-edge"),
    "AN002": ("warning", "spurious-edge"),
    "AN003": ("warning", "mis-weighted-edge"),
    "LK001": ("error", "lock-order-cycle"),
    "LK002": ("warning", "blocking-while-holding"),
    "LK003": ("error", "finished-holding-lock"),
    "RS001": ("warning", "unsynchronized-sharing"),
    "DT001": ("error", "unseeded-rng"),
    "DT002": ("warning", "hidden-seed"),
    "DT003": ("error", "wall-clock"),
    "DT004": ("warning", "unordered-iteration"),
    "DT005": ("warning", "id-keyed-dict-iteration"),
    "DT006": ("error", "unaudited-timer"),
    "MC001": ("error", "unpredicted-deadlock"),
    "MC002": ("error", "sync-order-violation"),
    "MC003": ("error", "result-divergence"),
    "MC004": ("error", "priority-update-violation"),
    "MC005": ("error", "cache-model-violation"),
}

#: retired code -> short title: never emitted again, and never reassigned
#: (a stale baseline entry must not take on a new meaning)
RETIRED: Dict[str, str] = {
    "DT007": "registration-order-iteration",
    "SA001": "static-unannotated-sharing",
    "SA002": "static-unreachable-annotation",
    "SA003": "static-dynamic-disagreement",
}


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding, ordered and fingerprinted deterministically."""

    code: str
    message: str
    #: ``path:line`` anchor (repo-relative path), or None for findings
    #: about run behaviour with no single source location
    anchor: Optional[str] = None
    #: which pass/workload produced it, e.g. ``annotations(merge)``
    source: str = ""

    def __post_init__(self) -> None:
        if self.code in RETIRED:
            raise ValueError(f"retired diagnostic code {self.code!r}")
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> str:
        return CODES[self.code][0]

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    @property
    def sort_key(self) -> tuple:
        return (self.source, self.code, self.anchor or "", self.message)

    def fingerprint(self) -> str:
        """Stable identity for baselining: survives unrelated findings
        appearing or disappearing around this one."""
        payload = f"{self.code}|{self.source}|{self.anchor or ''}|{self.message}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def render(self) -> str:
        anchor = f"{self.anchor}: " if self.anchor else ""
        src = f" [{self.source}]" if self.source else ""
        return (
            f"{anchor}{self.severity} {self.code} ({self.title}): "
            f"{self.message}{src}"
        )


@dataclass
class Report:
    """An ordered collection of diagnostics plus baseline bookkeeping."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: fingerprints accepted by the checked-in baseline
    baseline: Set[str] = field(default_factory=set)

    def extend(self, found: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(found)

    def finalize(self) -> None:
        """Sort into the canonical deterministic order."""
        self.diagnostics.sort(key=lambda d: d.sort_key)

    def new_diagnostics(self) -> List[Diagnostic]:
        """Findings not covered by the baseline."""
        return [
            d for d in self.diagnostics if d.fingerprint() not in self.baseline
        ]

    def stale_fingerprints(self) -> List[str]:
        """Baseline entries the current run no longer produces.

        A stale entry means the underlying bug was fixed but the baseline
        still accepts it -- the drift ``repro analyze --strict-baseline``
        exists to catch (the CI job keeps the checked-in file exact).
        """
        produced = {d.fingerprint() for d in self.diagnostics}
        return sorted(fp for fp in self.baseline if fp not in produced)

    def render(self) -> str:
        """The byte-stable report text."""
        self.finalize()
        lines: List[str] = []
        fresh = 0
        for diag in self.diagnostics:
            suppressed = diag.fingerprint() in self.baseline
            marker = "  (baseline)" if suppressed else ""
            if not suppressed:
                fresh += 1
            lines.append(f"{diag.fingerprint()}  {diag.render()}{marker}")
        lines.append(
            f"-- {len(self.diagnostics)} finding(s), {fresh} new, "
            f"{len(self.diagnostics) - fresh} baselined"
        )
        return "\n".join(lines)


#: marker introducing a structured waiver on a baseline line
WAIVE_MARKER = "# waive:"


def write_baseline(
    path: str, report: Report, waivers: Optional[Dict[str, str]] = None
) -> None:
    """Persist every current finding as accepted.

    ``waivers`` maps fingerprints to justifications; a waived finding's
    line carries the reason as a structured ``# waive: <reason>`` suffix
    so an accepted finding is distinguishable from a merely-unsorted one.
    """
    report.finalize()
    waivers = waivers or {}
    lines = [
        "# repro analyze baseline: accepted diagnostic fingerprints.",
        "# Regenerate with `repro analyze --all-workloads --write-baseline`.",
        "# A `# waive: <reason>` suffix records why a finding is accepted",
        "# as permanently unfixable (preserved by --update-baseline).",
    ]
    for diag in report.diagnostics:
        fp = diag.fingerprint()
        line = f"{fp}  {diag.code} {diag.message}"
        if fp in waivers:
            line += f"  {WAIVE_MARKER} {waivers[fp]}"
        lines.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def refresh_baseline(path: str, report: Report) -> List[Diagnostic]:
    """Regenerate the baseline at ``path`` from ``report`` -- unless the
    report contains *new* error-severity findings.

    Baselining a warning is a judgement call; baselining an error is how
    real bugs get buried, so the refresh refuses and returns the blocking
    errors instead of writing anything.  An empty return value means the
    baseline file was rewritten.  Waivers attached to still-present
    findings are preserved; waivers of findings the run no longer
    produces drop out with their entries.
    """
    report.baseline = load_baseline(path)
    blocking = [
        d for d in report.new_diagnostics() if d.severity == "error"
    ]
    if blocking:
        return blocking
    write_baseline(path, report, waivers=load_waivers(path))
    return []


def add_waiver(
    path: str, report: Report, fingerprint: str, reason: str
) -> Optional[str]:
    """Record a justification for one accepted finding.

    Returns an error string (and writes nothing) when the fingerprint
    does not match a current finding, or when it is an error-severity
    finding that the baseline has not already accepted -- waiving is for
    documented-unfixable warnings, not for burying new errors.
    """
    report.baseline = load_baseline(path)
    by_fp = {d.fingerprint(): d for d in report.diagnostics}
    diag = by_fp.get(fingerprint)
    if diag is None:
        return f"no current finding has fingerprint {fingerprint}"
    if diag.severity == "error" and fingerprint not in report.baseline:
        return (
            f"refusing to waive new error-severity finding {fingerprint} "
            f"({diag.code}); fix it instead"
        )
    waivers = load_waivers(path)
    waivers[fingerprint] = reason
    write_baseline(path, report, waivers=waivers)
    return None


def load_baseline(path: str) -> Set[str]:
    """Accepted fingerprints (first token of each non-comment line)."""
    accepted: Set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                accepted.add(line.split()[0])
    except FileNotFoundError:
        pass
    return accepted


def load_waivers(path: str) -> Dict[str, str]:
    """Fingerprint -> waive reason, from the structured baseline suffixes."""
    waivers: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                marker = line.find(WAIVE_MARKER)
                if marker >= 0:
                    reason = line[marker + len(WAIVE_MARKER):].strip()
                    waivers[line.split()[0]] = reason
    except FileNotFoundError:
        pass
    return waivers
