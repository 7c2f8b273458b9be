"""``repro.analysis.mc``: the exhaustive schedule model checker.

A stateless-search bounded model checker with dynamic partial-order
reduction over the deterministic thread runtime, plus a symbolic
verification of the shared-state cache model:

- :mod:`.controller` -- turns every scheduler pick and forced-preemption
  point into a replayable decision, and records per-slice footprints;
- :mod:`.explorer`   -- DFS over the decision tree with DPOR + sleep
  sets, re-executing small fixture workloads until every non-equivalent
  interleaving has been seen;
- :mod:`.properties` -- per-run checkers for FIFO handoff, barrier
  generation safety, and the O(d) priority-update contract;
- :mod:`.fixtures`   -- the closed workloads that get explored;
- :mod:`.model_check` -- brute-forces the birth--death chain against the
  closed-form footprint formulas on all small caches.

Findings surface as ``MC001``--``MC005`` diagnostics through the shared
:mod:`repro.analysis.diagnostics` machinery; the entry point is ``repro
mc``.
"""

from repro.analysis.mc.controller import (
    ChoiceNode,
    ControlledScheduler,
    DecisionCursor,
    DepthExceeded,
    ExplorationError,
    PrunedRun,
    ScheduleController,
    SliceFootprint,
)
from repro.analysis.mc.explorer import (
    BUDGETS,
    FULL_BUDGET,
    SMALL_BUDGET,
    AnnotationChaos,
    ExplorationResult,
    MCBudget,
    explore,
    explore_all,
    explore_fixture,
)
from repro.analysis.mc.fixtures import BUGGY_FIXTURES, FIXTURES, MCFixture
from repro.analysis.mc.model_check import ModelCheckStats, verify_cache_model
from repro.analysis.mc.properties import (
    PriorityUpdateChecker,
    PropertyChecker,
    SyncOrderChecker,
    default_checkers,
)
from repro.analysis.mc.report import (
    format_explorations,
    format_mc_report,
    format_model_check,
)

__all__ = [
    "BUDGETS",
    "BUGGY_FIXTURES",
    "FIXTURES",
    "FULL_BUDGET",
    "SMALL_BUDGET",
    "AnnotationChaos",
    "ChoiceNode",
    "ControlledScheduler",
    "DecisionCursor",
    "DepthExceeded",
    "ExplorationError",
    "ExplorationResult",
    "MCBudget",
    "MCFixture",
    "ModelCheckStats",
    "PriorityUpdateChecker",
    "PropertyChecker",
    "PrunedRun",
    "ScheduleController",
    "SliceFootprint",
    "SyncOrderChecker",
    "default_checkers",
    "explore",
    "explore_all",
    "explore_fixture",
    "format_explorations",
    "format_mc_report",
    "format_model_check",
    "verify_cache_model",
]
