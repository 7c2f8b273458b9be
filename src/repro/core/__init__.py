"""The paper's primary contribution: the shared-state cache model and the
locality priority schemes built on it.

- :mod:`repro.core.model` -- closed-form expected footprints (section 2.4).
- :mod:`repro.core.markov` -- the Appendix's Markov-chain derivation for
  dependent threads, kept as an executable cross-check of the closed form.
- :mod:`repro.core.sharing` -- the state dependency graph G built by
  ``at_share`` annotations (section 2.3).
- :mod:`repro.core.priorities` -- the LFF and CRT log-space priority
  schemes with precomputed tables and FP-operation accounting (sections
  4.1-4.2, Table 3); their lazily decayed entries are the on-line E[F]
  bookkeeping, O(d) per switch (section 4).
"""

from repro.core.assoc import AssocTables, AssociativeStateModel
from repro.core.markov import (
    dependent_transition_matrix,
    expected_footprint_markov,
    stationary_distribution,
)
from repro.core.model import SharedStateModel
from repro.core.priorities import (
    CRTScheme,
    LFFScheme,
    PriorityEntry,
    PriorityScheme,
    PrecomputedTables,
    UpdateCost,
)
from repro.core.sharing import SharingGraph

__all__ = [
    "AssocTables",
    "AssociativeStateModel",
    "CRTScheme",
    "LFFScheme",
    "PrecomputedTables",
    "PriorityEntry",
    "PriorityScheme",
    "SharedStateModel",
    "SharingGraph",
    "UpdateCost",
    "dependent_transition_matrix",
    "expected_footprint_markov",
    "stationary_distribution",
]
