"""The cache-hierarchy backend protocol and registry.

The simulator originally had exactly one way to answer "what does this
touch batch cost": replay it through the per-processor
:class:`~repro.machine.hierarchy.CacheHierarchy`.  This module extracts
the interface that replay satisfied into an explicit protocol so a
second, *analytical* implementation (:mod:`repro.machine.analytic`) can
stand in for it -- per experiment and per bench run, selected as
``--backend analytic|sim`` (default ``sim``).

A backend is the per-cpu object :class:`~repro.machine.processor.Processor`
drives.  It must:

- price data-touch and instruction-fetch batches as
  :class:`~repro.machine.cache.AccessResult` values (refs/hits/misses are
  what feed the performance counters and the cycle accounting);
- expose an ``l2`` attribute carrying cumulative
  :class:`~repro.machine.cache.CacheStats` (reports and the tracer read
  it);
- support ``invalidate`` (coherence traffic) and ``flush`` (between
  workload phases).

The simulated backend operates on *physical* lines behind the VM; the
analytic backend skips translation and works on virtual lines directly
-- the :class:`~repro.machine.smp.Machine` routes accordingly.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.machine.cache import AccessResult
from repro.machine.configs import MachineConfig

try:  # Protocol is 3.8+; keep the import explicit for mypy
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - very old pythons only
    from typing_extensions import Protocol, runtime_checkable  # type: ignore

#: the selectable cache backends (CLI: ``--backend``)
BACKEND_NAMES: Tuple[str, ...] = ("sim", "analytic")

#: the default backend: faithful per-reference simulation
DEFAULT_BACKEND = "sim"


@runtime_checkable
class HierarchyBackend(Protocol):
    """The per-processor cache backend a :class:`Processor` drives.

    Extracted from the concrete :class:`CacheHierarchy` interface; both
    the replay hierarchy and the analytic fast path satisfy it.
    """

    config: MachineConfig

    def access_data(
        self, plines: np.ndarray, write: bool = False
    ) -> AccessResult:
        """Price a data-touch batch; returns the E-cache-level result."""

    def access_instructions(self, plines: np.ndarray) -> AccessResult:
        """Price an instruction-fetch batch."""

    def invalidate(self, plines: np.ndarray) -> int:
        """Remove lines (coherence traffic); returns lines invalidated."""

    def flush(self) -> int:
        """Empty the hierarchy; returns E-cache lines evicted."""


#: factory type: config -> per-cpu backend instance
BackendFactory = Callable[[MachineConfig], HierarchyBackend]


def resolve_backend(name: str) -> BackendFactory:
    """Map a backend name to its per-cpu factory.

    Imports are deferred so ``repro.machine.hierarchy`` and
    ``repro.machine.analytic`` stay import-independent of each other.
    """
    if name == "sim":
        from repro.machine.hierarchy import CacheHierarchy

        return CacheHierarchy
    if name == "analytic":
        from repro.machine.analytic import AnalyticHierarchy

        return AnalyticHierarchy
    raise ValueError(
        f"unknown cache backend {name!r}; expected one of {BACKEND_NAMES}"
    )
