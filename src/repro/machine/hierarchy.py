"""Per-processor cache hierarchy (Table 1).

Each simulated processor owns a 16 KB L1 I-cache, a 16 KB L1 D-cache and a
unified external (E-) cache.  The E-cache "maintains inclusion for both
I-cache and D-cache" (Table 1), so an E-cache eviction invalidates the
corresponding L1 line.

The analytical model and all of the paper's measurements concern the
E-cache, so by default (``MachineConfig.model_l1 = False``) data touches go
straight to the E-cache at line granularity; enabling L1 modelling filters
E-cache references through the L1s, which only sharpens the reload-transient
picture without changing any qualitative result.

This class is the reference implementation of the
:class:`repro.machine.backend.HierarchyBackend` protocol (the ``sim``
backend); :class:`repro.machine.analytic.AnalyticHierarchy` is the
closed-form alternative selected with ``--backend analytic``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.machine.cache import AccessResult, DirectMappedCache, SetAssociativeCache
from repro.machine.configs import MachineConfig


class CacheHierarchy:
    """L1-I + L1-D + unified L2 with inclusion, for one processor."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        frame_lines = config.page_bytes // config.line_bytes
        if config.l2_ways > 1:
            self.l2 = SetAssociativeCache(
                config.l2_bytes, config.line_bytes, ways=config.l2_ways
            )
        else:
            self.l2 = DirectMappedCache(
                config.l2_bytes, config.line_bytes, frame_lines=frame_lines
            )
        self.l1d: Optional[DirectMappedCache] = None
        self.l1i: Optional[DirectMappedCache] = None
        if config.model_l1:
            self.l1d = DirectMappedCache(
                config.l1d_bytes, config.line_bytes, frame_lines=frame_lines
            )
            self.l1i = DirectMappedCache(
                config.l1i_bytes, config.line_bytes, frame_lines=frame_lines
            )
            # Inclusion: lines leaving the E-cache leave the L1s too.  The
            # listener binds the L1s, not the hierarchy, so the hierarchy
            # is not a reference cycle
            l1d, l1i = self.l1d, self.l1i

            def enforce_inclusion(plines: List[int]) -> None:
                l1d.invalidate(plines)
                l1i.invalidate(plines)

            self.l2.on_evict(enforce_inclusion)

    def access_data(self, plines, write: bool = False) -> AccessResult:
        """Run a data-touch batch through L1-D (if modelled) then the E-cache.

        Returns the *E-cache* access result; L1 activity is visible through
        ``self.l1d.stats``.
        """
        if self.l1d is not None:
            l1 = self.l1d.access(plines, write=write)
            plines = l1.miss_lines  # only L1 misses reach the E-cache
        return self.l2.access(plines, write=write)

    def access_instructions(self, plines) -> AccessResult:
        """Run an instruction-fetch batch through L1-I then the E-cache."""
        if self.l1i is not None:
            l1 = self.l1i.access(plines, write=False)
            plines = l1.miss_lines
        return self.l2.access(plines, write=False)

    def invalidate(self, plines) -> int:
        """Invalidate lines everywhere (coherence traffic from other cpus)."""
        count = self.l2.invalidate(plines)
        if self.l1d is not None:
            self.l1d.invalidate(plines)
        if self.l1i is not None:
            self.l1i.invalidate(plines)
        return count

    def flush(self) -> int:
        """Flush the whole hierarchy; returns E-cache lines evicted."""
        if self.l1d is not None:
            self.l1d.flush()
        if self.l1i is not None:
            self.l1i.flush()
        return self.l2.flush()
