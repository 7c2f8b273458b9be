"""Observed per-thread footprints, maintained from cache install/evict
events.

A thread's *observed* footprint in a processor's cache is the number of
resident lines belonging to the thread's declared state (the projection of
its working set onto the cache -- Thiebaut & Stone's definition the paper
adopts).  The tracer:

- learns state membership from ``Runtime.declare_state`` (virtual lines),
- subscribes to every cpu's E-cache install/evict/invalidate stream
  (physical lines, translated back through the VM reverse map),
- keeps per-(cpu, thread) resident counts incrementally, so sampling is
  O(1) at any moment.

Lines shared by several threads count toward each of their footprints,
exactly as in the paper's shared-state setting.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.machine.smp import Machine
from repro.threads.runtime import Observer


class FootprintTracer(Observer):
    """Ground-truth footprint observation (measurement only)."""

    def __init__(self, machine: Machine) -> None:
        #: a proxy: the machine's caches hold this tracer's listeners, and
        #: a strong back reference would make the run a reference cycle
        self.machine = weakref.proxy(machine)
        self._vm = machine.vm
        # virtual line -> tids whose state contains it
        self._state: Dict[int, Tuple[int, ...]] = {}
        # per cpu: tid -> resident line count
        self._counts: List[Dict[int, int]] = [
            {} for _ in machine.cpus
        ]
        # per cpu: resident physical lines we have attributed (guards
        # against double counting when a line is re-installed)
        self._attributed: List[Set[int]] = [set() for _ in machine.cpus]
        for cpu_id, cpu in enumerate(machine.cpus):
            cpu.l2.on_install(self._make_listener(cpu_id, installed=True))
            cpu.l2.on_evict(self._make_listener(cpu_id, installed=False))

    # -- state declaration -----------------------------------------------------

    def on_state_declared(self, tid: int, vlines: np.ndarray) -> None:
        state = self._state
        for vline in vlines.tolist():
            existing = state.get(vline)
            if existing is None:
                state[vline] = (tid,)
            elif tid not in existing:
                state[vline] = existing + (tid,)

    # -- cache event plumbing -----------------------------------------------------

    def _make_listener(self, cpu_id: int, installed: bool):
        def listener(plines: np.ndarray) -> None:
            self._apply(cpu_id, plines, installed)

        return listener

    def _apply(self, cpu_id: int, plines: np.ndarray, installed: bool) -> None:
        counts = self._counts[cpu_id]
        attributed = self._attributed[cpu_id]
        reverse = self._vm.reverse_line
        state = self._state
        delta = 1 if installed else -1
        for pline in plines.tolist():
            if installed:
                if pline in attributed:
                    continue  # already counted (shouldn't normally happen)
            else:
                if pline not in attributed:
                    continue  # evicting a line we never attributed
            vline = reverse(pline)
            owners = state.get(vline) if vline is not None else None
            if installed:
                attributed.add(pline)
            else:
                attributed.discard(pline)
            if not owners:
                continue
            for tid in owners:
                counts[tid] = counts.get(tid, 0) + delta

    # -- queries ------------------------------------------------------------------

    def observed(self, cpu: int, tid: int) -> int:
        """Current observed footprint of ``tid`` in ``cpu``'s E-cache."""
        return self._counts[cpu].get(tid, 0)

    def observed_all(self, cpu: int) -> Dict[int, int]:
        """All non-zero observed footprints on one cpu."""
        return {tid: c for tid, c in self._counts[cpu].items() if c > 0}

    def check_consistency(self, cpu: int) -> bool:
        """Recompute footprints from the cache contents and compare with
        the incremental counts (used by the test suite)."""
        recount: Dict[int, int] = {}
        for pline in self.machine.cpus[cpu].l2.resident_lines().tolist():
            vline = self._vm.reverse_line(pline)
            for tid in self._state.get(vline, ()):
                recount[tid] = recount.get(tid, 0) + 1
        current = {t: c for t, c in self._counts[cpu].items() if c != 0}
        return recount == current
