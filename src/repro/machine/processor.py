"""A simulated processor: cycle accounting plus counter updates.

A processor consumes the memory activity of whatever thread the runtime has
dispatched on it: batches of data-line touches, instruction-fetch batches,
and pure compute (instruction counts).  Every touch flows through the
processor's cache hierarchy; E-cache references and hits are accumulated in
the processor's performance counters exactly as the UltraSPARC PICs would
see them, and cycles are charged per Table 1 latencies.

The distinction between a 50-cycle local miss and an 80-cycle remote miss
(line cached by another processor, Enterprise 5000) is priced by the
machine-level directory, which the processor consults through the
remote probe installed by :class:`repro.machine.smp.Machine` (a machine
with no directory installs none, and every miss is local).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.machine.backend import HierarchyBackend
from repro.machine.cache import AccessResult
from repro.machine.configs import MachineConfig
from repro.machine.counters import CounterEvent, PerformanceCounters
from repro.machine.hierarchy import CacheHierarchy

#: Hook: given the missed lines, return how many were held by another cpu.
RemoteProbe = Callable[[List[int]], int]


class Processor:
    """One cpu of the simulated SMP."""

    def __init__(
        self,
        cpu_id: int,
        config: MachineConfig,
        hierarchy: Optional[HierarchyBackend] = None,
    ) -> None:
        self.cpu_id = cpu_id
        self.config = config
        #: the cache backend priced by this cpu (replay hierarchy by
        #: default; the Machine injects the analytic one on demand)
        self.hierarchy: HierarchyBackend = (
            hierarchy if hierarchy is not None else CacheHierarchy(config)
        )
        self.counters = PerformanceCounters()
        self.cycles = 0
        self.instructions = 0
        #: misses whose line another cpu cached (priced at the remote cost)
        self.remote_misses = 0
        self._remote_probe: Optional[RemoteProbe] = None

    def set_remote_probe(self, probe: RemoteProbe) -> None:
        """Install the directory callback that prices remote misses."""
        self._remote_probe = probe

    # -- execution interface ----------------------------------------------

    def compute(self, instructions: int) -> None:
        """Execute ``instructions`` cycles of non-memory work.

        Simulated at one instruction per cycle, the base rate of the
        single-issue accounting the paper's relative-performance numbers
        assume.
        """
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions += instructions
        self.cycles += instructions
        self.counters.record(CounterEvent.INSTRUCTIONS, instructions)
        self.counters.record(CounterEvent.CYCLES, instructions)

    def touch_data(self, plines, write: bool = False) -> AccessResult:
        """Touch physical data lines; returns the E-cache access result."""
        result = self.hierarchy.access_data(plines, write=write)
        self._account(result, data=True)
        return result

    def fetch_instructions(self, plines) -> AccessResult:
        """Fetch instruction lines (used when workloads model code regions)."""
        result = self.hierarchy.access_instructions(plines)
        self._account(result, data=False)
        return result

    def _account(self, result: AccessResult, data: bool) -> None:
        t = self.config.timings
        remote = 0
        if result.misses and self._remote_probe is not None:
            remote = self._remote_probe(result.installed)
        self.remote_misses += remote
        local = result.misses - remote
        cycles = (
            result.hits * t.l2_hit
            + local * t.l2_miss
            + remote * t.l2_miss_remote
        )
        # Each reference is also an instruction's memory stage; charge one
        # base cycle per reference so pure-touch threads make progress on
        # the simulated clock even with a 100% hit rate.
        cycles += result.refs
        self.instructions += result.refs
        self.cycles += cycles
        self.counters.record_access(
            result.refs, result.hits, result.misses, cycles
        )

    # -- convenience ------------------------------------------------------

    @property
    def l2(self):
        """This cpu's E-cache (the object the tracer watches)."""
        return self.hierarchy.l2

    def snapshot(self) -> dict:
        """Cycle/instruction/E-cache counters for reports."""
        stats = self.l2.stats.snapshot()
        stats.update(
            cpu=self.cpu_id,
            cycles=self.cycles,
            instructions=self.instructions,
            remote_misses=self.remote_misses,
        )
        return stats
