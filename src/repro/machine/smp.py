"""The simulated multiprocessor.

Ties together the per-cpu processors, one shared virtual memory, and a
coherence directory that knows which cpus cache which physical lines.  The
directory serves two purposes, both from section 5 of the paper:

- it prices Enterprise-5000 misses: 80 cycles "if the line is cached by
  another processor", 50 otherwise (and a flat 42 on the Ultra-1);
- it implements write invalidation, so that "data cached by one processor
  is modified by another" actually removes lines from remote caches.  The
  paper's *model* deliberately ignores invalidations (its counters cannot
  see them, section 3.4); the *simulated hardware* here still performs
  them, so the model faces the same unmodelled effects it faced on the
  real machine.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.machine.address import AddressSpace, as_lines
from repro.machine.backend import BACKEND_NAMES, resolve_backend
from repro.machine.cache import AccessResult
from repro.machine.configs import MachineConfig
from repro.machine.processor import Processor
from repro.machine.tlb import TLB
from repro.machine.vm import PlacementPolicy, VirtualMemory


class LineDirectory:
    """Which cpus currently cache each physical line.

    One holder bitmask per cached line (bit ``c`` set: cpu ``c`` holds
    it), in a plain dict: the directory is consulted a line at a time on
    every miss and every write, where an int test beats both a set per
    line and a numpy call per batch.  Lines no cpu holds have no entry.
    """

    def __init__(self, num_cpus: int) -> None:
        self.num_cpus = num_cpus
        self._masks: Dict[int, int] = {}

    def add(self, cpu_id: int, plines: List[int]) -> None:
        bit = 1 << cpu_id
        masks = self._masks
        get = masks.get
        for pline in plines:
            masks[pline] = get(pline, 0) | bit

    def remove(self, cpu_id: int, plines: List[int]) -> None:
        keep = ~(1 << cpu_id)
        masks = self._masks
        for pline in plines:
            mask = masks.get(pline)
            if mask is None:
                continue
            mask &= keep
            if mask:
                masks[pline] = mask
            else:
                del masks[pline]

    def holders(self, pline: int) -> Set[int]:
        """Cpus caching ``pline`` (possibly empty)."""
        mask = self._masks.get(pline, 0)
        return set(c for c in range(self.num_cpus) if mask >> c & 1)

    def held_by_other(self, pline: int, cpu_id: int) -> bool:
        """Whether any cpu other than ``cpu_id`` caches the line."""
        return bool(self._masks.get(pline, 0) & ~(1 << cpu_id))

    def count_remote(self, plines: List[int], cpu_id: int) -> int:
        """How many of ``plines`` some other cpu caches."""
        others = ~(1 << cpu_id)
        get = self._masks.get
        count = 0
        for pline in plines:
            if get(pline, 0) & others:
                count += 1
        return count

    def remote_copies(
        self, plines: List[int], cpu_id: int
    ) -> List[Tuple[int, List[int]]]:
        """The copies a write by ``cpu_id`` must invalidate: per other
        holder, in ascending cpu order, its lines in batch order."""
        others = ~(1 << cpu_id)
        get = self._masks.get
        remote = []
        for pline in plines:
            mask = get(pline, 0) & others
            if mask:
                remote.append((pline, mask))
        if not remote:
            return []
        copies = []
        for holder in range(self.num_cpus):
            bit = 1 << holder
            victims = [pline for pline, mask in remote if mask & bit]
            if victims:
                copies.append((holder, victims))
        return copies


class Machine:
    """An SMP: processors + shared VM + coherence directory.

    The runtime addresses the machine in *virtual* lines; translation and
    coherence happen here.  Each cpu keeps its own cycle clock; the runtime
    advances whichever cpu is furthest behind, giving a simple deterministic
    discrete-event interleaving.
    """

    def __init__(
        self,
        config: MachineConfig,
        placement: Optional[PlacementPolicy] = None,
        seed: int = 0,
        backend: str = "sim",
    ) -> None:
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown cache backend {backend!r}; expected one of "
                f"{BACKEND_NAMES}"
            )
        #: cache backend name: ``"sim"`` replays every reference through
        #: the per-cpu hierarchy behind the VM and coherence directory;
        #: ``"analytic"`` prices batches with the reuse-distance model on
        #: virtual lines, skipping translation, TLBs and coherence
        #: entirely (repro.machine.analytic)
        self.backend = backend
        self._analytic = backend == "analytic"
        self.config = config
        rng = np.random.default_rng(seed)
        self.address_space = AddressSpace(
            line_bytes=config.line_bytes, page_bytes=config.page_bytes
        )
        self.vm = VirtualMemory(
            cache_bytes=config.l2_bytes,
            page_bytes=config.page_bytes,
            line_bytes=config.line_bytes,
            policy=placement,
            rng=rng,
        )
        #: the coherence directory, or ``None`` where no remote copy can
        #: exist: a single cpu, or the analytic backend (which models
        #: neither remote misses nor invalidation; the paper's model
        #: ignores invalidations too, section 3.4)
        self.directory: Optional[LineDirectory] = (
            LineDirectory(config.num_cpus)
            if config.num_cpus > 1 and not self._analytic
            else None
        )
        #: set while the scheduler/runtime touches its own data structures;
        #: devices configured for user-mode-only monitoring (the PCR's
        #: user/supervisor selection, section 2.2) consult this
        self.kernel_mode = False
        self.tlbs: List[Optional[TLB]] = [
            TLB() if config.model_tlb else None
            for _ in range(config.num_cpus)
        ]
        hierarchy_factory = resolve_backend(backend)
        directory = self.directory
        self.cpus: List[Processor] = []
        for cpu_id in range(config.num_cpus):
            cpu = Processor(cpu_id, config, hierarchy=hierarchy_factory(config))
            if directory is not None:
                # the listeners bind the directory, not the machine, so a
                # finished run is freed by reference counting alone
                cpu.set_remote_probe(
                    partial(directory.count_remote, cpu_id=cpu_id)
                )
                cpu.l2.on_install(partial(directory.add, cpu_id))
                cpu.l2.on_evict(partial(directory.remove, cpu_id))
            self.cpus.append(cpu)

    # -- execution, in virtual lines --------------------------------------

    def touch(self, cpu_id: int, vlines, write: bool = False) -> AccessResult:
        """Touch virtual lines (a list or an array) on a cpu; performs
        coherence on writes."""
        cpu = self.cpus[cpu_id]
        if self._analytic:
            # the analytic backend prices batches in virtual-line space:
            # no TLB, no translation, no coherence -- that skipped work
            # is exactly where the sweep speedup comes from
            return cpu.touch_data(vlines, write=write)
        lines = as_lines(vlines)
        tlb = self.tlbs[cpu_id]
        if tlb is not None and lines:
            lpp = self.vm.lines_per_page
            tlb_misses = tlb.access(sorted({v // lpp for v in lines}))
            if tlb_misses:
                cpu.cycles += tlb_misses * tlb.miss_penalty
        plines = self.vm.translate_lines(lines)
        result = cpu.touch_data(plines, write=write)
        if write and self.directory is not None:
            self._invalidate_remote_copies(cpu_id, plines)
        return result

    def fetch(self, cpu_id: int, vlines) -> AccessResult:
        """Instruction-fetch virtual lines on a cpu."""
        if self._analytic:
            return self.cpus[cpu_id].fetch_instructions(vlines)
        plines = self.vm.translate_lines(vlines)
        return self.cpus[cpu_id].fetch_instructions(plines)

    def compute(self, cpu_id: int, instructions: int) -> None:
        """Run non-memory instructions on a cpu."""
        self.cpus[cpu_id].compute(instructions)

    def _invalidate_remote_copies(self, writer: int, plines: List[int]) -> None:
        for cpu_id, victims in self.directory.remote_copies(plines, writer):
            self.cpus[cpu_id].hierarchy.invalidate(victims)

    # -- clocks ------------------------------------------------------------

    def cycles(self, cpu_id: int) -> int:
        """Cycle clock of one cpu."""
        return self.cpus[cpu_id].cycles

    def time(self) -> int:
        """Machine completion time: the furthest-ahead cpu clock."""
        return max(cpu.cycles for cpu in self.cpus)

    def total_l2_misses(self) -> int:
        """Sum of E-cache misses over all cpus (the paper's headline metric)."""
        return sum(cpu.l2.stats.misses for cpu in self.cpus)

    def total_instructions(self) -> int:
        """Sum of instructions executed over all cpus."""
        return sum(cpu.instructions for cpu in self.cpus)

    def flush_all(self) -> None:
        """Flush every cpu's hierarchy (between workload phases)."""
        for cpu in self.cpus:
            cpu.hierarchy.flush()

    def snapshot(self) -> List[dict]:
        """Per-cpu counter snapshots for reports."""
        return [cpu.snapshot() for cpu in self.cpus]
