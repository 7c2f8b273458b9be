"""The locality-conscious scheduler (sections 4-5).

One :class:`LocalityScheduler` implements all of the paper's runtime
machinery; the policy (LFF vs CRT) is the injected priority scheme:

- a binary max-heap per processor, keyed by the scheme's priorities;
- threshold eviction: a popped thread whose expected footprint fell below
  ``threshold_lines`` is demoted to the single global FIFO queue, bounding
  heap sizes and "keeping the cost of elementary heap operations low";
- an idle processor "consults the global queue for threads to dispatch.
  If the queue is also empty, an idle processor steals a thread with the
  lowest priority from a neighbor to balance load";
- O(d) priority updates at context switches, delegated to the scheme, with
  the scheme's floating-point instruction count charged to the simulated
  clock;
- optionally, the scheduler's own data structures occupy simulated memory,
  so heap manipulation pollutes the cache the way it did on the real
  machine (this is what makes FCFS slightly *better* than the locality
  policies when the arrival order is already cache-optimal -- the photo
  1-cpu case).

An optional fairness escape hatch (section 7: "a practical scheduler must
provide an escape mechanism to bypass the default priority evaluation")
dispatches from the global FIFO every ``fairness_boost``-th pick.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.core.model import SharedStateModel
from repro.core.priorities import CRTScheme, LFFScheme, PriorityScheme
from repro.sched.base import Scheduler
from repro.sched.heap import PriorityHeap
from repro.threads.thread import ActiveThread, ThreadState

#: instruction cost of one FIFO queue operation
QUEUE_OP_COST = 5
#: fixed instruction cost of one heap push/pop, on top of depth
HEAP_OP_COST = 8
#: heap entries per cache line for the simulated-memory model
ENTRIES_PER_LINE = 2
#: an interval's miss reading above this multiple of the cache size is
#: implausible (even a pure-miss interval touching a region this many
#: times the cache would be pathological) and treated as a counter fault
MISS_CAP_FACTOR = 16
#: implausible readings tolerated before the scheduler stops trusting the
#: counters altogether and falls back to FCFS ordering
DEGRADE_AFTER = 3


class LocalityScheduler(Scheduler):
    """Per-cpu priority heaps + global queue + stealing, around a scheme."""

    def __init__(
        self,
        scheme_cls: Callable[..., PriorityScheme],
        threshold_lines: Optional[float] = None,
        model_scheduler_memory: bool = True,
        steal: bool = True,
        steal_max_footprint: Optional[float] = None,
        fairness_boost: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self._scheme_cls = scheme_cls
        #: None = 1/256 of the cache, resolved at attach time
        self.threshold_lines = threshold_lines
        self.model_scheduler_memory = model_scheduler_memory
        self.steal = steal
        #: None = 1/16 of the cache, resolved at attach time
        self.steal_max_footprint = steal_max_footprint
        self.fairness_boost = fairness_boost
        if name is not None:
            self.name = name
        self.runtime = None
        self.scheme: Optional[PriorityScheme] = None
        self.heaps: List[PriorityHeap] = []
        self._version_fns: List[Callable] = []
        self._global: Deque[Tuple[ActiveThread, int]] = deque()
        self._ready = 0
        self._picks = 0
        self._heap_regions = []
        self._entry_regions = []
        self._queue_region = None
        self._queue_pos = 0
        self.steals = 0
        self.demotions = 0
        self.compactions = 0
        #: implausible counter readings seen (negative or absurdly large)
        self.counter_anomalies = 0
        #: set once the counters are deemed untrustworthy: the scheduler
        #: then degrades gracefully to FCFS ordering via the global queue
        #: instead of acting on garbage priorities
        self.degraded = False
        self._miss_cap = None  # resolved at attach time

    def attach(self, runtime) -> None:
        # a proxy: the runtime owns the scheduler, and a strong back
        # reference would keep a finished run alive until a cyclic GC
        self.runtime = weakref.proxy(runtime)
        machine = runtime.machine
        num_cpus = machine.config.num_cpus
        model = SharedStateModel(machine.config.l2_lines)
        self.scheme = self._scheme_cls(model, runtime.graph, num_cpus)
        if self.steal_max_footprint is None:
            self.steal_max_footprint = machine.config.l2_lines / 16
        if self.threshold_lines is None:
            self.threshold_lines = max(1.0, machine.config.l2_lines / 256)
        self._miss_cap = MISS_CAP_FACTOR * machine.config.l2_lines
        self.heaps = [PriorityHeap() for _ in range(num_cpus)]
        # one validity closure per cpu, built once: _pop_heap runs per
        # context switch and must not allocate a fresh closure each time
        self._version_fns = [
            self._version_fn(cpu) for cpu in range(num_cpus)
        ]
        if self.model_scheduler_memory:
            space = machine.address_space
            # scheduler tables scale with the machine (they are sized for
            # the thread population a cache of this size can serve)
            self._heap_lines = max(16, machine.config.l2_lines // 16)
            self._entry_lines = max(16, machine.config.l2_lines // 16)
            queue_lines = max(8, machine.config.l2_lines // 128)
            self._heap_regions = [
                space.allocate_lines(f"sched-heap-cpu{i}", self._heap_lines)
                for i in range(num_cpus)
            ]
            self._queue_region = space.allocate_lines(
                "sched-global-queue", queue_lines
            )
            # the scheme's per-thread priority entries are memory too: one
            # line per two thread records, per cpu
            self._entry_regions = [
                space.allocate_lines(f"sched-entries-cpu{i}", self._entry_lines)
                for i in range(num_cpus)
            ]

    # -- simulated memory traffic of the scheduler itself --------------------

    def _touch_heap(self, heap_cpu: int, on_cpu: Optional[int] = None) -> None:
        """Touch the root-to-leaf path of ``heap_cpu``'s heap array, from
        the cache of the cpu doing the manipulation."""
        if not self.model_scheduler_memory:
            return
        if on_cpu is None:
            on_cpu = heap_cpu
        region = self._heap_regions[heap_cpu]
        pos = max(1, len(self.heaps[heap_cpu]))
        line_idxs = set()
        while pos >= 1:
            line_idxs.add((pos // ENTRIES_PER_LINE) % self._heap_lines)
            pos >>= 1
        lines = region.first_line + np.fromiter(
            sorted(line_idxs), dtype=np.int64, count=len(line_idxs)
        )
        self._kernel_touch(on_cpu, lines)

    def _touch_entries(self, cpu: int, tids, on_cpu: Optional[int] = None) -> None:
        """Touch the priority-entry records consulted or rewritten for
        ``tids`` in ``cpu``'s entry table."""
        if not self.model_scheduler_memory or not tids:
            return
        if on_cpu is None:
            on_cpu = cpu
        region = self._entry_regions[cpu]
        lines = region.first_line + (
            np.asarray(sorted(set(tids)), dtype=np.int64) // 2
        ) % self._entry_lines
        self._kernel_touch(on_cpu, np.unique(lines))

    def _touch_queue(self, cpu: int) -> None:
        """Touch the global queue's ring buffer slot."""
        if not self.model_scheduler_memory or cpu is None:
            return
        region = self._queue_region
        self._queue_pos = (self._queue_pos + 1) % region.num_lines
        lines = np.asarray([region.first_line + self._queue_pos], dtype=np.int64)
        self._kernel_touch(cpu, lines)

    def _kernel_touch(self, cpu: int, lines: np.ndarray) -> None:
        """Scheduler data-structure traffic runs in supervisor mode, so
        user-mode-only monitors (e.g. the CML device) can exclude it."""
        machine = self.runtime.machine
        machine.kernel_mode = True
        try:
            machine.touch(cpu, lines, write=True)
        finally:
            machine.kernel_mode = False

    # -- scheduler callbacks ---------------------------------------------------

    def _sanitize_misses(self, misses: int, suspect: bool = False) -> int:
        """Clamp an interval miss reading to the plausible range.

        The counters are hints: a reading outside [0, cap] (negative from
        a wrap glitch, enormous from saturation or a stuck register) must
        not be allowed to poison the footprint model or crash priority
        arithmetic.  Repeated anomalies flip the scheduler into degraded
        FCFS mode -- correctness is never at stake, only locality.

        ``suspect`` marks a reading the counter view *already* clamped
        (wrapped deltas, a physically impossible hits > refs pair from a
        stuck register, a mid-interval PCR reprogram).  Those arrive
        in-range -- typically as zero -- so the range check alone would
        never count them, and a register stuck in a glitched state could
        feed the scheduler garbage forever without ever tripping the
        degraded-FCFS fallback.  A clamped reading is an anomaly no
        matter which layer did the clamping: both paths now count toward
        ``counter_anomalies`` consistently.
        """
        if 0 <= misses <= self._miss_cap:
            if not suspect:
                return misses
        self.counter_anomalies += 1
        if self.counter_anomalies >= DEGRADE_AFTER:
            self.degraded = True
        return min(max(misses, 0), self._miss_cap)

    def _interval_suspect(self, cpu: int) -> bool:
        """Whether ``cpu``'s view flagged the just-ended interval."""
        runtime = self.runtime
        if runtime is None:
            return False
        view = runtime.counter_view(cpu)
        return view is not None and bool(view.last_overflow_suspect)

    def thread_ready(self, thread: ActiveThread) -> int:
        cost = QUEUE_OP_COST
        scheme = self.scheme
        placed = False
        cpu_hint = thread.last_cpu
        if self.degraded:
            # Counters are untrusted: skip priority placement entirely and
            # serve everyone from the global FIFO, FCFS-style.
            self._global.append((thread, thread.ready_seq))
            self._touch_queue(cpu_hint)
            self._ready += 1
            return cost
        for cpu in range(len(self.heaps)):
            entry = scheme.entry(cpu, thread.tid)
            if entry is None:
                continue
            self._touch_entries(cpu, [thread.tid], on_cpu=cpu_hint)
            footprint = scheme.current_footprint(cpu, thread.tid)
            cost += 2
            if footprint >= self.threshold_lines:
                cost += HEAP_OP_COST + self.heaps[cpu].push(
                    thread, entry.priority, entry.version
                )
                if cpu_hint is not None:
                    self._touch_heap(cpu, on_cpu=cpu_hint)
                placed = True
        if not placed:
            self._global.append((thread, thread.ready_seq))
            self._touch_queue(cpu_hint)
        self._ready += 1
        return cost

    def thread_dispatched(self, cpu: int, thread: ActiveThread) -> int:
        self.scheme.on_dispatch(cpu, thread.tid)
        return 0

    def thread_blocked(
        self, cpu: int, thread: ActiveThread, misses: int, finished: bool
    ) -> int:
        misses = self._sanitize_misses(
            misses, suspect=self._interval_suspect(cpu)
        )
        scheme = self.scheme
        flops_before = scheme.cost.blocking + scheme.cost.dependent
        scheme.on_block(cpu, thread.tid, misses)
        cost = (scheme.cost.blocking + scheme.cost.dependent) - flops_before
        updated = [thread.tid] + [
            dep for dep, _q in self.runtime.graph.dependents(thread.tid)
        ]
        self._touch_entries(cpu, updated)
        # Re-insert READY dependents whose priorities just changed so their
        # heap position reflects the new value (old entries go stale).
        for dep_tid, _q in self.runtime.graph.dependents(thread.tid):
            dep = self.runtime.threads.get(dep_tid)
            if dep is None or dep.state is not ThreadState.READY:
                continue
            entry = scheme.entry(cpu, dep_tid)
            if entry is None:
                continue
            if scheme.current_footprint(cpu, dep_tid) >= self.threshold_lines:
                cost += HEAP_OP_COST + self.heaps[cpu].push(
                    dep, entry.priority, entry.version
                )
            else:
                # The version bump above just invalidated any heap entry
                # the dependent had here; if it is not worth a heap slot it
                # must still be findable, so demote it to the global queue.
                self._global.append((dep, dep.ready_seq))
                cost += QUEUE_OP_COST
        if finished:
            scheme.forget(thread.tid)
        return cost

    def pick(self, cpu: int) -> Tuple[Optional[ActiveThread], int]:
        self._picks += 1
        cost = 0
        if self.degraded:
            # FCFS fallback: global queue first, then drain whatever is
            # left in the heaps from before degradation, then steal.
            thread, fifo_cost = self._pop_global(cpu)
            cost += fifo_cost
            if thread is not None:
                self._ready -= 1
                return thread, cost
        if (
            self.fairness_boost
            and self._picks % self.fairness_boost == 0
        ):
            thread, fifo_cost = self._pop_global(cpu)
            cost += fifo_cost
            if thread is not None:
                self._ready -= 1
                return thread, cost
        thread, heap_cost = self._pop_heap(cpu)
        cost += heap_cost
        if thread is not None:
            self._ready -= 1
            return thread, cost
        thread, fifo_cost = self._pop_global(cpu)
        cost += fifo_cost
        if thread is not None:
            self._ready -= 1
            return thread, cost
        if self.steal:
            thread, steal_cost = self._steal(cpu)
            cost += steal_cost
            if thread is not None:
                self._ready -= 1
                return thread, cost
        return None, cost

    def _version_fn(self, cpu: int):
        scheme = self.scheme
        def current_version(thread: ActiveThread):
            entry = scheme.entry(cpu, thread.tid)
            return None if entry is None else entry.version
        return current_version

    def _pop_heap(self, cpu: int) -> Tuple[Optional[ActiveThread], int]:
        cost = 0
        heap = self.heaps[cpu]
        version_fn = self._version_fns[cpu]
        # bound heap sizes (section 5): when dead entries dominate, compact
        if len(heap) > 4 * max(16, self._ready):
            cost += len(heap)
            heap.compact(version_fn)
            self.compactions += 1
        while True:
            entry, pops = heap.pop_valid(version_fn)
            cost += pops * HEAP_OP_COST
            if entry is None:
                return None, cost
            footprint = self.scheme.current_footprint(cpu, entry.thread.tid)
            cost += 2
            if footprint < self.threshold_lines:
                # Demote: not enough state left here to be worth affinity.
                self._global.append((entry.thread, entry.seq))
                self._touch_queue(cpu)
                self.demotions += 1
                cost += QUEUE_OP_COST
                continue
            self._touch_heap(cpu)
            return entry.thread, cost

    def _pop_global(self, cpu: int) -> Tuple[Optional[ActiveThread], int]:
        cost = 0
        while self._global:
            thread, seq = self._global.popleft()
            cost += QUEUE_OP_COST
            if thread.state is ThreadState.READY and thread.ready_seq == seq:
                self._touch_queue(cpu)
                return thread, cost
        return None, cost

    def _steal(self, cpu: int) -> Tuple[Optional[ActiveThread], int]:
        """Steal the lowest-priority thread from a neighbour's heap.

        Stealing the *lowest* priority does the least locality damage (the
        paper's rule); the footprint cap extends that logic: a thread with
        a large footprint on its home cpu is worth more waiting for than
        stealing, so an idle cpu leaves it and spins instead.
        """
        cost = 0
        num_cpus = len(self.heaps)
        for offset in range(1, num_cpus):
            victim = (cpu + offset) % num_cpus
            heap = self.heaps[victim]
            cost += max(1, len(heap))  # O(n) scan for the minimum
            entry = heap.min_valid(self._version_fns[victim])
            if entry is None:
                continue
            footprint = self.scheme.current_footprint(
                victim, entry.thread.tid
            )
            if footprint > self.steal_max_footprint:
                continue  # too much cached state to sacrifice
            self.steals += 1
            return entry.thread, cost
        return None, cost

    def has_runnable(self) -> bool:
        return self._ready > 0

    def idle_pick_cost(self, cpu: int) -> Optional[int]:
        """Closed-form failed-pick cost in idle quiescence.

        With no READY threads anywhere, the global queue empty, and this
        cpu's own heap fully drained (its previous failed pick popped any
        stale entries), :meth:`pick` provably touches nothing but
        ``_picks``: the fairness-boost and fallback ``_pop_global`` calls
        cost 0 on an empty deque, ``_pop_heap`` pops nothing from an
        empty heap (and cannot trigger compaction), and the steal scan
        reads the neighbours' heaps without popping, charging
        ``max(1, len(heap))`` per victim.  That scan cost is the value
        returned; heap lengths cannot change while no thread runs a
        scheduler callback, so the certificate stays valid for the whole
        parked span; the loop re-reads it whenever ``sched_epoch`` moves
        (see repro.sim.events).
        """
        if self._ready or self._global or len(self.heaps[cpu]):
            return None
        if not self.steal:
            return 0
        heaps = self.heaps
        num_cpus = len(heaps)
        cost = 0
        for offset in range(1, num_cpus):
            size = len(heaps[(cpu + offset) % num_cpus])
            cost += size if size > 1 else 1
        return cost

    def account_idle_picks(self, count: int) -> None:
        # the only bookkeeping a quiescent failed pick performs
        self._picks += count


def make_lff(**kwargs) -> LocalityScheduler:
    """Largest Footprint First scheduler (section 4.1)."""
    return LocalityScheduler(LFFScheme, name="lff", **kwargs)


def make_crt(**kwargs) -> LocalityScheduler:
    """Smallest cache-reload-ratio scheduler (section 4.2)."""
    return LocalityScheduler(CRTScheme, name="crt", **kwargs)
