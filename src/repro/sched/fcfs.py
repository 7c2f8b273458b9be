"""First-come first-served: the paper's baseline policy (section 5).

One FIFO queue shared by all processors.  The policy ignores the
performance counters and the annotation graph entirely; its only cost is
queue manipulation.  On a multiprocessor this is exactly the
locality-oblivious behaviour the paper measures against: a rescheduled
thread lands on whichever processor asks next, regardless of where its
state is cached.

Like the locality scheduler, FCFS can model its queue as simulated memory
(one ring-buffer line per operation) so the comparison of scheduler cache
pollution is apples-to-apples: the paper attributes the locality policies'
small uniprocessor regression to their "substantially more complex data
structures" relative to this queue.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Deque, Optional, Tuple

from repro.sched.base import Scheduler
from repro.threads.thread import ActiveThread, ThreadState

#: instruction cost of one queue operation
QUEUE_OP_COST = 5


class FCFSScheduler(Scheduler):
    """A single global FIFO ready queue."""

    name = "fcfs"

    def __init__(self, model_scheduler_memory: bool = True) -> None:
        self._queue: Deque[Tuple[ActiveThread, int]] = deque()
        self._ready = 0
        self.model_scheduler_memory = model_scheduler_memory
        self.runtime = None
        self._queue_region = None
        self._queue_pos = 0

    def attach(self, runtime) -> None:
        # a proxy: the runtime owns the scheduler, and a strong back
        # reference would keep a finished run alive until a cyclic GC
        self.runtime = weakref.proxy(runtime)
        if self.model_scheduler_memory:
            self._queue_region = runtime.machine.address_space.allocate_lines(
                "fcfs-queue", 64
            )

    def _touch_queue(self, cpu: Optional[int]) -> None:
        if self._queue_region is None or cpu is None:
            return
        region = self._queue_region
        self._queue_pos = (self._queue_pos + 1) % region.num_lines
        machine = self.runtime.machine
        machine.kernel_mode = True
        try:
            machine.touch(
                cpu, [region.first_line + self._queue_pos], write=True
            )
        finally:
            machine.kernel_mode = False

    def thread_ready(self, thread: ActiveThread) -> int:
        self._queue.append((thread, thread.ready_seq))
        self._ready += 1
        self._touch_queue(thread.last_cpu)
        return QUEUE_OP_COST

    def thread_blocked(
        self, cpu: int, thread: ActiveThread, misses: int, finished: bool
    ) -> int:
        return 0  # FCFS keeps no per-thread scheduling state

    def pick(self, cpu: int) -> Tuple[Optional[ActiveThread], int]:
        cost = 0
        while self._queue:
            thread, seq = self._queue.popleft()
            cost += QUEUE_OP_COST
            if thread.state is ThreadState.READY and thread.ready_seq == seq:
                self._ready -= 1
                self._touch_queue(cpu)
                return thread, cost
        return None, cost

    def has_runnable(self) -> bool:
        return self._ready > 0

    def idle_pick_cost(self, cpu: int) -> Optional[int]:
        # A pick on an empty queue pops nothing and costs nothing; with
        # stale entries still queued a pick would drain (mutate) them, so
        # quiescence requires the queue itself to be empty.
        if self._queue or self._ready:
            return None
        return 0

    # account_idle_picks: the base no-op is exact -- a failed FCFS pick
    # keeps no bookkeeping (no pick counter, no queue traffic).
