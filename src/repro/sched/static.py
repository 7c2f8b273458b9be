"""Static initial mapping with dynamic load balancing (related work [15]).

The paper's related-work section cites Markatos & LeBlanc's
"memory-conscious scheduling policy [which] suggests a combination of a
static initial mapping for locality with dynamic load balancing to
improve performance of fine-grained threads".  This scheduler implements
that alternative so the counter/annotation approach can be compared
against it:

- each thread is assigned a *home* processor round-robin at creation and
  always re-queues there (the static mapping -- threads keep returning to
  the same cache without any model);
- an idle processor with an empty home queue takes work from the longest
  other queue (the dynamic load balancing).

No counters, no annotations, no footprint model: everything it knows is
the creation order.  Where it wins (tasks-like stable thread pools) it
shows how much of LFF's benefit is plain stickiness; where it loses
(sharing-structured workloads, uneven thread lifetimes) it shows what the
model and annotations add.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.sched.base import Scheduler
from repro.threads.thread import ActiveThread, ThreadState

#: instruction cost of one queue operation
QUEUE_OP_COST = 5


class StaticScheduler(Scheduler):
    """Round-robin home assignment + per-cpu FIFOs + longest-queue balance."""

    name = "static"

    def __init__(self, rebalance: bool = True) -> None:
        self.rebalance = rebalance
        self.runtime = None
        self._queues: List[Deque[Tuple[ActiveThread, int]]] = []
        self._home = {}
        self._next_home = 0
        self._ready = 0
        self.migrations = 0

    def attach(self, runtime) -> None:
        # a proxy: the runtime owns the scheduler, and a strong back
        # reference would keep a finished run alive until a cyclic GC
        self.runtime = weakref.proxy(runtime)
        num_cpus = runtime.machine.config.num_cpus
        self._queues = [deque() for _ in range(num_cpus)]

    def thread_created(self, thread: ActiveThread) -> int:
        self._home[thread.tid] = self._next_home
        self._next_home = (self._next_home + 1) % len(self._queues)
        return 0

    def thread_ready(self, thread: ActiveThread) -> int:
        home = self._home.get(thread.tid, 0)
        self._queues[home].append((thread, thread.ready_seq))
        self._ready += 1
        return QUEUE_OP_COST

    def thread_blocked(
        self, cpu: int, thread: ActiveThread, misses: int, finished: bool
    ) -> int:
        if finished:
            self._home.pop(thread.tid, None)
        return 0

    def pick(self, cpu: int) -> Tuple[Optional[ActiveThread], int]:
        cost = 0
        thread, pop_cost = self._pop(self._queues[cpu])
        cost += pop_cost
        if thread is not None:
            self._ready -= 1
            return thread, cost
        if self.rebalance:
            victim = max(
                range(len(self._queues)), key=lambda i: len(self._queues[i])
            )
            cost += len(self._queues)  # the balance scan
            if victim != cpu:
                thread, pop_cost = self._pop(self._queues[victim])
                cost += pop_cost
                if thread is not None:
                    # the thread moves home: stickiness follows the balance
                    self._home[thread.tid] = cpu
                    self.migrations += 1
                    self._ready -= 1
                    return thread, cost
        return None, cost

    def _pop(self, queue) -> Tuple[Optional[ActiveThread], int]:
        cost = 0
        while queue:
            thread, seq = queue.popleft()
            cost += QUEUE_OP_COST
            if thread.state is ThreadState.READY and thread.ready_seq == seq:
                return thread, cost
        return None, cost

    def has_runnable(self) -> bool:
        return self._ready > 0
