"""The scheduling loop: the event queue and the engine that drives it.

- :class:`EventKind` / :class:`Event` / :class:`EventQueue` -- a
  deterministic heap-ordered event queue.  Sleep timers, periodic
  realtime wakeups, scheduler ticks and quantum expiries all live here;
  ties are broken by ``(time, seq, tid)`` where ``seq`` is the
  queue-assigned schedule order, so replay is exact and pop order is a
  pure function of the schedule calls, never of heap insertion layout.
- :class:`EventEngine` -- the runtime's only scheduling loop
  (:meth:`repro.threads.runtime.Runtime.run` delegates to it).  Each
  iteration the cpu with the smallest clock acts: it fires the events
  due at its clock, then steps its thread, or picks one, or jumps its
  idle clock.  A cpu with nothing to run would spend one failed
  ``scheduler.pick()`` (stale-entry drains, steal scans) per busy-thread
  event just to move its clock, which is O(cpus^2) Python work per event
  on sparse workloads.  So an idle cpu is *parked* instead, and every
  failed-pick iteration it would have executed is replayed as O(1)
  arithmetic (a "virtual step").  ``Runtime(engine="stepped")`` turns
  parking off: the never-park reference mode.

Bit-identical parity
--------------------

Parking changes no counter.  A parked cpu's virtual step reproduces
exactly what its faithful iteration would have done, which is possible
because a failed ``pick()`` in the *idle-quiescent* state (no READY
threads, the picking cpu's own structures drained) provably mutates
nothing but the scheduler's pick counter and charges a cost that is a
closed-form function of queue/heap lengths -- the contract exposed by
:meth:`repro.sched.base.Scheduler.idle_pick_cost`.  Per virtual step the
engine advances the parked cpu's clock by the same
``max(clock + cost + 1, Runtime._idle_target())`` rule as
``Runtime._idle`` after ``Runtime._charge``, defers the (associative,
modulo-wrap) instruction-counter records, and counts the pick.  Deferred
state is flushed before anything that could observe it: any real pick,
any exception (including the watchdog's
:class:`~repro.threads.errors.StepBudgetExceeded`), and loop exit.  The
moment any exactness precondition fails -- a thread becomes runnable, an
event comes due at or before a parked clock, the scheduler is not
quiescent -- the engine unparks every cpu and falls back to faithful
iterations, so unknown schedulers and the model checker's controlled
runs degrade to the never-park loop, never to wrong answers.

Every simulated counter -- per-cpu cycles and instruction counters, miss
counts, footprints, context switches, scheduler pick/steal/heap
statistics, watchdog checkpoints -- is therefore bit-identical with
parking on and off, and every iteration of the never-park loop is either
a faithful or a virtual step with parking on; the CI ``engine-parity``
job proves both over every policy x workload fixture cell (see
``tests/sim/test_engine_parity.py`` and docs/MODEL.md).
"""

from __future__ import annotations

import heapq
import weakref
from enum import IntEnum
from typing import (
    TYPE_CHECKING,
    Any,
    List,
    Optional,
    Tuple,
)

from repro.machine.counters import CounterEvent
from repro.threads import events as ev
from repro.threads.errors import StepBudgetExceeded
from repro.threads.thread import ThreadState

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.threads.runtime import Runtime


class EventKind(IntEnum):
    """Taxonomy of queued simulation events (docs/MODEL.md).

    ========================  ==============================================
    ``THREAD_WAKEUP``         a ``Sleep`` timer expires; the sleeping
                              thread is woken
    ``THREAD_BLOCK``          audit marker emitted when a thread blocks;
                              blocks are synchronous in this simulator, so
                              the kind is recorded to the event log, never
                              scheduled into the future
    ``QUANTUM_EXPIRE``        time-slice preemption deadline armed at
                              dispatch when ``Runtime(quantum=N)``; fires a
                              synthetic ``Yield`` if the same dispatch is
                              still running
    ``SCHED_TICK``            periodic callback into the runtime
                              (:meth:`Runtime.schedule_tick`)
    ``RT_PERIOD_START``       periodic early wakeup of a realtime/server
                              thread (:meth:`Runtime.at_periodic`); bumps
                              the thread's ``ready_seq`` so its pending
                              ``THREAD_WAKEUP`` is lazily invalidated
    ========================  ==============================================
    """

    THREAD_WAKEUP = 0
    THREAD_BLOCK = 1
    QUANTUM_EXPIRE = 2
    SCHED_TICK = 3
    RT_PERIOD_START = 4


class Event:
    """One queued event, ordered by ``(time, seq, tid)``.

    ``seq`` is assigned by the queue in schedule order and is unique, so
    the triple is a total order: two events never compare equal and the
    heap's pop order is independent of push interleaving (the property
    pinned by the hypothesis test in ``tests/sim/test_events.py``).
    """

    __slots__ = ("time", "seq", "tid", "kind", "data", "cancelled")

    def __init__(
        self, time: int, seq: int, tid: int, kind: EventKind, data: Any
    ) -> None:
        self.time = time
        self.seq = seq
        self.tid = tid
        self.kind = kind
        self.data = data
        self.cancelled = False

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.time, self.seq, self.tid)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.seq != other.seq:
            return self.seq < other.seq
        return self.tid < other.tid

    def __repr__(self) -> str:
        return (
            f"Event(t={self.time}, seq={self.seq}, tid={self.tid}, "
            f"kind={self.kind.name})"
        )


class EventQueue:
    """Deterministic min-heap of :class:`Event`, with audited operations.

    ``heap`` is the underlying list; it is mutated in place and never
    rebound, so hot loops may keep a direct reference for emptiness and
    ``heap[0].time`` peeks.  ``pushes``/``pops`` are audited totals used
    by the O(events) complexity tests and benchmarks.
    """

    def __init__(self) -> None:
        self.heap: List[Event] = []
        self.pushes = 0
        self.pops = 0
        self._seq = 0
        #: optional bounded audit log of fired/emitted events, enabled by
        #: :meth:`enable_log` (traces and tests reconstruct timelines
        #: from it; ``None`` keeps the hot path free of log checks)
        self.log: Optional[List[Event]] = None
        self._log_limit = 0

    def enable_log(self, limit: int = 4096) -> None:
        """Keep the first ``limit`` fired/emitted events in :attr:`log`."""
        if self.log is None:
            self.log = []
        self._log_limit = limit

    def emit(self, time: int, kind: EventKind, tid: int) -> Event:
        """Record an event that already happened (e.g. THREAD_BLOCK).

        Emitted events carry queue-assigned sequence numbers but never
        enter the heap -- they are log entries, not scheduled work.
        """
        self._seq += 1
        event = Event(time, self._seq, tid, kind, None)
        self._log(event)
        return event

    def _log(self, event: Event) -> None:
        log = self.log
        if log is not None and len(log) < self._log_limit:
            log.append(event)

    def __len__(self) -> int:
        return len(self.heap)

    def schedule(
        self, time: int, kind: EventKind, tid: int, data: Any = None
    ) -> Event:
        """Schedule an event; returns it (keep it to :meth:`cancel`)."""
        self._seq += 1
        event = Event(time, self._seq, tid, kind, data)
        heapq.heappush(self.heap, event)
        self.pushes += 1
        return event

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled event (skipped when popped)."""
        event.cancelled = True

    def peek(self) -> Optional[Event]:
        """The next live event without popping it."""
        heap = self.heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self.pops += 1
        return heap[0] if heap else None

    def next_time(self) -> Optional[int]:
        """Simulated time of the next live event, if any."""
        event = self.peek()
        return None if event is None else event.time

    def pop(self) -> Optional[Event]:
        """Pop the next live event (``None`` when empty)."""
        heap = self.heap
        while heap:
            event = heapq.heappop(heap)
            self.pops += 1
            if not event.cancelled:
                return event
        return None

    # -- firing --------------------------------------------------------------

    def fire_due(self, runtime: "Runtime", now: int) -> None:
        """Fire every live event with ``time <= now``, in key order.

        This is the loop's single dispatch point for queued events.
        ``now`` is the acting cpu's cycle clock.
        """
        heap = self.heap
        while heap and heap[0].time <= now:
            event = heapq.heappop(heap)
            self.pops += 1
            if event.cancelled:
                continue
            if self.log is not None:
                self._log(event)
            kind = event.kind
            if kind is EventKind.THREAD_WAKEUP:
                thread, seq = event.data
                # lazy invalidation: an early wake (RT_PERIOD_START)
                # bumped ready_seq, making this timer stale
                if (
                    thread.state is ThreadState.SLEEPING
                    and thread.ready_seq == seq
                ):
                    runtime.timer_wakeups += 1
                    runtime._wake(thread)
            elif kind is EventKind.SCHED_TICK:
                callback, period = event.data
                callback(runtime, event.time)
                if period and runtime._live > 0:
                    self.schedule(
                        event.time + period, EventKind.SCHED_TICK,
                        event.tid, event.data,
                    )
            elif kind is EventKind.RT_PERIOD_START:
                period = event.data
                thread = runtime.threads.get(event.tid)
                if thread is None or not thread.alive:
                    continue
                if thread.state is ThreadState.SLEEPING:
                    runtime.early_wakeups += 1
                    runtime._wake(thread)
                self.schedule(
                    event.time + period, EventKind.RT_PERIOD_START,
                    event.tid, period,
                )
            elif kind is EventKind.QUANTUM_EXPIRE:
                cpu, thread, gen = event.data
                if (
                    runtime._current[cpu] is thread
                    and runtime._dispatch_gens[cpu] == gen
                ):
                    # forced preemption: a synthetic Yield, exactly the
                    # schedule controller's mechanism -- the body
                    # generator is NOT advanced
                    runtime.preemptions += 1
                    runtime.events_executed += 1
                    runtime._execute(cpu, thread, ev.Yield())
            # THREAD_BLOCK is emitted to the log, never scheduled; a
            # future kind reaching here would be silently dropped, so:
            elif kind is not EventKind.THREAD_BLOCK:  # pragma: no cover
                raise ValueError(f"unhandled event kind {kind!r}")


class EventEngine:
    """The runtime's scheduling loop; ``park=False`` is the never-park
    reference mode (``Runtime(engine="stepped")``).

    Persistent across :meth:`run` calls so the watchdog's chunked
    ``run(max_events=...)`` supervision resumes parked state exactly.
    See the module docstring for the parity argument.
    """

    def __init__(self, runtime: "Runtime", park: bool = True) -> None:
        #: a proxy: the runtime owns its engine, and a strong back
        #: reference would keep a finished run alive until a cyclic GC
        self.runtime = weakref.proxy(runtime)
        num_cpus = len(runtime.machine.cpus)
        #: cpus currently parked (idle-quiescent, virtually stepped)
        self._parked: List[bool] = [False] * num_cpus
        self._parked_count = 0
        #: most cpus parked at once: one always stays unparked as the
        #: loop's faithful anchor, and none park in the reference mode
        self._park_limit = num_cpus - 1 if park else 0
        #: deferred idle-pick instruction charges per cpu (clock is kept
        #: live; only the counter records + instruction totals wait)
        self._pending: List[int] = [0] * num_cpus
        #: virtual failed picks not yet accounted to the scheduler
        self._virtual_picks = 0
        self._has_pending = False
        #: per-cpu idle-pick cost certificates, valid while the
        #: runtime's sched_epoch is unchanged (scheduler state can only
        #: move at dispatch/wake/interval-end/create, each of which
        #: bumps the epoch)
        self._costs: List[Optional[int]] = [None] * num_cpus
        self._cost_epoch = -1

    # -- deferred-state management -------------------------------------------

    def _flush(self) -> None:
        """Apply deferred virtual-step effects.

        Counter records are associative modulo the register width and the
        instruction totals are plain sums, so one batched record per cpu
        equals the per-iteration records of the never-park loop bit for
        bit.
        """
        if not self._has_pending:
            return
        runtime = self.runtime
        if self._virtual_picks:
            runtime.scheduler.account_idle_picks(self._virtual_picks)
            self._virtual_picks = 0
        pending = self._pending
        cpus = runtime.machine.cpus
        for i, n in enumerate(pending):
            if n:
                proc = cpus[i]
                proc.instructions += n
                proc.counters.record(CounterEvent.INSTRUCTIONS, n)
                proc.counters.record(CounterEvent.CYCLES, n)
                pending[i] = 0
        self._has_pending = False

    def _unpark_all(self) -> None:
        """Fall back to faithful iterations for every cpu."""
        self._flush()
        parked = self._parked
        for i in range(len(parked)):
            parked[i] = False
        self._parked_count = 0

    # -- the loop ------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> None:
        try:
            self._run(max_events)
        except BaseException:
            # every completed iteration's charges must be applied before
            # an exception surfaces, as in the never-park loop
            self._flush()
            raise
        self._flush()

    def _run(self, max_events: Optional[int]) -> None:
        runtime = self.runtime
        cpus = runtime.machine.cpus
        queue = runtime.event_queue
        heap = queue.heap  # mutated in place by the queue, never rebound
        current = runtime._current
        step = runtime._step
        num_cpus = len(cpus)
        parked = self._parked
        park_limit = self._park_limit
        has_runnable = runtime.scheduler.has_runnable
        while runtime._live > 0:
            if (
                max_events is not None
                and runtime.events_executed >= max_events
            ):
                raise StepBudgetExceeded(max_events)
            # the acting cpu: smallest clock, ties to the lowest id, among
            # the unparked cpus (parked ones are drained below, in the
            # same order); at most park_limit < num_cpus are parked
            cpu = -1
            best = 0
            for i in range(num_cpus):
                if not parked[i]:
                    c = cpus[i].cycles
                    if cpu < 0 or c < best:
                        cpu, best = i, c
            if self._parked_count and not self._drain(cpu, best):
                # a precondition failed mid-drain; everyone is unparked
                # and the next argmin replays the moment faithfully
                continue
            due = heap and heap[0].time <= best
            thread = current[cpu]
            # An idle iteration with nothing due.  Park right here when
            # the scheduler certifies quiescence: this very iteration (a
            # failed pick + idle jump) is then replayed virtually by a
            # later drain, in identical state, because nothing acts
            # before that drain reaches this cpu.
            if (
                thread is None
                and self._parked_count < park_limit
                and not due
                and not has_runnable()
                and self._certificates()[cpu] is not None
            ):
                parked[cpu] = True
                self._parked_count += 1
                continue
            runtime.loop_steps += 1
            if due:
                # firing can preempt or wake, so current[] is read after
                queue.fire_due(runtime, best)
                thread = current[cpu]
            if thread is not None:
                step(cpu, thread)
                continue
            # a real pick observes the scheduler's pick counter and the
            # per-cpu instruction counters: settle deferred state first
            if self._has_pending:
                self._flush()
            if runtime._dispatch(cpu) is None:
                runtime._idle(cpu)

    def _certificates(self) -> List[Optional[int]]:
        """Every cpu's idle-pick cost certificate, cached per sched epoch.

        Scheduler state moves only through the runtime's callback sites
        (pick, ready, dispatched, blocked, created), each of which bumps
        ``sched_epoch``; within an epoch the certificates are constant,
        so one O(cpus) refresh amortises over every park decision and
        drained virtual step until the next scheduler callback.
        """
        runtime = self.runtime
        epoch = runtime.sched_epoch
        if self._cost_epoch != epoch:
            get_cost = runtime.scheduler.idle_pick_cost
            costs = self._costs
            for i in range(len(costs)):
                costs[i] = get_cost(i)
            self._cost_epoch = epoch
        return self._costs

    def _drain(self, cpu: int, best: int) -> bool:
        """Virtually replay every parked iteration due before ``(best, cpu)``.

        The never-park loop would give each parked cpu ``k`` with
        ``(clock_k, k) < (best, cpu)`` one failed-pick iteration before
        the acting cpu moves; between those iterations and the acting
        cpu's, no other cpu acts, so the scheduler state, heap and busy
        clocks observed here are exactly what each replayed iteration
        would have seen.  The iterations are mutually independent (each
        touches only its own clock and deferred charges), so one pass in
        cpu-id order is exact.

        Returns ``False`` when an exactness precondition failed -- the
        scheduler has runnable work, an event is due at or before a
        parked clock, the cost certificate was withdrawn, there is no
        idle jump target, or a parked cpu would *still* precede the
        acting cpu after its jump (its target was an imminent event it
        must fire faithfully).  In that case every cpu has been unparked
        and the caller restarts its argmin.
        """
        runtime = self.runtime
        cpus = runtime.machine.cpus
        parked = self._parked
        pending = self._pending
        costs: Optional[List[Optional[int]]] = None
        next_ev: Optional[int] = None
        target = 0
        for k in range(len(parked)):
            if not parked[k]:
                continue
            proc = cpus[k]
            v = proc.cycles
            if v > best or (v == best and k > cpu):
                continue  # k acts after the acting cpu; nothing owed yet
            if costs is None:
                # One-time setup for this drain: preconditions that are
                # constant across the window (nothing acts in between).
                # Without a jump target the faithful path must decide
                # (deadlock detection, the has_runnable skip-ahead).
                idle_target = runtime._idle_target()
                if idle_target is None or runtime.scheduler.has_runnable():
                    self._unpark_all()
                    return False
                target = idle_target
                costs = self._certificates()
                heap = runtime.event_queue.heap
                if heap:
                    next_ev = heap[0].time
            if next_ev is not None and next_ev <= v:
                # due event: it must fire on k's faithful iteration
                self._unpark_all()
                return False
            cost = costs[k]
            if cost is None:
                self._unpark_all()
                return False
            # exactly _charge(cost) then _idle(): the clock first gains
            # the pick cost, then jumps to max(clock + 1, target)
            jump = v + cost + 1
            new = jump if jump > target else target
            proc.cycles = new
            if cost:
                pending[k] += cost
            self._virtual_picks += 1
            self._has_pending = True
            runtime.virtual_steps += 1
            if new < best or (new == best and k < cpu):
                # the jump target was an imminent event and k still
                # precedes the acting cpu: k's next iteration must run
                # faithfully (it fires the event and may dispatch)
                self._unpark_all()
                return False
        return True
