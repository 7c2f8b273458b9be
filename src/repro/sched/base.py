"""The scheduler interface the runtime drives.

Every callback returns an *instruction cost* that the runtime charges to
the simulated clock, so scheduling overhead is part of the measured
performance rather than being assumed away -- the paper's premise is that
"the scheduling overhead imposed by any such policy must be less than the
avoided cache reload penalty" (section 4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from repro.threads.runtime import Runtime
    from repro.threads.thread import ActiveThread


class Scheduler:
    """Abstract scheduling policy."""

    name = "abstract"

    def attach(self, runtime: "Runtime") -> None:
        """Bind to a runtime (called once, from Runtime.__init__)."""
        raise NotImplementedError

    def thread_created(self, thread: "ActiveThread") -> int:
        """A thread was created; returns instruction cost."""
        return 0

    def thread_ready(self, thread: "ActiveThread") -> int:
        """A thread became runnable; returns instruction cost."""
        raise NotImplementedError

    def thread_dispatched(self, cpu: int, thread: "ActiveThread") -> int:
        """A thread starts a scheduling interval on ``cpu``."""
        return 0

    def thread_blocked(
        self, cpu: int, thread: "ActiveThread", misses: int, finished: bool
    ) -> int:
        """A scheduling interval ended with ``misses`` E-cache misses
        (from the performance counters); returns instruction cost."""
        raise NotImplementedError

    def pick(self, cpu: int) -> Tuple[Optional["ActiveThread"], int]:
        """Choose the next thread for ``cpu``; (thread or None, cost)."""
        raise NotImplementedError

    def has_runnable(self) -> bool:
        """Whether any thread is runnable anywhere."""
        raise NotImplementedError

    # -- idle-quiescence contract (idle-cpu parking) -----------------------

    def idle_pick_cost(self, cpu: int) -> Optional[int]:
        """Closed-form cost of a failed :meth:`pick` in idle quiescence.

        The scheduling loop (:mod:`repro.sim.events`) parks an idle cpu and
        replays its failed-pick iterations arithmetically instead of
        calling :meth:`pick`.  Returning an ``int`` here certifies that,
        in the scheduler's *current* state with no runnable threads, a
        ``pick(cpu)`` would (a) return ``(None, cost)`` with exactly this
        cost and (b) mutate nothing except the bookkeeping later settled
        by :meth:`account_idle_picks`.  Return ``None`` whenever that
        cannot be certified -- stale entries to drain, runnable threads,
        any state the next pick would change -- and the loop falls back
        to faithful ``pick()`` calls, which is always correct.

        The default is ``None``: unknown schedulers are never virtualised.
        """
        return None

    def account_idle_picks(self, count: int) -> None:
        """Settle bookkeeping for ``count`` virtualised failed picks.

        Called by the scheduling loop before any state the picks could have
        influenced is observed (in particular before any real
        :meth:`pick`).  The default is a no-op for schedulers whose
        failed picks keep no bookkeeping at all.
        """
