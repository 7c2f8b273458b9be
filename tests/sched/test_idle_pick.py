"""The idle-quiescence contract (``Scheduler.idle_pick_cost``).

The scheduling loop parks an idle cpu, virtualising its failed picks,
only when the scheduler certifies them: ``idle_pick_cost(cpu)`` returning an ``int`` promises
that a real ``pick(cpu)`` would return ``(None, cost)`` with exactly
that cost and mutate nothing beyond what ``account_idle_picks``
settles.  These tests pin that promise for every shipped scheduler by
comparing the certificate against an actual pick, and pin the refusal
(``None``) whenever the state is not quiescent.
"""

import pytest

from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.sched.base import Scheduler
from repro.sched.fcfs import FCFSScheduler
from repro.sched.locality import make_lff
from repro.threads.events import Compute, Sleep
from repro.threads.runtime import Runtime


def _sleeping_runtime(scheduler, cpus=4):
    """A runtime whose threads are all asleep: the quiescent state the
    certificate speaks about (no READY threads anywhere)."""
    machine = Machine(SMALL.with_cpus(cpus), seed=0)
    runtime = Runtime(machine, scheduler)

    def body():
        yield Compute(10)
        yield Sleep(100_000)

    for i in range(3):
        runtime.at_create(body, name=f"t{i}")
    with pytest.raises(Exception):
        # run until every thread is asleep; budget-stop the loop there
        runtime.run(max_events=6)
    assert not scheduler.has_runnable()
    return runtime


class TestBaseContract:
    def test_default_never_certifies(self):
        scheduler = Scheduler()
        assert scheduler.idle_pick_cost(0) is None
        scheduler.account_idle_picks(100)  # the no-op must exist


class TestFCFS:
    def test_empty_queue_certifies_zero_cost(self):
        runtime = _sleeping_runtime(
            FCFSScheduler(model_scheduler_memory=False)
        )
        scheduler = runtime.scheduler
        for cpu in range(4):
            assert scheduler.idle_pick_cost(cpu) == 0
            thread, cost = scheduler.pick(cpu)
            assert thread is None and cost == 0

    def test_ready_work_withdraws_the_certificate(self):
        machine = Machine(SMALL, seed=0)
        runtime = Runtime(
            machine, FCFSScheduler(model_scheduler_memory=False)
        )
        runtime.at_create(lambda: iter([Compute(10)]), name="w")
        assert runtime.scheduler.idle_pick_cost(0) is None

    def test_stale_entries_withdraw_the_certificate(self):
        """A queue holding only stale entries would be drained (mutated)
        by a pick, so quiescence requires the queue itself empty."""
        runtime = _sleeping_runtime(
            FCFSScheduler(model_scheduler_memory=False)
        )
        scheduler = runtime.scheduler
        sleeper = runtime.threads[1]
        # re-queue the sleeping thread with its old seq: a stale entry
        scheduler._queue.append((sleeper, sleeper.ready_seq - 1))
        scheduler._ready = 0
        assert scheduler.idle_pick_cost(0) is None


class TestLocality:
    def test_certificate_matches_a_real_pick_exactly(self):
        runtime = _sleeping_runtime(make_lff(), cpus=4)
        scheduler = runtime.scheduler
        for cpu in range(4):
            certified = scheduler.idle_pick_cost(cpu)
            assert certified is not None
            before = (
                scheduler.steals,
                tuple((h.pushes, h.pops) for h in scheduler.heaps),
                tuple(len(h) for h in scheduler.heaps),
            )
            picks_before = scheduler._picks
            thread, cost = scheduler.pick(cpu)
            # (a) the pick fails with exactly the certified cost ...
            assert thread is None
            assert cost == certified
            # ... and (b) mutated nothing but the pick counter, which
            # account_idle_picks settles for virtualised picks
            after = (
                scheduler.steals,
                tuple((h.pushes, h.pops) for h in scheduler.heaps),
                tuple(len(h) for h in scheduler.heaps),
            )
            assert after == before
            assert scheduler._picks == picks_before + 1

    def test_account_idle_picks_settles_the_counter(self):
        scheduler = make_lff()
        scheduler._picks = 7
        scheduler.account_idle_picks(5)
        assert scheduler._picks == 12

    def test_steal_scan_cost_tracks_neighbour_heap_sizes(self):
        runtime = _sleeping_runtime(make_lff(), cpus=4)
        scheduler = runtime.scheduler
        # empty neighbour heaps: the scan charges max(1, len) == 1 each
        assert scheduler.idle_pick_cost(0) == 3

    def test_no_steal_scheduler_certifies_zero(self):
        runtime = _sleeping_runtime(make_lff(steal=False), cpus=4)
        assert runtime.scheduler.idle_pick_cost(0) == 0

    def test_ready_work_withdraws_the_certificate(self):
        machine = Machine(SMALL.with_cpus(2), seed=0)
        runtime = Runtime(machine, make_lff())
        runtime.at_create(lambda: iter([Compute(10)]), name="w")
        assert runtime.scheduler.idle_pick_cost(0) is None

    def test_undrained_own_heap_withdraws_the_certificate(self):
        """Entries left in the picking cpu's own heap would be popped
        (mutating heap statistics), so the certificate is refused even
        when none of them is runnable."""
        runtime = _sleeping_runtime(make_lff(), cpus=2)
        scheduler = runtime.scheduler
        sleeper = runtime.threads[1]
        scheduler.heaps[0].push(sleeper, 1.0, sleeper.ready_seq - 1)
        assert scheduler.idle_pick_cost(0) is None
        # the neighbour's certificate now prices scanning that entry
        assert scheduler.idle_pick_cost(1) == 1


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_every_shipped_scheduler_honours_the_contract(policy):
    """Generic contract sweep: whenever a scheduler certifies a cost in
    a quiescent state, an immediate real pick must agree bit-for-bit."""
    runtime = _sleeping_runtime(SCHEDULERS[policy](), cpus=4)
    scheduler = runtime.scheduler
    for cpu in range(4):
        certified = scheduler.idle_pick_cost(cpu)
        if certified is None:
            continue  # refusing to certify is always allowed
        thread, cost = scheduler.pick(cpu)
        assert thread is None
        assert cost == certified
