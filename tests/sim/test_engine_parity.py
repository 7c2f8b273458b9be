"""Golden-parity matrix: idle-cpu parking is bit-identical to never parking.

Every cell of the (policy x workload x cpus) matrix runs the same
workload with parking on (``engine="event"``, the default) and off
(``engine="stepped"``, the reference) and compares the *full* observable
state -- global time, per-cpu cycle and instruction counters, PIC
registers, miss totals, context switches, executed events, timer
wakeups, the per-thread result signatures, the scheduler's own
pick/steal/heap statistics and, under fault injection, the injection
tallies.  It also checks that loop iterations are conserved.  Any drift
anywhere fails the cell; the CI ``engine-parity`` job runs this file and
uploads the diff artifact written to ``$ENGINE_PARITY_DIFF`` when a cell
fails.
"""

import os

import pytest

from repro.faults import (
    AnnotationFaults,
    CounterFaults,
    FaultInjector,
    FaultPlan,
    ThreadFaults,
)
from repro.faults.campaign import campaign_workloads
from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.threads.runtime import Runtime
from repro.workloads.server import ServerParams, ServerWorkload

POLICIES = ("fcfs", "lff", "crt")
CPU_COUNTS = (1, 2, 4)
WORKLOADS = campaign_workloads("smoke")


def _full_state(runtime, machine, scheduler):
    """Everything the parity guarantee covers, as a comparable dict."""
    state = {
        "time": machine.time(),
        "clocks": tuple(p.cycles for p in machine.cpus),
        "instructions": tuple(p.instructions for p in machine.cpus),
        "pics": tuple(
            tuple(pic.value for pic in cpu.counters._pics)
            for cpu in machine.cpus
        ),
        "misses": machine.total_l2_misses(),
        "context_switches": runtime.context_switches,
        "events": runtime.events_executed,
        "timer_wakeups": runtime.timer_wakeups,
        "counter_overflow_suspects": runtime.counter_overflow_suspects,
        "loop_steps": runtime.loop_steps,
        "virtual_steps": runtime.virtual_steps,
        "threads": tuple(
            sorted(
                (
                    t.name,
                    t.stats.refs,
                    t.stats.instructions,
                    t.stats.misses,
                    t.stats.wait_cycles,
                    t.stats.migrations,
                    t.state.value,
                )
                for t in runtime.threads.values()
            )
        ),
    }
    for attr in ("_picks", "steals", "demotions", "compactions"):
        if hasattr(scheduler, attr):
            state[attr] = getattr(scheduler, attr)
    if hasattr(scheduler, "heaps"):
        state["heap_ops"] = tuple(
            (h.pushes, h.pops) for h in scheduler.heaps
        )
    if runtime.injector is not None:
        state["injections"] = runtime.injector.summary()
    return state


def _run_cell(policy, build, cpus, engine, **runtime_kwargs):
    machine = Machine(SMALL.with_cpus(cpus), seed=0)
    scheduler = SCHEDULERS[policy]()
    runtime = Runtime(machine, scheduler, engine=engine, **runtime_kwargs)
    build(runtime)
    runtime.run()
    return _full_state(runtime, machine, scheduler)


def _assert_parity(cell, stepped, event):
    """Fail ``cell`` unless the two runs agree on every counter and
    conserve loop iterations.

    The step counters are where the modes differ by design.  What must
    hold is conservation: the never-park reference takes no virtual
    steps, and each of its iterations is either a faithful or a virtual
    step with parking on.
    """
    stepped, event = dict(stepped), dict(event)
    stepped_steps = (stepped.pop("loop_steps"), stepped.pop("virtual_steps"))
    event_steps = (event.pop("loop_steps"), event.pop("virtual_steps"))
    drifted = {
        key: (stepped[key], event[key])
        for key in sorted(stepped)
        if stepped[key] != event[key]
    }
    if stepped_steps[1] != 0 or stepped_steps[0] != sum(event_steps):
        drifted["steps (loop, virtual)"] = (stepped_steps, event_steps)
    if not drifted:
        return
    path = os.environ.get("ENGINE_PARITY_DIFF")
    if path:
        with open(path, "a") as fh:
            fh.write(f"MISMATCH {cell}\n")
            for key, (s, e) in drifted.items():
                fh.write(
                    f"  {key}:\n"
                    f"    stepped = {s!r}\n"
                    f"    event   = {e!r}\n"
                )
    pytest.fail(
        f"{cell}: parking on and off drifted in {', '.join(drifted)}; "
        f"stepped={[s for s, _ in drifted.values()]!r} "
        f"event={[e for _, e in drifted.values()]!r}"
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("policy", POLICIES)
def test_engine_parity(policy, workload):
    factory = WORKLOADS[workload]
    for cpus in CPU_COUNTS:
        cell = f"{policy}/{workload}/cpus={cpus}"
        stepped = _run_cell(
            policy, lambda rt: factory().build(rt), cpus, "stepped"
        )
        event = _run_cell(
            policy, lambda rt: factory().build(rt), cpus, "event"
        )
        _assert_parity(cell, stepped, event)


@pytest.mark.parametrize("policy", POLICIES)
def test_engine_parity_sparse_server(policy):
    """The engine's home turf: deep parking and long virtual spans, with
    sleep timers firing while cpus are parked."""
    params = ServerParams(
        num_requests=24, sleep_cycles=250_000, stagger_cycles=4_000
    )

    def build(runtime):
        ServerWorkload(params).build(runtime)

    for cpus in (2, 8):
        cell = f"{policy}/server/cpus={cpus}"
        stepped = _run_cell(policy, build, cpus, "stepped")
        event = _run_cell(policy, build, cpus, "event")
        assert event["timer_wakeups"] > 0 and event["virtual_steps"] > 0
        _assert_parity(cell, stepped, event)


#: every hint-fault family plus absorbed thread delays in one plan: the
#: fault campaign runs with parking on, so parity must hold under
#: injection too (the injector draws from its RNG once per step)
FAULT_PLAN = FaultPlan(
    seed=7,
    annotation=AnnotationFaults(
        drop_prob=0.3, corrupt_prob=0.4, bogus_prob=0.3
    ),
    counter=CounterFaults(mode="wrap", prob=0.25, magnitude=1000),
    thread=ThreadFaults(mode="delay", prob=0.01),
)


@pytest.mark.parametrize("policy", POLICIES)
def test_engine_parity_under_fault_injection(policy):
    factory = WORKLOADS["merge"]
    for cpus in (2, 4):
        cell = f"{policy}/merge+faults/cpus={cpus}"
        stepped, event = (
            _run_cell(
                policy,
                lambda rt: factory().build(rt),
                cpus,
                engine,
                injector=FaultInjector(FAULT_PLAN),
            )
            for engine in ("stepped", "event")
        )
        assert stepped["injections"]["delays"] > 0
        assert event["virtual_steps"] > 0  # parking was exercised
        _assert_parity(cell, stepped, event)


def test_diff_artifact_written_on_mismatch(tmp_path, monkeypatch):
    """The CI artifact plumbing itself: a drifted cell writes the diff."""
    diff = tmp_path / "parity-diff.txt"
    monkeypatch.setenv("ENGINE_PARITY_DIFF", str(diff))
    stepped = {"time": 100, "misses": 5, "loop_steps": 9, "virtual_steps": 0}
    event = {"time": 100, "misses": 6, "loop_steps": 7, "virtual_steps": 2}
    with pytest.raises(pytest.fail.Exception):
        _assert_parity("fcfs/example/cpus=2", stepped, event)
    text = diff.read_text()
    assert "MISMATCH fcfs/example/cpus=2" in text
    assert "misses" in text and "time" not in text.split("MISMATCH")[1]


def test_unconserved_steps_fail_the_cell(tmp_path, monkeypatch):
    """Equal counters are not enough: a run whose iterations do not add
    up (or a reference that parked) fails and lands in the artifact."""
    diff = tmp_path / "parity-diff.txt"
    monkeypatch.setenv("ENGINE_PARITY_DIFF", str(diff))
    event = {"time": 100, "loop_steps": 7, "virtual_steps": 2}
    for stepped_steps in ((8, 0), (7, 2)):
        loop, virtual = stepped_steps
        stepped = {"time": 100, "loop_steps": loop, "virtual_steps": virtual}
        with pytest.raises(pytest.fail.Exception, match="steps"):
            _assert_parity("fcfs/example/cpus=2", stepped, event)
    assert diff.read_text().count("steps (loop, virtual)") == 2
