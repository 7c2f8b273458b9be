"""Idle-cpu parking: order-of-magnitude wins on sparse workloads.

Parking in the scheduling loop (``src/repro/sim/events.py``, on by
default) exists for workloads whose threads are mostly blocked: instead
of ticking every idle cpu forward one failed pick at a time, it parks
the cpu and replays its certified idle iterations virtually.  This
bench runs the sparse ``server`` workload (>= 90% of simulated
cpu-cycles idle on 32 cpus) with parking on (``engine="event"``) and
off (``engine="stepped"``) and gates the two halves of its contract:

- **parity**: every simulated counter -- global time, per-cpu clocks and
  instruction counts, misses, context switches, executed events, timer
  wakeups -- is bit-identical with parking on and off (the full policy x
  workload matrix lives in ``tests/sim/test_engine_parity.py``; this is
  the bench-fixture cell);
- **speed**: parking is at least 5x faster wall-clock on this
  fixture (typically 7-10x), with the work shift visible in the audited
  step counters: faithful ``loop_steps`` collapse and certified
  ``virtual_steps`` replace them.

Timing is best-of-2: both runs are deterministic, so the minimum is the
least-noise sample and needs no steady-state detection.
"""

from conftest import report_suite

from repro.bench import RepeatPolicy, measure
from repro.machine.configs import SMALL
from repro.machine.smp import Machine
from repro.sched import SCHEDULERS
from repro.threads.runtime import Runtime
from repro.workloads.server import ServerWorkload

NUM_CPUS = 32
_CONFIG = SMALL.with_cpus(NUM_CPUS)

#: deterministic simulation: the faster of two samples is the signal
BEST_OF_2 = RepeatPolicy(
    warmup=0, min_repeats=2, max_repeats=2, time_budget_s=120.0,
    steady_rel_spread=0.0,
)


def _run(engine: str):
    machine = Machine(_CONFIG, seed=0)
    runtime = Runtime(machine, SCHEDULERS["lff"](), engine=engine)
    ServerWorkload().build(runtime)
    runtime.run()
    return machine, runtime


def _signature(machine, runtime):
    """Every simulated counter the parity guarantee covers."""
    return (
        machine.time(),
        machine.total_l2_misses(),
        machine.total_instructions(),
        runtime.context_switches,
        runtime.events_executed,
        runtime.timer_wakeups,
        tuple(p.cycles for p in machine.cpus),
        tuple(p.instructions for p in machine.cpus),
    )


def _counters(value):
    machine, runtime = value
    return {
        "events": float(runtime.events_executed),
        "loop_steps": float(runtime.loop_steps),
        "virtual_steps": float(runtime.virtual_steps),
        "sim_misses": float(machine.total_l2_misses()),
        "cycles": float(machine.time()),
    }


def test_event_engine_sparse_speedup():
    (m_step, r_step), stepped = measure(
        "engine_stepped", lambda: _run("stepped"),
        counters=_counters, policy=BEST_OF_2,
    )
    (m_evt, r_evt), event = measure(
        "engine_event", lambda: _run("event"),
        counters=_counters, policy=BEST_OF_2,
    )
    speedup = stepped.stats.min_s / event.stats.min_s
    blocked = 1.0 - m_step.total_instructions() / (
        NUM_CPUS * m_step.time()
    )
    report_suite(
        "engine_event", stepped, event,
        text=(
            f"server on {NUM_CPUS} cpus (lff): "
            f"{100.0 * blocked:.1f}% of cpu-cycles idle; "
            f"stepped {stepped.stats.min_s:.3f}s "
            f"({r_step.loop_steps:,} faithful steps) vs event "
            f"{event.stats.min_s:.3f}s ({r_evt.loop_steps:,} faithful + "
            f"{r_evt.virtual_steps:,} virtual) -> {speedup:.2f}x"
        ),
    )

    # parity: parking on and off must agree bit-for-bit on every counter
    assert _signature(m_step, r_step) == _signature(m_evt, r_evt)

    # the fixture is genuinely sparse -- that's what the win feeds on
    assert blocked >= 0.90, f"fixture lost its sparsity: {blocked:.3f}"

    # the work moved from faithful iterations to certified virtual ones
    assert r_evt.virtual_steps > 0
    assert r_evt.loop_steps * 10 < r_step.loop_steps, (
        f"parking still leaves {r_evt.loop_steps:,} faithful steps "
        f"vs stepped {r_step.loop_steps:,}"
    )

    # the gate: >= 5x wall-clock on the sparse fixture (typically 7-10x)
    assert speedup >= 5.0, (
        f"parking speedup {speedup:.2f}x under the 5x gate "
        f"(stepped {stepped.stats.min_s:.3f}s, "
        f"event {event.stats.min_s:.3f}s)"
    )
