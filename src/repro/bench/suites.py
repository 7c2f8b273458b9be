"""The registered benchmark suites.

Three standing suites:

- ``smoke`` -- the CI perf gate: every hot path plus a closed-form model
  evaluation, tuned to finish well under a minute on a shared runner;
- ``hotpaths`` -- the optimisation-tracking set covering the three paths
  every experiment sits on: the per-reference cache loop
  (``machine/cache.py`` / ``machine/vm.py`` / ``machine/smp.py``), the
  scheduler priority-update path (``sched/heap.py`` /
  ``sched/locality.py``), and the scheduling loop (``sim/events.py``
  and ``threads/runtime.py``, driven by ``sim/driver.py``);
- ``engine`` -- the scheduling loop with idle-cpu parking on the sparse
  ``server`` workload parking exists for, with the never-park run
  (``engine="stepped"``) of the same fixture as the reference; the
  parking speedup itself is gated by ``benchmarks/bench_engine_event.py``;
- ``analytic`` -- the analytic reuse-distance backend
  (``machine/analytic.py``) against the replay hierarchy on the
  sweep-scale fixture; the backend-to-backend speedup is gated by
  ``benchmarks/bench_analytic_sweep.py``.

Benchmarks report *simulated* counters (refs, misses, events, context
switches) so the JSON carries counter-derived rates -- e.g. simulated
misses per wall second, the figure of merit for a cache simulator -- not
just wall time.

Everything here is deterministic: address streams are precomputed with
seeded generators in the factory (untimed), and the timed callables run
pure simulation.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.bench.registry import register
from repro.bench.stats import BenchFn, RepeatPolicy

# Geometry for the standalone cache benchmarks: the paper's 512 KB
# E-cache with 64-byte lines (8192 lines), batches of 256 lines.
_CACHE_BYTES = 512 * 1024
_LINE_BYTES = 64
_NUM_LINES = _CACHE_BYTES // _LINE_BYTES
_BATCH = 256


def _sweep_batches(num_batches: int, stride: int) -> List[np.ndarray]:
    """Distinct-index batches sliding through 1.5x the cache."""
    span = _NUM_LINES + _NUM_LINES // 2
    return [
        (np.arange(_BATCH, dtype=np.int64) + i * stride) % span
        for i in range(num_batches)
    ]


@register(
    "cache_direct_sweep", suites=("smoke", "hotpaths"), ops=48 * _BATCH
)
def cache_direct_sweep() -> BenchFn:
    """Direct-mapped E-cache: distinct-index batches."""
    from repro.machine.cache import DirectMappedCache

    cache = DirectMappedCache(_CACHE_BYTES, _LINE_BYTES)
    batches = _sweep_batches(48, stride=199)
    stats = cache.stats

    def run() -> Mapping[str, float]:
        refs0, miss0 = stats.refs, stats.misses
        for batch in batches:
            cache.access(batch)
        return {
            "refs": float(stats.refs - refs0),
            "sim_misses": float(stats.misses - miss0),
        }

    return run


@register(
    "cache_direct_collide", suites=("smoke", "hotpaths"), ops=16 * _BATCH
)
def cache_direct_collide() -> BenchFn:
    """Direct-mapped E-cache: intra-batch index collisions."""
    from repro.machine.cache import DirectMappedCache

    cache = DirectMappedCache(_CACHE_BYTES, _LINE_BYTES)
    rng = np.random.default_rng(7)  # fixed stream is the point; repro-lint: ignore
    batches = []
    for _ in range(16):
        base = rng.integers(0, _NUM_LINES, size=_BATCH // 2, dtype=np.int64)
        # the second half aliases the first half's indices with new tags
        batches.append(np.concatenate([base, base + _NUM_LINES]))
    stats = cache.stats

    def run() -> Mapping[str, float]:
        refs0, miss0 = stats.refs, stats.misses
        for batch in batches:
            cache.access(batch)
        return {
            "refs": float(stats.refs - refs0),
            "sim_misses": float(stats.misses - miss0),
        }

    return run


@register(
    "cache_assoc_access", suites=("smoke", "hotpaths"), ops=24 * _BATCH
)
def cache_assoc_access() -> BenchFn:
    """4-way LRU set-associative cache (the model-extension simulator)."""
    from repro.machine.cache import SetAssociativeCache

    cache = SetAssociativeCache(64 * 1024, _LINE_BYTES, ways=4)
    num_lines = cache.num_lines
    rng = np.random.default_rng(11)  # fixed stream is the point; repro-lint: ignore
    batches = [
        rng.integers(0, 2 * num_lines, size=_BATCH, dtype=np.int64)
        for _ in range(24)
    ]
    stats = cache.stats

    def run() -> Mapping[str, float]:
        refs0, miss0 = stats.refs, stats.misses
        for batch in batches:
            cache.access(batch)
        return {
            "refs": float(stats.refs - refs0),
            "sim_misses": float(stats.misses - miss0),
        }

    return run


@register("vm_translate", suites=("hotpaths",), ops=64 * _BATCH)
def vm_translate() -> BenchFn:
    """Virtual-to-physical line translation over multi-page batches."""
    from repro.machine.vm import VirtualMemory

    vm = VirtualMemory(_CACHE_BYTES)
    rng = np.random.default_rng(13)  # fixed stream is the point; repro-lint: ignore
    span_lines = 4 * _NUM_LINES
    single_page = [
        (int(rng.integers(0, span_lines // 32)) * 32)
        + np.arange(_BATCH // 8, dtype=np.int64) % 32
        for _ in range(32)
    ]
    multi_page = [
        rng.integers(0, span_lines, size=_BATCH, dtype=np.int64)
        for _ in range(32)
    ]

    def run() -> Mapping[str, float]:
        faults0 = vm.page_faults
        for batch in single_page:
            vm.translate_lines(batch)
        for batch in multi_page:
            vm.translate_lines(batch)
        return {"page_faults": float(vm.page_faults - faults0)}

    return run


@register("machine_touch_line", suites=("smoke", "hotpaths"), ops=2048)
def machine_touch_line() -> BenchFn:
    """One-line writes alternating between two cpus of a 4-cpu Ultra-1.

    The dominant touch of a simulated run: schedulers write their queue,
    heap and entry records one line at a time on every switch.  Each pass
    over 64 lines runs on the other cpu, so every write translates, misses,
    is priced as remote and invalidates the previous writer's copy.
    """
    from repro.machine.configs import ULTRA1
    from repro.machine.smp import Machine

    machine = Machine(ULTRA1.with_cpus(4), seed=0)
    touches = [
        ((k // 64) % 2, np.asarray([k % 64], dtype=np.int64))
        for k in range(2048)
    ]
    l2 = [cpu.l2.stats for cpu in machine.cpus]

    def run() -> Mapping[str, float]:
        miss0 = sum(s.misses for s in l2)
        inval0 = sum(s.invalidations for s in l2)
        for cpu, vlines in touches:
            machine.touch(cpu, vlines, write=True)
        return {
            "sim_misses": float(sum(s.misses for s in l2) - miss0),
            "invalidations": float(sum(s.invalidations for s in l2) - inval0),
        }

    return run


#: lines per write run of ``machine_touch_run``: 2.5 pages of 128 lines
_RUN_LINES = 320
_RUNS = 8


@register(
    "machine_touch_run", suites=("hotpaths",), ops=4 * _RUNS * _RUN_LINES
)
def machine_touch_run() -> BenchFn:
    """Multi-page contiguous write runs alternating between two cpus of a
    4-cpu Ultra-1.

    Most lines a simulated run touches arrive in workload touches that
    are one contiguous run of virtual lines, often spanning pages.  Each
    run here starts half a page in, so it translates into three page
    pieces.  Each cpu writes every run twice: the first pass misses on
    every line (the other cpu's writes invalidated its copies) and is
    priced as remote, and the second hits on every line.
    """
    from repro.machine.configs import ULTRA1
    from repro.machine.smp import Machine

    machine = Machine(ULTRA1.with_cpus(4), seed=0)
    runs = [
        np.arange(start, start + _RUN_LINES, dtype=np.int64)
        for start in range(64, 64 + _RUNS * 512, 512)
    ]
    l2 = [cpu.l2.stats for cpu in machine.cpus]

    def run() -> Mapping[str, float]:
        miss0 = sum(s.misses for s in l2)
        inval0 = sum(s.invalidations for s in l2)
        for cpu in (0, 1):
            for _ in range(2):  # all-miss pass, then all-hit pass
                for vlines in runs:
                    machine.touch(cpu, vlines, write=True)
        return {
            "sim_misses": float(sum(s.misses for s in l2) - miss0),
            "invalidations": float(sum(s.invalidations for s in l2) - inval0),
        }

    return run


@register("heap_churn", suites=("smoke", "hotpaths"), ops=2 * 256)
def heap_churn() -> BenchFn:
    """Priority-heap push/pop churn with lazy-deletion validation.

    Models the per-context-switch heap work: push a population of READY
    threads with deterministic priorities, then pop them all back out
    through the validity filter.
    """
    from repro.sched.heap import PriorityHeap
    from repro.threads.thread import ActiveThread

    def _body():  # pragma: no cover - never advanced
        yield None

    threads = [ActiveThread(tid, _body()) for tid in range(1, 257)]
    priorities = [float((tid * 2654435761) % 4096) for tid in range(1, 257)]
    heap = PriorityHeap()

    def version(_thread: ActiveThread) -> Optional[int]:
        return 0

    def run() -> Mapping[str, float]:
        ops0 = heap.pushes + heap.pops
        for thread, priority in zip(threads, priorities):
            heap.push(thread, priority, 0)
        while True:
            entry, _pops = heap.pop_valid(version)
            if entry is None:
                break
        return {"heap_ops": float(heap.pushes + heap.pops - ops0)}

    return run


@register("sched_priority_update", suites=("smoke", "hotpaths"))
def sched_priority_update() -> BenchFn:
    """End-to-end LFF run dominated by the O(d) priority-update path.

    Runs the smoke-scale tasks workload (dependency-annotated, many
    context switches) under LFF on the SMALL machine; context switches
    per second is the figure of merit for the update path.
    """
    from repro.faults.campaign import campaign_workloads
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched import SCHEDULERS
    from repro.threads.runtime import Runtime

    factory = campaign_workloads("smoke")["tasks"]

    def run() -> Mapping[str, float]:
        machine = Machine(SMALL, seed=0)
        scheduler = SCHEDULERS["lff"]()
        runtime = Runtime(machine, scheduler)
        factory().build(runtime)
        runtime.run()
        heap_ops = sum(h.pushes + h.pops for h in scheduler.heaps)
        return {
            "context_switches": float(runtime.context_switches),
            "events": float(runtime.events_executed),
            "heap_ops": float(heap_ops),
            "sim_misses": float(machine.total_l2_misses()),
        }

    return run


@register("runtime_step_loop", suites=("smoke", "hotpaths"))
def runtime_step_loop() -> BenchFn:
    """The discrete-event stepping loop, tracing off (no observers).

    Builds and runs the smoke-scale random-walk workload under bare FCFS
    on the SMALL machine each call -- the per-event interpreter cost
    every performance experiment pays; simulated events and misses per
    wall second are the counters to watch.
    """
    from repro.faults.campaign import campaign_workloads
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched.fcfs import FCFSScheduler
    from repro.threads.runtime import Runtime

    factory = campaign_workloads("smoke")["randomwalk"]

    def run() -> Mapping[str, float]:
        machine = Machine(SMALL, seed=0)
        runtime = Runtime(machine, FCFSScheduler())
        factory().build(runtime)
        runtime.run()
        return {
            "events": float(runtime.events_executed),
            "sim_misses": float(machine.total_l2_misses()),
            "cycles": float(machine.time()),
        }

    return run


def _sparse_engine_run(engine: str) -> BenchFn:
    """One full ``server`` run on 32 cpus under LFF, parking on or off.

    The ``bench_engine_event`` fixture: ~96% of simulated cpu-cycles are
    idle, so the never-park loop's cost is dominated by one-tick idle
    iterations while parked cpus jump straight between wakeups.
    Counters are bit-identical either way (the parity suite proves it);
    ``loop_steps``/``virtual_steps`` show where the win comes from.
    """
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched import SCHEDULERS
    from repro.threads.runtime import Runtime
    from repro.workloads.server import ServerWorkload

    config = SMALL.with_cpus(32)

    def run() -> Mapping[str, float]:
        machine = Machine(config, seed=0)
        runtime = Runtime(machine, SCHEDULERS["lff"](), engine=engine)
        ServerWorkload().build(runtime)
        runtime.run()
        return {
            "events": float(runtime.events_executed),
            "loop_steps": float(runtime.loop_steps),
            "virtual_steps": float(runtime.virtual_steps),
            "timer_wakeups": float(runtime.timer_wakeups),
            "sim_misses": float(machine.total_l2_misses()),
            "cycles": float(machine.time()),
        }

    return run


@register("engine_event_sparse", suites=("engine", "hotpaths"))
def engine_event_sparse() -> BenchFn:
    """Parking on, on the sparse server fixture (the fast path)."""
    return _sparse_engine_run("event")


@register(
    "engine_stepped_sparse",
    suites=("engine",),
    policy=RepeatPolicy(
        warmup=0, min_repeats=2, max_repeats=3, time_budget_s=8.0
    ),
)
def engine_stepped_sparse() -> BenchFn:
    """Parking off on the same fixture (the reference cost).

    Seconds per call, not milliseconds -- the whole point -- so the
    repeat policy samples it just enough for a stable median.
    """
    return _sparse_engine_run("stepped")


def analytic_sweep_cells():
    """The sweep-scale fixture cells for the analytic-backend benches.

    Chosen so the per-*reference* work dominates the per-*event* work:
    large touch batches (2-8 thousand lines) on an 8-cpu machine are
    where the replay backend pays per-miss Python dict work in the
    coherence directory while the analytic backend stays vectorised --
    the regime sweeps at the paper's 1024-thread scale live in.  The
    merge/tsp cells are deliberately small: they are event-bound, so
    they bound how much Amdahl overhead the total-speedup gate carries.

    Shared by the ``analytic`` suite arms below and by the speedup gate
    in ``benchmarks/bench_analytic_sweep.py`` -- one fixture, one truth.
    """
    from repro.workloads.mergesort import MergeWorkload
    from repro.workloads.params import (
        MergeParams,
        PhotoParams,
        TasksParams,
        TspParams,
    )
    from repro.workloads.photo import PhotoWorkload
    from repro.workloads.randomwalk import RandomWalkWorkload
    from repro.workloads.tasks import TasksWorkload
    from repro.workloads.tsp import TspWorkload

    return [
        (
            "randomwalk",
            lambda: RandomWalkWorkload(
                total_touches=262_144,
                batch=4096,
                sleeper_footprints=(1024, 2048, 3072, 4096),
                sleeper_shares=(0.0, 0.25, 0.5, 0.75),
                periods=4,
            ),
        ),
        (
            "tasks",
            lambda: TasksWorkload(
                TasksParams(num_tasks=48, footprint_lines=8192, periods=8)
            ),
        ),
        ("merge", lambda: MergeWorkload(MergeParams(num_elements=4000))),
        (
            "photo",
            lambda: PhotoWorkload(PhotoParams(width=16_384, height=192)),
        ),
        ("tsp", lambda: TspWorkload(TspParams(num_cities=7))),
    ]


def _analytic_sweep_run(backend: str) -> BenchFn:
    """All five sweep cells, one backend, LFF on 8 cpus."""
    from repro.machine.configs import ULTRA1
    from repro.sched import SCHEDULERS
    from repro.sim.driver import run_performance

    config = ULTRA1.with_cpus(8)
    cells = analytic_sweep_cells()

    def run() -> Mapping[str, float]:
        misses = refs = switches = 0
        for _name, factory in cells:
            result = run_performance(
                factory(), config, SCHEDULERS["lff"](),
                seed=0, backend=backend,
            )
            misses += result.l2_misses
            refs += result.l2_refs
            switches += result.context_switches
        return {
            "refs": float(refs),
            "sim_misses": float(misses),
            "context_switches": float(switches),
        }

    return run


#: the sweep arms are seconds-per-call (the sim arm especially), so the
#: repeat policy samples them like the stepped-engine reference bench
_SWEEP_POLICY = RepeatPolicy(
    warmup=0, min_repeats=2, max_repeats=3, time_budget_s=30.0
)


@register("analytic_sweep_analytic", suites=("analytic",),
          policy=_SWEEP_POLICY)
def analytic_sweep_analytic() -> BenchFn:
    """Five-workload policy sweep priced by the analytic backend."""
    return _analytic_sweep_run("analytic")


@register("analytic_sweep_sim", suites=("analytic",), policy=_SWEEP_POLICY)
def analytic_sweep_sim() -> BenchFn:
    """The same sweep through the replay hierarchy (the reference cost).

    The analytic-vs-sim speedup itself is gated by
    ``benchmarks/bench_analytic_sweep.py``; this arm tracks the
    reference cost over time.
    """
    return _analytic_sweep_run("sim")


@register("model_eval", suites=("smoke",), ops=64 * 1024)
def model_eval() -> BenchFn:
    """Closed-form footprint model over vectorised miss counts."""
    from repro.core.model import SharedStateModel

    model = SharedStateModel(_NUM_LINES)
    misses = np.arange(1024, dtype=np.int64) * 16

    def run() -> None:
        for _ in range(64):
            model.expected_running(0.0, misses)
            model.expected_independent(2048.0, misses)
            model.expected_dependent(2048.0, 0.5, misses)
        return None

    return run
