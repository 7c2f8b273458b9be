"""Simulated-oracle cross-check for the analytic cache backend.

The ``analytic`` backend (:mod:`repro.machine.analytic`) prices touch
batches with the closed-form reuse-distance model instead of simulating
the cache.  That is only useful if its miss counts stay close to what
the reference simulator would have produced -- so this module runs the
same fixture workloads under both backends, compares the per-interval
miss streams, and pins a per-workload relative-error bound.  The
``analytic-oracle`` CI job runs exactly this sweep and fails when any
workload's error regresses past its pinned bound.

Comparison method
-----------------

Both runs use one cpu under bare FCFS (no scheduler memory), so the
dispatch order is backend-independent.  An :class:`IntervalTape`
observer records ``(thread name, misses)`` at every ``on_block``:

- when the two tapes *align* (same thread-name sequence -- the common
  case; wakeup timing can differ because cycle counts differ), the
  headline error is the normalised L1 distance between the interval
  miss streams: ``sum(|analytic_i - sim_i|) / sum(sim_i)``;
- when they do not align, the sweep falls back to per-thread miss
  totals, same normalisation -- coarser, but schedule-independent.

Either way the per-thread ground truth (refs, instructions, final
state) must be *identical* -- the backend only prices misses, it must
never change what the programs did.  ``signature_equal`` is asserted,
not bounded.

The pinned bounds are empirical, with headroom over the measured error
(see ``ORACLE_BOUNDS``); docs/MODEL.md "The analytic backend" explains
which model omissions produce which error (conflict structure -> merge
under-counts, strided layouts -> photo over-retains, etc.).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.machine.configs import SMALL, MachineConfig
from repro.machine.smp import Machine
from repro.sched.fcfs import FCFSScheduler
from repro.sim.driver import workload_signature
from repro.threads.runtime import Observer, Runtime
from repro.workloads import (
    MergeParams,
    MergeWorkload,
    PhotoParams,
    PhotoWorkload,
    TasksParams,
    TasksWorkload,
    TspParams,
    TspWorkload,
)
from repro.workloads.randomwalk import RandomWalkWorkload

#: fixture workloads for the cross-check: the five campaign apps at
#: smoke scale, pinned here (not shared with the fault campaign) so the
#: pinned error bounds cannot drift when the campaign rescales
ORACLE_WORKLOADS: Dict[str, Callable] = {
    "randomwalk": lambda: RandomWalkWorkload(total_touches=4096, periods=3),
    "tasks": lambda: TasksWorkload(TasksParams(num_tasks=24, periods=4)),
    "merge": lambda: MergeWorkload(
        MergeParams(num_elements=4000, leaf_cutoff=250)
    ),
    "photo": lambda: PhotoWorkload(PhotoParams(width=128, height=32)),
    "tsp": lambda: TspWorkload(TspParams(num_cities=12, branch_levels=4)),
}

#: pinned per-workload relative-error bounds (the CI gate).  Measured
#: interval-level errors at seed 0: tasks ~0.000 (disjoint footprints,
#: the closed form is near-exact), randomwalk ~0.127, tsp ~0.286,
#: photo ~0.338 (strided rows retain better than the model's uniform
#: eviction assumption), merge ~0.455 (conflict misses between
#: log-structured buffers, which the analytic backend averages away).
#: Bounds carry ~30-40% headroom so seed/scale jitter does not flake
#: the job, while a modelling regression (say, survival maths off by a
#: factor) still lands far outside every bound.
ORACLE_BOUNDS: Dict[str, float] = {
    "randomwalk": 0.20,
    "tasks": 0.05,
    "merge": 0.65,
    "photo": 0.45,
    "tsp": 0.40,
}


class IntervalTape(Observer):
    """Records every scheduling interval's ``(thread name, misses)``.

    Thread *names* rather than tids: dynamically-forking workloads
    (merge, tsp) assign tids in execution order, which may legitimately
    differ across backends when wakeup cycles differ.
    """

    def __init__(self) -> None:
        self.intervals: List[Tuple[str, int]] = []
        self.by_thread: Dict[str, int] = {}

    def on_block(self, cpu, thread, misses: int, finished: bool) -> None:
        self.intervals.append((thread.name, misses))
        self.by_thread[thread.name] = (
            self.by_thread.get(thread.name, 0) + misses
        )


def _run_tape(
    factory: Callable,
    backend: str,
    config: MachineConfig,
    seed: int,
) -> Tuple[IntervalTape, tuple]:
    """One fixture run: returns the interval tape and the signature."""
    machine = Machine(config, seed=seed, backend=backend)
    runtime = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
    tape = IntervalTape()
    runtime.add_observer(tape)
    factory().build(runtime)
    runtime.run()
    return tape, workload_signature(runtime)


def _relative_l1(
    sim: List[int], analytic: List[int]
) -> float:
    """``sum(|a_i - s_i|) / sum(s_i)`` (denominator floored at 1)."""
    total = sum(sim)
    err = sum(abs(a - s) for a, s in zip(analytic, sim))
    return err / max(1, total)


def cross_check(
    name: str,
    factory: Callable,
    config: MachineConfig = SMALL,
    seed: int = 0,
) -> Dict[str, object]:
    """Run one fixture under both backends and compare miss streams."""
    sim_tape, sim_sig = _run_tape(factory, "sim", config, seed)
    ana_tape, ana_sig = _run_tape(factory, "analytic", config, seed)

    aligned = [n for n, _ in sim_tape.intervals] == [
        n for n, _ in ana_tape.intervals
    ]
    if aligned:
        relerr = _relative_l1(
            [m for _, m in sim_tape.intervals],
            [m for _, m in ana_tape.intervals],
        )
    else:
        # wakeup cycles diverged enough to reorder intervals: compare
        # the schedule-independent per-thread totals instead
        names = sorted(set(sim_tape.by_thread) | set(ana_tape.by_thread))
        relerr = _relative_l1(
            [sim_tape.by_thread.get(n, 0) for n in names],
            [ana_tape.by_thread.get(n, 0) for n in names],
        )

    sim_total = sum(m for _, m in sim_tape.intervals)
    ana_total = sum(m for _, m in ana_tape.intervals)
    bound = ORACLE_BOUNDS.get(name)
    return {
        "workload": name,
        "sim_misses": sim_total,
        "analytic_misses": ana_total,
        "total_relerr": abs(ana_total - sim_total) / max(1, sim_total),
        "interval_relerr": relerr,
        "intervals_aligned": aligned,
        "intervals": len(sim_tape.intervals),
        "signature_equal": sim_sig == ana_sig,
        "bound": bound,
        "ok": (bound is None or relerr <= bound) and sim_sig == ana_sig,
    }


def run_oracle(
    workloads: Optional[Dict[str, Callable]] = None,
    config: MachineConfig = SMALL,
    seed: int = 0,
    report_path: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """The full sweep; optionally writes the JSON error-bound report.

    The report (one entry per workload, plus the pinned bounds) is what
    the ``analytic-oracle`` CI job uploads as an artifact, so a bound
    regression comes with the numbers that tripped it.
    """
    workloads = workloads if workloads is not None else ORACLE_WORKLOADS
    results = {
        name: cross_check(name, factory, config=config, seed=seed)
        for name, factory in workloads.items()
    }
    if report_path is not None:
        report = {
            "config": {
                "l2_lines": config.l2_lines,
                "num_cpus": config.num_cpus,
                "seed": seed,
            },
            "bounds": ORACLE_BOUNDS,
            "results": results,
        }
        directory = os.path.dirname(report_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return results


def format_oracle(results: Dict[str, Dict[str, object]]) -> str:
    """Plain-text summary table (the CI job log)."""
    lines = [
        "analytic-oracle: per-workload miss-count relative error",
        f"{'workload':<12}{'sim':>10}{'analytic':>10}{'relerr':>9}"
        f"{'bound':>8}{'aligned':>9}{'sig':>5}{'ok':>5}",
    ]
    for name, r in results.items():
        lines.append(
            f"{name:<12}{r['sim_misses']:>10}{r['analytic_misses']:>10}"
            f"{r['interval_relerr']:>9.3f}"
            f"{(r['bound'] if r['bound'] is not None else float('nan')):>8.2f}"
            f"{str(r['intervals_aligned']):>9}"
            f"{str(r['signature_equal'])[:1]:>5}{str(r['ok'])[:1]:>5}"
        )
    return "\n".join(lines)
