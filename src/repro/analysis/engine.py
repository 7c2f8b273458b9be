"""Analysis driver: run the passes over workloads, assemble the report.

One :func:`analyze_workload` call runs a workload once at *lint scale*
(small parameters, the tiny test machine, 2 cpus, FCFS with scheduler
memory off, seed 0) with all three dynamic monitors attached, plus the
static lock scan of the workload's module.  Everything downstream of the
fixed seed is deterministic, so the assembled report is byte-identical
across runs -- the property the CI gate and the checked-in baseline
depend on.

The static lock scan and the annotation diff are pure analysis; the
dynamic monitors are ordinary :class:`~repro.threads.runtime.Observer`
instances, so attaching them cannot change scheduling decisions or
results (the same argument PR 1's invariant checker rests on).

A run that deadlocks still yields a report: the lock-order findings
collected up to the deadlock are exactly what the pass exists to
surface ahead of the runtime's own :class:`DeadlockError`.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.annotations import AnnotationAuditor
from repro.analysis.diagnostics import Diagnostic, Report
from repro.analysis.locks import LockOrderMonitor, scan_workload_class
from repro.analysis.races import RaceSanitizer

PASSES = ("annotations", "locks", "races")

#: cap on events per analyzed run, so a buggy fixture cannot hang CI
MAX_ANALYZE_EVENTS = 2_000_000


def _lint_workloads() -> Dict[str, Callable[[], object]]:
    """Small-scale instances of the shipped workloads, by paper name."""
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

    return {
        "tasks": lambda: TasksWorkload(TasksParams(num_tasks=16, periods=3)),
        "merge": lambda: MergeWorkload(
            MergeParams(num_elements=2000, leaf_cutoff=250)
        ),
        "photo": lambda: PhotoWorkload(
            PhotoParams(width=128, height=24, halo=2, compute_per_row=500)
        ),
        "tsp": lambda: TspWorkload(
            TspParams(num_cities=10, branch_levels=3, max_threads=64)
        ),
    }


def lint_workload_names() -> List[str]:
    """The analyzable workload names, sorted."""
    return sorted(_lint_workloads())


def analyze_workload(
    name: str,
    workload_factory: Optional[Callable[[], object]] = None,
    passes: Tuple[str, ...] = PASSES,
    seed: int = 0,
    with_inference: bool = True,
    injector=None,
) -> List[Diagnostic]:
    """Run one workload under full instrumentation; return its findings.

    ``workload_factory`` overrides the registry (used by tests to analyze
    fixture workloads); ``injector`` threads a fault injector through so
    forged-edge output can be checked end-to-end.
    """
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched.fcfs import FCFSScheduler
    from repro.threads.errors import DeadlockError, StepBudgetExceeded
    from repro.threads.runtime import Runtime

    for name_ in passes:
        if name_ not in PASSES:
            raise ValueError(f"unknown analysis pass {name_!r}")
    if workload_factory is None:
        workload_factory = _lint_workloads()[name]
    workload = workload_factory()

    machine = Machine(SMALL.with_cpus(2), seed=seed)
    runtime = Runtime(
        machine,
        FCFSScheduler(model_scheduler_memory=False),
        injector=injector,
    )
    auditor = (
        AnnotationAuditor(runtime) if "annotations" in passes else None
    )
    locks = LockOrderMonitor(runtime) if "locks" in passes else None
    races = RaceSanitizer(runtime) if "races" in passes else None
    if auditor is not None and with_inference:
        from repro.inference.infer import SharingInference

        auditor.track_inference(SharingInference(runtime, seed=seed))

    workload.build(runtime)
    run_findings: List[Diagnostic] = []
    try:
        runtime.run(max_events=MAX_ANALYZE_EVENTS)
    except DeadlockError as exc:
        run_findings.append(
            Diagnostic(
                code="LK001",
                message=f"run deadlocked under analysis: {exc}",
                source=f"locks({name})",
            )
        )
    except StepBudgetExceeded:
        run_findings.append(
            Diagnostic(
                code="LK002",
                message=(
                    f"run exceeded {MAX_ANALYZE_EVENTS} events under "
                    "analysis; findings cover the executed prefix"
                ),
                source=f"locks({name})",
            )
        )

    found: List[Diagnostic] = []
    if auditor is not None:
        anchor = _workload_anchor(type(workload))
        found.extend(auditor.diagnose(f"annotations({name})", anchor=anchor))
    if locks is not None:
        static_graph, _rel = scan_workload_class(type(workload))
        found.extend(static_graph.cycle_diagnostics(f"locks({name}):static"))
        found.extend(locks.diagnose(f"locks({name})"))
        found.extend(run_findings)
    if races is not None:
        found.extend(races.diagnose(f"races({name})"))
    found.sort(key=lambda d: d.sort_key)
    return found


def _workload_anchor(workload_cls) -> Optional[str]:
    try:
        source_file = inspect.getsourcefile(workload_cls)
        _lines, lineno = inspect.getsourcelines(workload_cls)
    except (OSError, TypeError):
        return None
    idx = source_file.rfind("repro/")
    rel = source_file[idx:] if idx >= 0 else source_file
    return f"{rel}:{lineno}"


def run_analysis(
    workloads: Optional[List[str]] = None,
    passes: Tuple[str, ...] = PASSES,
    baseline_path: Optional[str] = None,
) -> Report:
    """Analyze the named workloads (default: all) into one report.

    The determinism lint and the model checker are their own commands
    (``repro lint``, ``repro mc``) and are not folded in here.
    """
    from repro.analysis.diagnostics import load_baseline

    names = workloads if workloads else lint_workload_names()
    report = Report()
    for name in sorted(names):
        report.extend(analyze_workload(name, passes=passes))
    if baseline_path is not None:
        report.baseline = load_baseline(baseline_path)
    report.finalize()
    return report
