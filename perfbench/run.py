"""End-to-end benchmark of the simulator; see perfbench/README.md.

    python3 perfbench/run.py --workload smp_sim --seed 0 --seconds 15 --trace 0

One client in one process runs the workload's cells back to back, sweep
after sweep, until ``--seconds`` have been measured, and checks every
cell.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates plain sweeps with sweeps in which every layer is wrapped, and
reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import record

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: what a user pays on every CLI call before any command runs
SETUP_CODE = "import repro.cli; repro.cli.build_parser()"
#: fresh interpreters timed per run, spread over the run; the median is
#: reported
SETUP_SAMPLES = 3
#: plain/traced sweep pairs in a traced run
TRACE_REPEATS = 3
#: packages whose import self time the traced run attributes
IMPORT_ROOTS = ("numpy", "scipy", "repro")


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup_seconds() -> float:
    """Seconds from a fresh interpreter's start to the CLI parser built."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                   check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def import_seconds() -> Dict[str, float]:
    """Import self time per package, from ``-X importtime``."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", SETUP_CODE],
        env=_child_env(), check=True, capture_output=True, text=True,
        timeout=120)
    totals = dict.fromkeys(IMPORT_ROOTS, 0.0)
    for line in child.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        root = name.strip().split(".")[0]
        if root in totals and self_us.strip().isdigit():
            totals[root] += int(self_us) / 1e6
    return {f"setup.import.{k}_s": v for k, v in totals.items()}


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric units from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Sweeper:
    """Runs and checks one workload's sweeps; tallies attempted/failed."""

    def __init__(self, cells_mod, workload: str, seed: int) -> None:
        self.cells_mod = cells_mod
        self.cells = cells_mod.WORKLOADS[workload]
        self.seed = seed
        pinned = record.load(seed)
        self.reference = pinned.get(workload) if pinned else None
        # the analytic workload's accuracy and signature reference; read
        # (or computed in a child process) before any timing starts
        self.sim_reference = (
            record.sim_reference(seed) if workload == "smp_analytic" else None)
        self.first: Optional[Dict[str, dict]] = None
        self.attempted = 0
        #: failed cell runs, and the first reason seen per cell
        self.failed = 0
        self.failures: Dict[str, str] = {}

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        self.failures.setdefault(key, why)

    def sweep(self, on_cell=None) -> Tuple[float, Dict[str, dict]]:
        """One timed sweep: run every cell, then check them."""
        t0 = perf_counter()
        outputs = self.cells_mod.run_sweep(self.cells, self.seed, on_cell)
        failed = self.cells_mod.check_sweep(
            self.cells, outputs, self.reference, self.sim_reference)
        elapsed = perf_counter() - t0
        # the first sweep is untraced: this also asserts that tracing
        # leaves every simulated counter as it was
        if self.first is None:
            self.first = outputs
        pinned = self.cells_mod.pinned
        for cell in self.cells:
            key = cell.key
            same = pinned(outputs[key]) == pinned(self.first[key])
            if key not in failed and not same:
                failed[key] = "outputs differ from the run's first sweep"
        self.attempted += len(self.cells)
        for key, why in failed.items():
            self.fail(key, why)
        return elapsed, outputs

    def instructions(self, outputs: Dict[str, dict]) -> int:
        return sum(o.get("sim_instructions", 0) for o in outputs.values())


def measure(sweeper: Sweeper, seconds: float) -> Dict[str, float]:
    """The end-to-end metrics: sweeps until ``seconds`` are measured.

    ``sweep_s`` is the median sweep and ``setup_s`` the median of
    interpreters started at even intervals through the run, so both
    sample the host's speed across the whole run.
    """
    setups: List[float] = []
    sweeps: List[float] = []
    while True:
        due = min(SETUP_SAMPLES, SETUP_SAMPLES * sum(sweeps) / seconds + 1)
        if len(setups) < due:
            setups.append(setup_seconds())
        elapsed, outputs = sweeper.sweep()
        sweeps.append(elapsed)
        # stop rather than overshoot by more than half a sweep
        if sum(sweeps) + statistics.median(sweeps) / 2 >= seconds:
            break
    sweep_s = statistics.median(sweeps)
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": sweep_s,
        "sim_mips": sweeper.instructions(outputs) / 1e6 / sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "miss_error_factor": sweeper.cells_mod.miss_error_factor(
            sweeper.cells, outputs, sweeper.sim_reference),
    }


def measure_traced(sweeper: Sweeper, workload: str) -> Dict[str, float]:
    """The per-layer metrics: plain and traced sweeps, alternated.

    Self times and wrapper counts are per traced sweep (their mean over
    the traced sweeps); the tracing overhead is the median traced sweep
    over the median plain one.
    """
    import tracing

    metrics = import_seconds()
    recorder = tracing.SpanRecorder()
    plain_s, traced_s = [], []
    for _ in range(TRACE_REPEATS):
        plain_s.append(sweeper.sweep()[0])
        recorder.install()
        try:
            elapsed, traced = sweeper.sweep(
                on_cell=lambda cell: recorder.begin_cell(cell.key))
            recorder.end_cells()
        finally:
            recorder.uninstall()
        traced_s.append(elapsed)
    # one file per workload, overwritten by its next traced run
    recorder.write(os.path.join(ROOT, ".bench_build", "perfbench",
                                f"spans-{workload}"), sweeper.seed)

    counts: Dict[str, int] = {}
    for out in traced.values():
        for name, value in out.get("layers", {}).items():
            counts[name] = counts.get(name, 0) + value
    counts.update((k, v // TRACE_REPEATS) for k, v in recorder.counts.items())
    for layer in (*tracing.LAYER_NAMES, "cell"):
        metrics[f"{layer}.self_s"] = recorder.self_s[layer] / TRACE_REPEATS
    metrics["workloads.build_s"] = metrics.pop("workloads.self_s")
    for layer in ("sched", "machine.vm", "machine.directory",
                  "machine.analytic", "sim.tracer"):
        metrics[f"{layer}.calls"] = recorder.calls[layer] // TRACE_REPEATS
    for name in ("threads.runtime.loop_steps", "threads.runtime.events",
                 "threads.runtime.context_switches",
                 "sim.events.virtual_steps", "sim.events.queue_pops",
                 "sched.picks", "sched.steals", "sched.overhead_instr",
                 "machine.smp.touches", "machine.vm.page_faults",
                 "machine.cache.refs", "machine.cache.misses",
                 "machine.cache.invalidated_lines",
                 "machine.directory.remote_misses",
                 "machine.counters.records", "machine.analytic.refs"):
        metrics[name] = counts.get(name, 0)
    metrics["sched.pick_hit_ratio"] = (
        counts["sched.pick_hits"] / counts["sched.picks"]
        if counts["sched.picks"] else 0.0)
    metrics["machine.cache.hit_ratio"] = (
        counts["machine.cache.hits"] / counts["machine.cache.refs"]
        if counts["machine.cache.refs"] else 0.0)
    # accuracy is scored on the analytic workload only: sim cells are
    # their own reference, which would read as a perfect score
    cells_mod, ref = sweeper.cells_mod, sweeper.sim_reference
    metrics["machine.analytic.miss_relerr"] = (
        cells_mod.miss_relerr(sweeper.cells, traced, ref) if ref else 0.0)
    metrics["machine.analytic.rank_agree"] = (
        cells_mod.rank_agree(sweeper.cells, traced, ref) if ref else 0.0)
    metrics["trace_overhead"] = (statistics.median(traced_s)
                                 / statistics.median(plain_s))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cells

    if args.workload not in cells.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(cells.WORKLOADS)}")
    end_to_end, per_layer = declared_metrics()
    sweeper = Sweeper(cells, args.workload, args.seed)
    if args.trace:
        values, units = measure_traced(sweeper, args.workload), per_layer
    else:
        values, units = measure(sweeper, args.seconds), end_to_end
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{sweeper.attempted} cell runs, {sweeper.failed} failed")
    for key, why in sorted(sweeper.failures.items()):
        print(f"  FAILED {key}: {why}")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:>14.6g} {unit}")
    result = {
        "correct": not sweeper.failures,
        "attempted": sweeper.attempted,
        "failed": sweeper.failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
