"""The benchmark's workloads: their cells, how a cell runs, how it is checked.

A *cell* is one app x policy x cpus x backend run, driven through the
program's public entry points (``repro.sim.driver.run_performance`` and
``run_monitored``), exactly as ``repro run``/``repro compare``/``repro
experiment fig5`` drive them.  Every cell builds a fresh machine, so the
modelled caches start cold.  The benchmark seed drives the VM placement
seed and every app input seed that exists.

Input sizes are the repo defaults scaled down (see ``_PERFORMANCE``) so
that a run can time many sweeps; each workload keeps its full mix of
apps, policies and cpu counts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.machine.configs import E5000_8CPU, ULTRA1
from repro.sched import SCHEDULERS
from repro.sim.driver import run_monitored, run_performance, workload_signature
from repro.workloads import (
    BarnesLike,
    FmmLike,
    MergeMonitored,
    MergeParams,
    MergeWorkload,
    OceanLike,
    PhotoMonitored,
    PhotoParams,
    PhotoWorkload,
    RaytraceLike,
    ServerParams,
    ServerWorkload,
    TasksParams,
    TasksWorkload,
    TspMonitored,
    TspParams,
    TspWorkload,
    TypecheckerLike,
)

#: the counters a performance cell is checked on (bit-identical contract)
PERF_COUNTERS = ("cycles", "l2_misses", "l2_refs", "instructions",
                 "context_switches")


@dataclass(frozen=True)
class Cell:
    """One run of one app; ``policy``/``cpus`` are fixed for monitored apps."""

    app: str
    policy: str = "fcfs"
    cpus: int = 1
    backend: str = "sim"
    engine: str = "stepped"
    monitored: bool = False

    @property
    def key(self) -> str:
        kind = "mon" if self.monitored else self.engine
        return f"{self.app}/{self.policy}/{self.cpus}/{self.backend}/{kind}"


# -- inputs ------------------------------------------------------------------

def make_app(cell: Cell, seed: int):
    """The cell's workload object, built from the benchmark seed."""
    if cell.monitored:
        return _MONITORED[cell.app](seed)
    return _PERFORMANCE[cell.app](seed)


# Sizes are the repo defaults cut so that a sweep takes 0.3 to 1.4 s and a
# run times 10 to 40 of them (README.md, "Why sweeps are short").
# tasks runs 128 of 256 tasks for 3 of 25 periods (still more state than
# one cpu's E-cache holds), merge sorts 6,250 of 100k elements, photo
# filters 32 of 512 rows, tsp branches 4 of 8 levels, and the server
# keeps the paper-scale arrival spacing and sleep with 30 of 400 requests
# and 1 of 4 service periods.  Of the monitored apps, barnes runs 400 of
# 2,500 bodies for 1 of 3 timesteps, fmm a 16x16 of 32x32 grid with 4 of
# 8 particles per cell, ocean a 128x128 of 256x256 grid for 1 of 3
# sweeps, merge sorts 40k of 150k elements, photo retouches 128 of 512
# rows, tsp visits 40 of 80 nodes and typechecker checks 750 of 9,000 AST
# nodes over 600 of 1,200 types; raytrace keeps its defaults.
_PERFORMANCE: Dict[str, Callable[[int], object]] = {
    "tasks": lambda seed: TasksWorkload(TasksParams(num_tasks=128, periods=3)),
    "merge": lambda seed: MergeWorkload(
        MergeParams(num_elements=6_250, seed=seed)),
    "photo": lambda seed: PhotoWorkload(
        PhotoParams(height=32, image_seed=seed)),
    "tsp": lambda seed: TspWorkload(TspParams(branch_levels=4, seed=seed)),
    "server": lambda seed: ServerWorkload(
        replace(ServerParams.paper_scale(), num_requests=30, periods=1)),
}

_MONITORED: Dict[str, Callable[[int], object]] = {
    "barnes": lambda seed: BarnesLike(num_bodies=400, timesteps=1, seed=seed),
    "fmm": lambda seed: FmmLike(grid=16, particles_per_cell=4, seed=seed),
    "ocean": lambda seed: OceanLike(grid=128, sweeps=1, seed=seed),
    "merge": lambda seed: MergeMonitored(num_elements=40_000, seed=seed),
    "photo": lambda seed: PhotoMonitored(height=128),
    "tsp": lambda seed: TspMonitored(num_nodes=40, seed=seed),
    "typechecker": lambda seed: TypecheckerLike(
        num_types=600, ast_nodes=750, seed=seed),
    "raytrace": lambda seed: RaytraceLike(seed=seed),
}


def _smp(backend: str) -> List[Cell]:
    return [
        Cell(app, policy, 4, backend)
        for app in ("tasks", "merge", "photo", "tsp")
        for policy in ("fcfs", "lff", "crt")
    ]


#: workload name -> its cells, run back to back in this order
WORKLOADS: Dict[str, List[Cell]] = {
    "smp_sim": _smp("sim"),
    "smp_analytic": _smp("analytic"),
    "sparse_server": [
        Cell("server", policy, cpus, "sim", "event")
        for cpus in (8, 32)
        for policy in ("fcfs", "lff")
    ],
    "footprint_trace": [Cell(app, monitored=True) for app in _MONITORED],
}


def machine_config(cpus: int):
    """The platform ``repro run --cpus N`` uses for ``N`` cpus."""
    if cpus == 1:
        return ULTRA1
    if cpus == 8:
        return E5000_8CPU
    return ULTRA1.with_cpus(cpus)


# -- running -----------------------------------------------------------------

class _Capture:
    """Forwards to the app and keeps the runtime it is built into, so the
    cell can read the per-thread signature and machine totals after the
    entry point returns."""

    def __init__(self, app) -> None:
        self.app = app
        self.runtime = None

    def __getattr__(self, name):
        return getattr(self.app, name)

    def build(self, runtime) -> None:
        self.runtime = runtime
        self.app.build(runtime)

    def setup(self, runtime) -> None:
        self.runtime = runtime
        self.app.setup(runtime)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def run_cell(cell: Cell, seed: int) -> dict:
    """Run one cell; returns its simulated outputs (no host timings)."""
    app = _Capture(make_app(cell, seed))
    config = machine_config(cell.cpus)
    if cell.monitored:
        res = run_monitored(app, config, seed=seed, engine=cell.engine,
                            backend=cell.backend)
        out = {
            "samples": int(res.misses.size),
            "final_misses": int(res.misses[-1]) if res.misses.size else 0,
            "final_observed": int(res.observed[-1]) if res.observed.size else 0,
            "series": _digest(res.misses, res.observed),
            "cache_lines": res.cache_lines,
            "series_ok": _series_ok(res),
        }
    else:
        res = run_performance(app, config, SCHEDULERS[cell.policy](),
                              seed=seed, engine=cell.engine,
                              backend=cell.backend)
        out = {name: int(getattr(res, name)) for name in PERF_COUNTERS}
    runtime = app.runtime
    out["sim_instructions"] = int(runtime.machine.total_instructions())
    out["signature"] = hashlib.sha256(
        repr(workload_signature(runtime)).encode()
    ).hexdigest()[:16]
    out["layers"] = layer_counts(runtime)
    return out


def pinned(out: dict) -> dict:
    """The part of a cell's outputs that must repeat bit for bit."""
    return {k: v for k, v in out.items() if k != "layers"}


def layer_counts(runtime) -> Dict[str, int]:
    """The model's own per-layer counters after a run (not pinned: a
    faster layer may legitimately do less of this work)."""
    machine = runtime.machine
    l2 = [cpu.l2.stats for cpu in machine.cpus]
    sim = machine.backend == "sim"
    return {
        "threads.runtime.loop_steps": getattr(runtime, "loop_steps", 0),
        "threads.runtime.events": runtime.events_executed,
        "threads.runtime.context_switches": runtime.context_switches,
        "sim.events.virtual_steps": getattr(runtime, "virtual_steps", 0),
        "sim.events.queue_pops": getattr(runtime.event_queue, "pops", 0),
        "sched.steals": getattr(runtime.scheduler, "steals", 0),
        "machine.vm.page_faults": getattr(machine.vm, "page_faults", 0),
        "machine.cache.refs": sum(s.refs for s in l2) if sim else 0,
        "machine.cache.hits": sum(s.hits for s in l2) if sim else 0,
        "machine.cache.misses": sum(s.misses for s in l2) if sim else 0,
        "machine.cache.invalidated_lines":
            sum(s.invalidations for s in l2) if sim else 0,
        "machine.directory.remote_misses":
            sum(getattr(cpu, "remote_misses", 0) for cpu in machine.cpus),
        "machine.analytic.refs": 0 if sim else sum(s.refs for s in l2),
    }


def _series_ok(res) -> bool:
    """Footprint-trace invariants: after the flush every resident state
    line arrived by a miss, so 0 <= observed <= misses, observed fits the
    cache, and the cumulative miss count never falls."""
    m, o = res.misses, res.observed
    return bool(
        m.size > 0
        and (np.diff(m) >= 0).all()
        and (o >= 0).all()
        and (o <= m).all()
        and (o <= res.cache_lines).all()
    )


def run_sweep(cells: List[Cell], seed: int,
              on_cell: Optional[Callable[[Cell], None]] = None) -> Dict[str, dict]:
    """Run cells back to back; a raising cell is recorded as ``error``."""
    outputs: Dict[str, dict] = {}
    for cell in cells:
        if on_cell is not None:
            on_cell(cell)
        try:
            outputs[cell.key] = run_cell(cell, seed)
        except Exception as exc:  # a failed cell is counted, not fatal
            outputs[cell.key] = {"error": f"{type(exc).__name__}: {exc}"}
    return outputs


# -- checking ----------------------------------------------------------------

def check_sweep(cells: List[Cell], outputs: Dict[str, dict],
                reference: Optional[Dict[str, dict]],
                sim_reference: Optional[Dict[str, dict]]) -> Dict[str, str]:
    """Failed cells of one sweep, as ``{cell key: reason}``.

    ``reference`` holds this workload's pinned outputs for the seed (or
    ``None`` when the seed has none); sim cells must match it exactly.
    ``sim_reference`` holds the sim outputs of the same apps (for the
    analytic workload), whose per-thread signatures every cell of the
    app must share.
    """
    failed: Dict[str, str] = {}
    by_app: Dict[str, set] = {}
    for cell in cells:
        out = outputs[cell.key]
        if "error" in out:
            failed[cell.key] = out["error"]
            continue
        if cell.monitored and not out["series_ok"]:
            failed[cell.key] = "footprint series violates its invariants"
        if not cell.monitored and not 0 <= out["l2_misses"] <= out["l2_refs"]:
            failed[cell.key] = "E-misses outside [0, E-refs]"
        if cell.backend == "sim" and reference is not None:
            want = reference.get(cell.key)
            got = {k: v for k, v in out.items() if k in (want or {})}
            if want is None or got != want:
                failed[cell.key] = f"counters {got} != reference {want}"
        by_app.setdefault(cell.app, set()).add(out["signature"])
    if sim_reference is not None:
        for cell in cells:
            twin = sim_reference.get(sim_key(cell), {"error": "missing"})
            if "error" in twin:
                failed.setdefault(cell.key, f"sim reference: {twin['error']}")
            else:
                by_app.setdefault(cell.app, set()).add(twin["signature"])
    for cell in cells:
        if cell.key not in failed and len(by_app.get(cell.app, ())) > 1:
            failed[cell.key] = "per-thread signature differs across runs"
    return failed


# -- accuracy against the sim reference --------------------------------------

def _pairs(cells: List[Cell], outputs: Dict[str, dict],
           sim_reference: Optional[Dict[str, dict]]):
    """``(cell, output, sim output)`` for each performance cell that ran
    in both; sim cells are their own reference."""
    for cell in cells:
        out = outputs[cell.key]
        twin = out if cell.backend == "sim" else (
            (sim_reference or {}).get(sim_key(cell), {"error": "missing"}))
        if not cell.monitored and "error" not in out and "error" not in twin:
            yield cell, out, twin


def miss_error_factor(cells: List[Cell], outputs: Dict[str, dict],
                      sim_reference: Optional[Dict[str, dict]]) -> float:
    """Geometric mean over cells of max(a, s) / min(a, s), where ``a`` is
    the cell's E-misses and ``s`` those of the sim run of the same cell
    (1.0 = exact)."""
    logs = [abs(math.log(max(out["l2_misses"], 1) / max(twin["l2_misses"], 1)))
            for _, out, twin in _pairs(cells, outputs, sim_reference)]
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


def miss_relerr(cells: List[Cell], outputs: Dict[str, dict],
                sim_reference: Optional[Dict[str, dict]]) -> float:
    """Mean over cells of |analytic - sim| / sim E-misses."""
    errs = [abs(out["l2_misses"] - twin["l2_misses"]) / max(1, twin["l2_misses"])
            for _, out, twin in _pairs(cells, outputs, sim_reference)]
    return sum(errs) / len(errs) if errs else 0.0


def rank_agree(cells: List[Cell], outputs: Dict[str, dict],
               sim_reference: Optional[Dict[str, dict]]) -> float:
    """Share of apps whose policy order by simulated cycles matches sim's."""
    by_app: Dict[str, list] = {}
    for cell, out, twin in _pairs(cells, outputs, sim_reference):
        by_app.setdefault(cell.app, []).append(
            (cell.policy, out["cycles"], twin["cycles"]))
    agree = 0
    for runs in by_app.values():
        mine = sorted(runs, key=lambda r: (r[1], r[0]))
        ref = sorted(runs, key=lambda r: (r[2], r[0]))
        agree += [r[0] for r in mine] == [r[0] for r in ref]
    return agree / len(by_app) if by_app else 0.0


def sim_key(cell: Cell) -> str:
    """The key of the sim-backend twin of ``cell``."""
    return replace(cell, backend="sim").key
