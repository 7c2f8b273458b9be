"""Per-layer attribution for the traced run.

The benchmark wraps the public entry points of each layer at class level
(from this file; nothing under ``src/`` changes), records one span per
call -- layer, start, end, parent span, cell -- in memory, and writes the
spans out when the run ends.  A layer's self time is the duration of its
spans minus the part covered by their child spans.

Two private methods are wrapped because they are the only entry point of
work a layer owns: ``Machine._invalidate_remote_copies`` (the
directory's holder walk behind write invalidation) and
``FootprintTracer._apply`` (the tracer's install/evict listener).  A
method or class a later version of the program lacks is skipped, so its
layer reads zero instead of the benchmark failing.
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_SCHED = ("pick", "thread_created", "thread_ready", "thread_dispatched",
          "thread_blocked", "has_runnable", "idle_pick_cost",
          "account_idle_picks")

#: (layer, module, class or None for a module function, names)
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("workloads", "cells", None, ("make_app",)),
    ("workloads", "cells", "_Capture", ("build", "setup")),
    ("threads.runtime", "repro.threads.runtime", "Runtime",
     ("run", "at_create", "declare_state", "alloc", "alloc_lines",
      "at_share", "at_periodic")),
    ("sim.events", "repro.sim.events", "EventEngine", ("run",)),
    ("sim.events", "repro.sim.events", "EventQueue",
     ("fire_due", "schedule", "pop", "peek", "emit", "cancel")),
    ("sched", "repro.sched.base", "Scheduler", _SCHED),
    ("sched", "repro.sched.fcfs", "FCFSScheduler", _SCHED),
    ("sched", "repro.sched.locality", "LocalityScheduler", _SCHED),
    ("sched", "repro.sched.static", "StaticScheduler", _SCHED),
    ("machine.smp", "repro.machine.smp", "Machine",
     ("touch", "fetch", "compute", "flush_all")),
    ("machine.smp", "repro.machine.processor", "Processor",
     ("compute", "touch_data", "fetch_instructions")),
    ("machine.vm", "repro.machine.vm", "VirtualMemory",
     ("translate_lines", "translate_page", "reverse_line", "reverse_lines")),
    ("machine.vm", "repro.machine.tlb", "TLB", ("access",)),
    ("machine.cache", "repro.machine.hierarchy", "CacheHierarchy",
     ("access_data", "access_instructions", "invalidate", "flush")),
    ("machine.cache", "repro.machine.cache", "DirectMappedCache",
     ("access", "invalidate", "flush")),
    ("machine.cache", "repro.machine.cache", "SetAssociativeCache",
     ("access", "invalidate", "flush")),
    ("machine.directory", "repro.machine.smp", "LineDirectory",
     ("add", "remove", "count_remote", "holders", "held_by_other",
      "shared_with_others")),
    ("machine.directory", "repro.machine.smp", "Machine",
     ("_invalidate_remote_copies",)),
    ("machine.counters", "repro.machine.counters", "PerformanceCounters",
     ("record", "read", "reset", "configure")),
    ("machine.counters", "repro.machine.counters", "MissCounterView",
     ("interval_misses",)),
    ("machine.analytic", "repro.machine.analytic", "AnalyticHierarchy",
     ("access_data", "access_instructions", "invalidate", "flush",
      "expected_resident")),
    ("machine.analytic", "repro.machine.analytic", "AnalyticCache",
     ("access", "invalidate", "flush", "expected_resident")),
    ("sim.tracer", "repro.sim.tracer", "FootprintTracer",
     ("on_state_declared", "observed", "observed_all", "_apply")),
    ("sim.tracer", "repro.sim.driver", "_WorkThreadSampler",
     ("arm", "on_touch")),
)

#: every layer, in report order
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


class SpanRecorder:
    """Spans kept in compact in-memory arrays, plus per-layer tallies."""

    def __init__(self) -> None:
        self.names: List[str] = ["cell", *LAYER_NAMES]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.cell = array("H")
        self.cell_keys: List[str] = []
        #: open spans: [span index, seconds covered by children]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {name: 0.0 for name in self.names}
        self.calls: Dict[str, int] = {name: 0 for name in self.names}
        #: counts that need a method's arguments or result
        self.counts: Dict[str, int] = {
            "sched.picks": 0, "sched.pick_hits": 0, "sched.overhead_instr": 0,
            "machine.smp.touches": 0, "machine.counters.records": 0,
        }
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer_id: int) -> None:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.cell.append(len(self.cell_keys) - 1)
        self.end.append(0.0)
        self._stack.append([index, 0.0])
        self.start.append(perf_counter())

    def _close(self) -> None:
        t1 = perf_counter()
        index, children = self._stack.pop()
        self.end[index] = t1
        duration = t1 - self.start[index]
        name = self.names[self.layer[index]]
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def begin_cell(self, key: str) -> None:
        """Open the root span of a cell; its spans share the cell's id."""
        while self._stack:
            self._close()
        self.cell_keys.append(key)
        self._open(0)

    def end_cells(self) -> None:
        while self._stack:
            self._close()

    # -- wrapping ------------------------------------------------------------

    def _after(self, layer: str, cls_name: Optional[str], name: str):
        """The tally a wrapped method feeds from its arguments or result."""
        counts = self.counts
        if layer == "sched" and name == "pick":
            def after(result, args):
                counts["sched.picks"] += 1
                counts["sched.pick_hits"] += result[0] is not None
                counts["sched.overhead_instr"] += result[1]
        elif layer == "sched" and name == "account_idle_picks":
            # failed picks the event engine stepped virtually
            def after(result, args):
                counts["sched.picks"] += args[1]
        elif layer == "sched" and name.startswith("thread_"):
            def after(result, args):
                counts["sched.overhead_instr"] += result
        elif (cls_name, name) == ("Machine", "touch"):
            def after(result, args):
                counts["machine.smp.touches"] += 1
        elif name == "record":
            def after(result, args):
                counts["machine.counters.records"] += 1
        else:
            after = None
        return after

    def _wrap(self, layer: str, fn: Callable, after) -> Callable:
        layer_id = self._ids[layer]
        opened, close = self._open, self._close

        def traced(*args, **kwargs):
            opened(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for layer, mod_name, cls_name, names in LAYERS:
            module = importlib.import_module(mod_name)
            owner = module if cls_name is None else getattr(module, cls_name, None)
            if owner is None:
                continue
            for name in names:
                if cls_name is None:
                    fn = getattr(owner, name, None)
                else:
                    fn = vars(owner).get(name)
                if not callable(fn):
                    continue
                self._undo.append((owner, name, fn))
                after = self._after(layer, cls_name, name)
                setattr(owner, name, self._wrap(layer, fn, after))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._undo:
            owner, name, fn = self._undo.pop()
            setattr(owner, name, fn)

    # -- output --------------------------------------------------------------

    def write(self, path: str, seed: int) -> None:
        """Write the spans (``.npz``) and their layer/cell names (``.json``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path + ".npz",
            layer=np.frombuffer(self.layer, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            cell=np.frombuffer(self.cell, dtype=np.uint16),
        )
        with open(path + ".json", "w") as fh:
            json.dump({"seed": seed, "layers": self.names,
                       "cells": self.cell_keys, "spans": len(self.start)}, fh)
