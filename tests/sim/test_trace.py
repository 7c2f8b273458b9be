"""Tests for trace recording and the offline footprint curve."""

import numpy as np
import pytest

from repro.machine.smp import Machine
from repro.sched.fcfs import FCFSScheduler
from repro.sim.trace import (
    ReferenceTraceRecorder,
    TraceBudgetExceeded,
    TracingRuntimeAdapter,
    footprint_curve_from_trace,
)
from repro.threads.events import Compute, Touch
from repro.threads.runtime import Runtime


class TestRecorder:
    def test_records_in_program_order(self):
        recorder = ReferenceTraceRecorder()
        recorder.record(1, np.asarray([5, 6]))
        recorder.record(1, np.asarray([7]))
        assert recorder.trace(1).tolist() == [5, 6, 7]

    def test_threads_separated(self):
        recorder = ReferenceTraceRecorder()
        recorder.record(1, np.asarray([5]))
        recorder.record(2, np.asarray([9]))
        assert recorder.trace(1).tolist() == [5]
        assert recorder.trace(2).tolist() == [9]
        assert recorder.threads() == [1, 2]

    def test_unknown_thread_empty(self):
        assert ReferenceTraceRecorder().trace(42).size == 0

    def test_strict_budget_raises(self):
        recorder = ReferenceTraceRecorder(max_total_refs=2)
        with pytest.raises(TraceBudgetExceeded):
            recorder.record(1, np.asarray([1, 2, 3]))

    def test_lenient_budget_truncates(self):
        recorder = ReferenceTraceRecorder(max_total_refs=2, strict=False)
        recorder.record(1, np.asarray([1, 2]))
        recorder.record(1, np.asarray([3]))
        assert recorder.truncated
        assert recorder.trace(1).tolist() == [1, 2]

    def test_storage_accounting(self):
        recorder = ReferenceTraceRecorder()
        recorder.record(1, np.arange(10))
        assert recorder.storage_bytes == 80

    def test_runtime_adapter_captures_touches(self, machine):
        rt = Runtime(machine, FCFSScheduler(model_scheduler_memory=False))
        recorder = ReferenceTraceRecorder()
        TracingRuntimeAdapter(rt, recorder)
        region = rt.alloc_lines("r", 8)

        def body():
            yield Touch(region.lines())
            yield Compute(10)
            yield Touch(region.lines()[:3])

        tid = rt.at_create(body)
        rt.run()
        assert recorder.trace(tid).size == 11


class TestFootprintReplay:
    def test_distinct_lines_grow_footprint(self):
        xs, ys = footprint_curve_from_trace(np.arange(10), cache_lines=16)
        assert ys[-1] == 10
        assert xs[-1] == 10

    def test_hits_do_not_sample(self):
        trace = np.asarray([1, 1, 1, 2])
        xs, ys = footprint_curve_from_trace(trace, cache_lines=16)
        assert xs.tolist() == [1, 2]  # two misses only

    def test_self_conflict_keeps_footprint_flat(self):
        trace = np.asarray([1, 17, 1, 17])  # same index in a 16-line cache
        xs, ys = footprint_curve_from_trace(trace, cache_lines=16)
        assert xs.size == 4  # every access misses
        assert ys.max() == 1  # but only one line ever resident

    def test_empty_trace(self):
        xs, ys = footprint_curve_from_trace(np.empty(0), cache_lines=16)
        assert xs.size == 0

    def test_invalid_cache_rejected(self):
        with pytest.raises(ValueError):
            footprint_curve_from_trace(np.arange(3), cache_lines=0)
