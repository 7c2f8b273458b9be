"""The lines the schedulers' own data-structure touches write.

The kernel touches build their sorted, de-duplicated lines as plain lists
of ints.  These tests pin them to the numpy formulas they replaced.
"""

import numpy as np
import pytest

from repro.sched.fcfs import FCFSScheduler
from repro.sched.locality import ENTRIES_PER_LINE, make_lff
from repro.threads.runtime import Runtime


class _Sized:
    """Stands in for a heap of a given size (only its length is read)."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size


def _old_entry_lines(first, tids, entry_lines):
    return np.unique(
        first
        + (np.asarray(sorted(set(tids)), dtype=np.int64) // 2) % entry_lines
    ).tolist()


def _old_heap_lines(first, size, heap_lines):
    pos = max(1, size)
    line_idxs = set()
    while pos >= 1:
        line_idxs.add((pos // ENTRIES_PER_LINE) % heap_lines)
        pos >>= 1
    return (
        first
        + np.fromiter(sorted(line_idxs), dtype=np.int64, count=len(line_idxs))
    ).tolist()


def _is_int_list(lines):
    return type(lines) is list and all(type(v) is int for v in lines)


@pytest.fixture
def lff(smp):
    scheduler = make_lff(model_scheduler_memory=True)
    runtime = Runtime(smp, scheduler)
    touched = []
    scheduler._kernel_touch = lambda cpu, lines: touched.append((cpu, lines))
    yield scheduler, touched
    del runtime


def test_entry_lines_match_numpy_formula(lff):
    scheduler, touched = lff
    n = scheduler._entry_lines
    cases = [
        [5],
        [5, 5, 4],  # duplicate tids, and two tids sharing a line
        [9, 1, 7, 1, 3],
        [0, 2 * n, 2 * n + 1, 3, 4 * n + 3],  # wrap modulo _entry_lines
        list(range(0, 6 * n, 7)),
    ]
    for cpu in (0, 3):
        first = scheduler._entry_regions[cpu].first_line
        for tids in cases:
            touched.clear()
            scheduler._touch_entries(cpu, tids, on_cpu=1)
            [(on_cpu, lines)] = touched
            assert on_cpu == 1
            assert _is_int_list(lines)
            assert lines == _old_entry_lines(first, tids, n)


def test_heap_lines_match_numpy_formula(lff):
    scheduler, touched = lff
    heap_lines = scheduler._heap_lines
    sizes = [0, 1] + [s for k in range(1, 13) for s in (2 ** k, 2 ** k + 1)]
    first = scheduler._heap_regions[2].first_line
    for size in sizes:
        scheduler.heaps[2] = _Sized(size)
        touched.clear()
        scheduler._touch_heap(2)
        [(on_cpu, lines)] = touched
        assert on_cpu == 2
        assert _is_int_list(lines)
        assert lines == _old_heap_lines(first, size, heap_lines)
    assert 2 ** 12 // ENTRIES_PER_LINE >= heap_lines  # the path wraps


def test_queue_lines_walk_the_ring(lff):
    scheduler, touched = lff
    region = scheduler._queue_region
    for step in range(1, region.num_lines + 3):
        touched.clear()
        scheduler._touch_queue(1)
        [(cpu, lines)] = touched
        assert _is_int_list(lines)
        assert lines == np.asarray(
            [region.first_line + step % region.num_lines], dtype=np.int64
        ).tolist()


def test_fcfs_queue_lines_walk_the_ring(smp):
    scheduler = FCFSScheduler(model_scheduler_memory=True)
    runtime = Runtime(smp, scheduler)
    touched = []
    smp.touch = lambda cpu, lines, write=False: touched.append(
        (cpu, lines, write)
    )
    region = scheduler._queue_region
    for step in range(1, region.num_lines + 3):
        touched.clear()
        scheduler._touch_queue(0)
        [(cpu, lines, write)] = touched
        assert (cpu, write) == (0, True)
        assert _is_int_list(lines)
        assert lines == [region.first_line + step % region.num_lines]
    del runtime
