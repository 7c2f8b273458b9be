"""Tests for per-processor cycle accounting and counter updates."""

import numpy as np
import pytest

from repro.machine.configs import SMALL
from repro.machine.counters import CounterEvent
from repro.machine.processor import Processor


def lines(*values):
    return np.asarray(values, dtype=np.int64)


@pytest.fixture
def cpu():
    return Processor(0, SMALL)


class TestCompute:
    def test_one_cycle_per_instruction(self, cpu):
        cpu.compute(500)
        assert cpu.cycles == 500
        assert cpu.instructions == 500

    def test_negative_rejected(self, cpu):
        with pytest.raises(ValueError):
            cpu.compute(-1)


class TestTouchAccounting:
    def test_miss_cycles(self, cpu):
        cpu.touch_data(lines(1))
        # 1 miss * l2_miss + 1 base cycle per ref
        expected = SMALL.timings.l2_miss + 1
        assert cpu.cycles == expected

    def test_hit_cycles(self, cpu):
        cpu.touch_data(lines(1))
        before = cpu.cycles
        cpu.touch_data(lines(1))
        assert cpu.cycles - before == SMALL.timings.l2_hit + 1

    def test_counters_track_refs_and_hits(self, cpu):
        cpu.touch_data(lines(1, 2))
        cpu.touch_data(lines(1, 2))
        refs, hits = cpu.counters.read()
        assert refs == 4
        assert hits == 2

    def test_remote_probe_prices_remote_misses(self, cpu):
        cpu.set_remote_probe(len)  # all remote
        cpu.touch_data(lines(1))
        assert cpu.cycles == SMALL.timings.l2_miss_remote + 1

    def test_instruction_fetch_counts_refs(self, cpu):
        cpu.fetch_instructions(lines(9))
        refs, _hits = cpu.counters.read()
        assert refs == 1

    def test_snapshot_contains_key_fields(self, cpu):
        cpu.touch_data(lines(1))
        snap = cpu.snapshot()
        assert snap["cpu"] == 0
        assert snap["misses"] == 1
        assert snap["cycles"] > 0

    def test_touches_count_as_instructions(self, cpu):
        cpu.touch_data(lines(1, 2, 3))
        assert cpu.instructions == 3
