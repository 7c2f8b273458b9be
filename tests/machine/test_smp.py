"""Tests for the multiprocessor: directory, coherence, clocks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.configs import SMALL
from repro.machine.smp import LineDirectory, Machine


def lines(*values):
    return np.asarray(values, dtype=np.int64)


class TestLineDirectory:
    def test_add_and_holders(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1, 2))
        directory.add(1, lines(2))
        assert directory.holders(2) == {0, 1}
        assert directory.holders(1) == {0}
        assert directory.holders(99) == set()

    def test_remove(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1))
        directory.remove(0, lines(1))
        assert directory.holders(1) == set()

    def test_remove_unknown_is_noop(self):
        directory = LineDirectory(4)
        directory.remove(0, lines(5))  # no error

    def test_held_by_other(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1))
        assert directory.held_by_other(1, cpu_id=1)
        assert not directory.held_by_other(1, cpu_id=0)

    def test_count_remote(self):
        directory = LineDirectory(4)
        directory.add(0, lines(1, 2))
        assert directory.count_remote(lines(1, 2, 3), cpu_id=1) == 2
        assert directory.count_remote(lines(1, 2, 3), cpu_id=0) == 0


class TestMachineCoherence:
    def test_remote_miss_priced_higher(self, smp):
        t = smp.config.timings
        smp.touch(0, np.arange(10))
        before = smp.cycles(1)
        smp.touch(1, np.arange(10))
        local_cost = 10 * (t.l2_miss + 1)
        remote_cost = 10 * (t.l2_miss_remote + 1)
        assert smp.cycles(1) - before == remote_cost
        assert remote_cost > local_cost

    def test_write_invalidates_remote_copies(self, smp):
        smp.touch(0, np.arange(10))
        smp.touch(1, np.arange(10))
        smp.touch(0, np.arange(10), write=True)
        assert smp.cpus[1].l2.resident_lines().size == 0
        assert smp.cpus[0].l2.resident_lines().size == 10

    def test_write_does_not_invalidate_self(self, smp):
        smp.touch(0, np.arange(10), write=True)
        assert smp.cpus[0].l2.resident_lines().size == 10

    def test_directory_tracks_evictions(self, smp):
        smp.touch(0, np.arange(5))
        plines = smp.vm.translate_lines(np.arange(5))
        assert smp.directory.count_remote(plines, cpu_id=1) == 5
        smp.cpus[0].hierarchy.flush()  # evictions reach the directory
        assert smp.directory.count_remote(plines, cpu_id=1) == 0

    def test_total_l2_misses_sums_cpus(self, smp):
        smp.touch(0, np.arange(5))
        smp.touch(1, np.arange(7) + 1000)
        assert smp.total_l2_misses() == 12

    def test_machine_time_is_max_clock(self, smp):
        smp.compute(2, 5000)
        assert smp.time() == smp.cycles(2)

    def test_flush_all(self, smp):
        smp.touch(0, np.arange(5))
        smp.touch(3, np.arange(5))
        smp.flush_all()
        assert all(c.l2.resident_lines().size == 0 for c in smp.cpus)

    def test_uniprocessor_skips_invalidation_path(self, machine):
        machine.touch(0, np.arange(5), write=True)
        assert machine.cpus[0].l2.resident_lines().size == 5

    def test_snapshot_per_cpu(self, smp):
        snaps = smp.snapshot()
        assert len(snaps) == smp.config.num_cpus
        assert all("misses" in s for s in snaps)

    def test_shared_translation_across_cpus(self, smp):
        """All cpus share one VM: the same virtual line maps to the same
        physical line everywhere (it's one address space)."""
        smp.touch(0, lines(5))
        smp.touch(1, lines(5))
        pline = int(smp.vm.translate_lines(lines(5))[0])
        assert smp.cpus[0].l2.contains(pline)
        assert smp.cpus[1].l2.contains(pline)


class TestMachineDirectoryWiring:
    def test_uniprocessor_has_no_directory(self, machine):
        assert machine.directory is None

    def test_analytic_machine_has_no_directory(self, smp_config):
        assert Machine(smp_config, backend="analytic").directory is None

    def test_invalidation_walks_holders_in_cpu_order(self, smp):
        """A write invalidates each other holder's copies, cpu by cpu in
        ascending order, each cpu's victims in batch order."""
        smp.touch(3, lines(1, 2))
        smp.touch(1, lines(2))
        seen = []
        for cpu in smp.cpus:
            cpu.l2.on_evict(
                lambda plines, _c=cpu.cpu_id: seen.append((_c, list(plines)))
            )
        p1, p2 = smp.vm.translate_lines(lines(1, 2))
        smp.touch(0, lines(1, 2), write=True)
        assert seen == [(1, [p2]), (3, [p1, p2])]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "flush", "invalidate"]),
        st.integers(0, 3),
        st.lists(st.integers(0, 1023), min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=25,
)


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_directory_matches_caches(ops):
    """After every touch, write, flush or invalidation, the directory's
    holders of each line are exactly the cpus whose E-cache holds it, and
    ``count_remote`` agrees with a brute-force count."""
    smp = Machine(replace(SMALL, name="small-smp", num_cpus=4), seed=7)
    cpus = range(4)
    seen = set()
    for op, cpu, vlines in ops:
        vlines = np.asarray(vlines, dtype=np.int64)
        if op == "flush":
            smp.cpus[cpu].hierarchy.flush()
        elif op == "invalidate":
            plines = smp.vm.translate_lines(vlines)
            smp.cpus[cpu].hierarchy.invalidate(plines)
            seen.update(plines)
        else:
            smp.touch(cpu, vlines, write=op == "write")
            seen.update(smp.vm.translate_lines(vlines))
        touched = sorted(seen)
        for pline in touched:
            holders = {c for c in cpus if smp.cpus[c].l2.contains(pline)}
            assert smp.directory.holders(pline) == holders
        for c in cpus:
            brute = sum(
                1 for p in touched
                if any(smp.cpus[o].l2.contains(p) for o in cpus if o != c)
            )
            assert smp.directory.count_remote(
                np.asarray(touched, dtype=np.int64), cpu_id=c
            ) == brute
