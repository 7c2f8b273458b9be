"""Tests for the direct-mapped and set-associative cache simulators."""

import numpy as np
import pytest

from repro.machine.cache import (
    DirectMappedCache,
    SetAssociativeCache,
    _net_effect,
)


def lines(*values):
    return np.asarray(values, dtype=np.int64)


class TestDirectMapped:
    def make(self, num_lines=16):
        return DirectMappedCache(num_lines * 64, 64)

    def test_cold_accesses_all_miss(self):
        cache = self.make()
        result = cache.access(lines(1, 2, 3))
        assert result.misses == 3
        assert result.hits == 0

    def test_repeat_accesses_all_hit(self):
        cache = self.make()
        cache.access(lines(1, 2, 3))
        result = cache.access(lines(1, 2, 3))
        assert result.hits == 3
        assert result.misses == 0

    def test_conflicting_line_evicts(self):
        cache = self.make(num_lines=16)
        cache.access(lines(1))
        result = cache.access(lines(17))  # same index: 17 % 16 == 1
        assert result.misses == 1
        assert result.evicted == [1]
        assert not cache.contains(1)
        assert cache.contains(17)

    def test_empty_batch(self):
        cache = self.make()
        result = cache.access(np.empty(0, dtype=np.int64))
        assert result.refs == 0

    def test_stats_accumulate(self):
        cache = self.make()
        cache.access(lines(1, 2))
        cache.access(lines(1, 2))
        assert cache.stats.refs == 4
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_miss_rate(self):
        cache = self.make()
        cache.access(lines(1))
        cache.access(lines(1))
        assert cache.stats.miss_rate == 0.5

    def test_serial_path_matches_vectorised(self):
        """A batch with duplicate indices (serial path) must produce the
        same counts as issuing the lines one by one."""
        batch = lines(1, 17, 1, 33, 2)  # indices 1,1,1,1,2 in a 16-line cache
        serial = DirectMappedCache(16 * 64, 64)
        result = serial.access(batch)
        oracle = DirectMappedCache(16 * 64, 64)
        hits = misses = 0
        for v in batch:
            r = oracle.access(lines(int(v)))
            hits += r.hits
            misses += r.misses
        assert (result.hits, result.misses) == (hits, misses)

    def test_net_installed_excludes_transients(self):
        """A line installed then evicted within one batch appears in
        neither net list."""
        cache = self.make(num_lines=16)
        result = cache.access(lines(1, 17))  # 1 installed, then evicted by 17
        assert 1 not in result.installed
        assert 1 not in result.evicted
        assert result.installed == [17]
        assert result.misses == 2  # raw miss count is unaffected

    def test_miss_lines_are_raw(self):
        cache = self.make(num_lines=16)
        result = cache.access(lines(1, 17))
        assert result.miss_lines == [1, 17]

    def test_reinstall_within_batch_is_net_install(self):
        """One batch installs 1, evicts it for 17, evicts 17 and
        reinstalls 1: the net effect is one install of 1, and listeners
        see exactly that, once."""
        cache = self.make(num_lines=16)
        installs, evicts = [], []
        cache.on_install(lambda plines: installs.append(list(plines)))
        cache.on_evict(lambda plines: evicts.append(list(plines)))
        result = cache.access(lines(1, 17, 1), write=True)
        assert result.installed == [1]
        assert result.evicted == []
        assert result.miss_lines == [1, 17, 1]
        assert (result.hits, result.misses, result.writebacks) == (0, 3, 2)
        assert installs == [[1]]
        assert evicts == []
        assert cache.resident_lines().tolist() == [1]

    def test_evict_and_reinstall_resident_line_is_no_change(self):
        cache = self.make(num_lines=16)
        cache.access(lines(17))
        seen = []
        cache.on_install(lambda plines: seen.append(("in", list(plines))))
        cache.on_evict(lambda plines: seen.append(("out", list(plines))))
        result = cache.access(lines(1, 17))
        assert result.installed == [] and result.evicted == []
        assert result.miss_lines == [1, 17]
        assert seen == []

    def test_writeback_on_dirty_eviction(self):
        cache = self.make(num_lines=16)
        cache.access(lines(1), write=True)
        result = cache.access(lines(17))
        assert result.writebacks == 1

    def test_no_writeback_for_clean_eviction(self):
        cache = self.make(num_lines=16)
        cache.access(lines(1))
        result = cache.access(lines(17))
        assert result.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = self.make(num_lines=16)
        cache.access(lines(1))
        cache.access(lines(1), write=True)  # hit, now dirty
        result = cache.access(lines(17))
        assert result.writebacks == 1

    def test_invalidate_removes_resident(self):
        cache = self.make()
        cache.access(lines(1, 2))
        removed = cache.invalidate(lines(1, 5))
        assert removed == 1
        assert not cache.contains(1)
        assert cache.contains(2)
        assert cache.stats.invalidations == 1

    def test_invalidate_counts_repeated_line_once(self):
        cache = self.make()
        evicted = []
        cache.on_evict(evicted.extend)
        cache.access(lines(5))
        assert cache.invalidate(lines(5, 5)) == 1
        assert cache.stats.invalidations == 1
        assert evicted == [5]

    def test_invalidate_requires_exact_line(self):
        cache = self.make(num_lines=16)
        cache.access(lines(17))
        assert cache.invalidate(lines(1)) == 0  # same index, different line

    def test_flush_evicts_everything(self):
        cache = self.make()
        cache.access(lines(1, 2, 3))
        assert cache.flush() == 3
        assert cache.resident_lines().size == 0

    def test_flush_notifies_evict_listener(self):
        cache = self.make()
        seen = []
        cache.on_evict(seen.extend)
        cache.access(lines(1, 2))
        cache.flush()
        assert sorted(seen) == [1, 2]

    def test_install_listener_sees_installed(self):
        cache = self.make()
        seen = []
        cache.on_install(seen.extend)
        cache.access(lines(4, 5))
        assert sorted(seen) == [4, 5]

    def test_resident_lines_reflect_contents(self):
        cache = self.make()
        cache.access(lines(3, 9))
        assert sorted(cache.resident_lines().tolist()) == [3, 9]

    def test_index_of(self):
        cache = self.make(num_lines=16)
        assert cache.index_of(35) == 3

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DirectMappedCache(100, 64)
        with pytest.raises(ValueError):
            DirectMappedCache(0, 64)


class TestSetAssociative:
    def make(self, num_lines=16, ways=4):
        return SetAssociativeCache(num_lines * 64, 64, ways=ways)

    def test_conflicts_tolerated_up_to_ways(self):
        cache = self.make(num_lines=16, ways=4)  # 4 sets
        same_set = lines(0, 4, 8, 12)  # all map to set 0
        cache.access(same_set)
        result = cache.access(same_set)
        assert result.hits == 4

    def test_lru_eviction(self):
        cache = self.make(num_lines=8, ways=2)  # 4 sets
        cache.access(lines(0))
        cache.access(lines(4))
        cache.access(lines(0))  # refresh 0
        result = cache.access(lines(8))  # set 0 full: evict LRU = 4
        assert result.evicted == [4]
        assert cache.contains(0)

    def test_one_way_behaves_direct_mapped(self):
        assoc = self.make(num_lines=16, ways=1)
        direct = DirectMappedCache(16 * 64, 64)
        rng = np.random.default_rng(0)
        batch = rng.integers(0, 64, size=200).astype(np.int64)
        for v in batch:
            a = assoc.access(lines(int(v)))
            d = direct.access(lines(int(v)))
            assert a.hits == d.hits

    def test_invalidate(self):
        cache = self.make()
        cache.access(lines(1, 2))
        assert cache.invalidate(lines(1)) == 1
        assert not cache.contains(1)

    def test_flush(self):
        cache = self.make()
        cache.access(lines(1, 2, 3))
        assert cache.flush() == 3
        assert cache.resident_lines().size == 0

    def test_writebacks(self):
        cache = self.make(num_lines=8, ways=2)
        cache.access(lines(0), write=True)
        cache.access(lines(4))
        result = cache.access(lines(8))  # evicts 0 (LRU, dirty)
        assert result.writebacks == 1

    def test_ways_must_divide_lines(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(16 * 64, 64, ways=3)


class TestNetEffect:
    def test_pure_install(self):
        net_in, net_out = _net_effect([1, 2], [])
        assert sorted(net_in) == [1, 2]
        assert net_out == []

    def test_install_then_evict_cancels(self):
        net_in, net_out = _net_effect([1], [1])
        assert net_in == []
        assert net_out == []

    def test_evict_then_reinstall_cancels(self):
        net_in, net_out = _net_effect([5, 7], [7])
        assert net_in == [5]
        assert net_out == []

    def test_pure_evict(self):
        net_in, net_out = _net_effect([], [3])
        assert net_out == [3]
