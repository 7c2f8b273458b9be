"""Tests for virtual memory and page placement."""

import numpy as np
import pytest

from repro.machine.vm import (
    KesslerHillPlacement,
    NaivePlacement,
    VirtualMemory,
)


def make_vm(policy_cls=KesslerHillPlacement, cache_bytes=16 * 1024,
            page_bytes=2048, seed=0):
    num_bins = cache_bytes // page_bytes
    policy = policy_cls(num_bins, rng=np.random.default_rng(seed))
    return VirtualMemory(
        cache_bytes=cache_bytes,
        page_bytes=page_bytes,
        line_bytes=64,
        policy=policy,
    )


class TestTranslation:
    def test_translation_is_stable(self):
        vm = make_vm()
        first = vm.translate_page(5)
        assert vm.translate_page(5) == first

    def test_distinct_vpages_get_distinct_frames(self):
        vm = make_vm()
        frames = {vm.translate_page(v) for v in range(50)}
        assert len(frames) == 50

    def test_page_faults_counted_once_per_page(self):
        vm = make_vm()
        vm.translate_page(1)
        vm.translate_page(1)
        vm.translate_page(2)
        assert vm.page_faults == 2

    def test_translate_lines_preserves_offsets(self):
        vm = make_vm()
        lpp = vm.lines_per_page
        vlines = np.asarray([0, 1, lpp, lpp + 3], dtype=np.int64)
        plines = vm.translate_lines(vlines)
        assert plines[1] - plines[0] == 1
        assert plines[3] - plines[2] == 3

    def test_translate_lines_empty(self):
        vm = make_vm()
        assert vm.translate_lines(np.empty(0, dtype=np.int64)) == []

    def test_frame_color_matches_bin(self):
        vm = make_vm()
        ppage = vm.translate_page(3)
        # the frame's bin is encoded in its low bits
        assert 0 <= ppage % vm.num_bins < vm.num_bins

    def test_reverse_line_roundtrip(self):
        vm = make_vm()
        vlines = np.arange(200, dtype=np.int64)
        plines = vm.translate_lines(vlines)
        back = vm.reverse_lines(plines)
        assert back == vlines.tolist()

    def test_reverse_unmapped_line_is_none(self):
        vm = make_vm()
        assert vm.reverse_line(123456) is None

    def test_reverse_lines_unmapped_marked(self):
        vm = make_vm()
        out = vm.reverse_lines(np.asarray([999999], dtype=np.int64))
        assert out == [-1]

    def test_mapped_pages(self):
        vm = make_vm()
        vm.translate_page(0)
        vm.translate_page(9)
        assert vm.mapped_pages == 2

    def test_cache_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            VirtualMemory(cache_bytes=5000, page_bytes=2048)

    def test_policy_geometry_checked(self):
        policy = KesslerHillPlacement(4)
        with pytest.raises(ValueError):
            VirtualMemory(cache_bytes=16 * 1024, page_bytes=2048, policy=policy)


class TestPlacementPolicies:
    def test_naive_bins_in_range(self):
        policy = NaivePlacement(8, rng=np.random.default_rng(0))
        for v in range(100):
            assert 0 <= policy.choose_bin(v) < 8

    def test_kessler_hill_balances_loads(self):
        policy = KesslerHillPlacement(8, rng=np.random.default_rng(0))
        bins = [policy.choose_bin(v) for v in range(64)]
        counts = np.bincount(bins, minlength=8)
        # perfectly uniform colors must balance to 8 per bin
        assert counts.max() - counts.min() <= 1

    def test_kessler_hill_same_color_spreads_within_group(self):
        policy = KesslerHillPlacement(64, rng=np.random.default_rng(0))
        # pages all preferring color 0 can use bins 0..3 (the color group)
        bins = {policy.choose_bin(64 * i) for i in range(4)}
        assert bins == {0, 1, 2, 3}

    def test_kessler_hill_reset(self):
        policy = KesslerHillPlacement(8, rng=np.random.default_rng(0))
        for v in range(20):
            policy.choose_bin(v)
        policy.reset()
        assert sum(policy._bin_load) == 0

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            NaivePlacement(0)

    def test_identical_sequences_do_not_align(self):
        """Two identical fault sequences (e.g. two same-shape arrays) must
        not land page-for-page on identical bins -- the alignment would
        make every row pair conflict."""
        policy = KesslerHillPlacement(64, rng=np.random.default_rng(1))
        first = [policy.choose_bin(v) for v in range(64)]
        second = [policy.choose_bin(64 + v) for v in range(64)]
        aligned = sum(1 for a, b in zip(first, second) if a == b)
        assert aligned < 40  # not systematically aligned
