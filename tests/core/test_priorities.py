"""Tests for the LFF and CRT log-space priority schemes (sections 4.1-4.2)."""

import math

import pytest

from repro.core.model import SharedStateModel
from repro.core.priorities import (
    CRTScheme,
    LFFScheme,
    PrecomputedTables,
)
from repro.core.sharing import SharingGraph


def make(scheme_cls, num_lines=256, num_cpus=1, graph=None):
    model = SharedStateModel(num_lines)
    return scheme_cls(model, graph or SharingGraph(), num_cpus)


class TestPrecomputedTables:
    def test_pow_k_matches_math(self):
        t = PrecomputedTables(256)
        assert t.pow_k(10) == pytest.approx((255 / 256) ** 10)

    def test_pow_k_zero(self):
        t = PrecomputedTables(256)
        assert t.pow_k(0) == 1.0

    def test_pow_k_beyond_table_is_zero(self):
        t = PrecomputedTables(256, max_power=10)
        assert t.pow_k(11) == 0.0

    def test_pow_k_negative_rejected(self):
        t = PrecomputedTables(256)
        with pytest.raises(ValueError):
            t.pow_k(-1)

    def test_log_footprint_matches_math(self):
        t = PrecomputedTables(256)
        assert t.log_footprint(100) == pytest.approx(math.log(100))

    def test_log_footprint_rounds(self):
        t = PrecomputedTables(256)
        assert t.log_footprint(99.6) == pytest.approx(math.log(100))

    def test_log_footprint_clamps(self):
        t = PrecomputedTables(256)
        assert t.log_footprint(0.0) == 0.0  # log(1)
        assert t.log_footprint(500.0) == pytest.approx(math.log(256))


class TestSchemeCommon:
    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_footprint_tracks_model(self, scheme_cls):
        scheme = make(scheme_cls)
        model = scheme.model
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        assert scheme.current_footprint(0, 1) == pytest.approx(
            model.expected_running(0, 40), rel=1e-6
        )

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_independent_threads_cost_zero(self, scheme_cls):
        scheme = make(scheme_cls)
        scheme.ensure_entry(0, 2)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        assert scheme.cost.independent == 0
        assert scheme.cost.blocking_updates == 1
        assert scheme.cost.dependent_updates == 0

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_independent_priority_unchanged(self, scheme_cls):
        scheme = make(scheme_cls)
        entry2 = scheme.ensure_entry(0, 2)
        before = entry2.priority
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        assert scheme.entry(0, 2).priority == before
        assert scheme.entry(0, 2).version == entry2.version

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_dependent_updates_touch_only_dependents(self, scheme_cls):
        graph = SharingGraph()
        graph.share(1, 2, 0.5)
        scheme = make(scheme_cls, graph=graph)
        scheme.ensure_entry(0, 3)
        v3 = scheme.entry(0, 3).version
        scheme.on_dispatch(0, 1)
        touched = scheme.on_block(0, 1, 40)
        assert touched == 2  # blocker + one dependent
        assert scheme.entry(0, 2) is not None
        assert scheme.entry(0, 3).version == v3

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_dependent_matches_case3(self, scheme_cls):
        graph = SharingGraph()
        graph.share(1, 2, 0.5)
        scheme = make(scheme_cls, graph=graph)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        assert scheme.current_footprint(0, 2) == pytest.approx(
            scheme.model.expected_dependent(0, 0.5, 40), rel=1e-6
        )

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_only_out_edges_update(self, scheme_cls):
        graph = SharingGraph()
        graph.share(2, 1, 0.5)  # 1 depends on 2, not vice versa
        scheme = make(scheme_cls, graph=graph)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        assert scheme.current_footprint(0, 2) == 0.0

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_dependent_decays_before_dependent_update(self, scheme_cls):
        """A dependent's stale value is first decayed to the interval
        start, then the case-3 update is applied."""
        graph = SharingGraph()
        graph.share(1, 2, 0.5)
        scheme = make(scheme_cls, graph=graph)
        model = scheme.model
        # give thread 2 its own state first
        scheme.on_dispatch(0, 2)
        scheme.on_block(0, 2, 30)
        s2 = scheme.current_footprint(0, 2)
        # an unrelated interval decays it
        scheme.on_dispatch(0, 3)
        scheme.on_block(0, 3, 20)
        decayed = model.expected_independent(s2, 20)
        # now thread 1 runs: dependent update from the decayed base
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 10)
        assert scheme.current_footprint(0, 2) == pytest.approx(
            model.expected_dependent(decayed, 0.5, 10), rel=1e-6
        )

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_version_bumps_on_update(self, scheme_cls):
        scheme = make(scheme_cls)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 10)
        v1 = scheme.entry(0, 1).version
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 10)
        assert scheme.entry(0, 1).version == v1 + 1

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_forget(self, scheme_cls):
        scheme = make(scheme_cls)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 10)
        scheme.forget(1)
        assert scheme.entry(0, 1) is None
        assert scheme.current_footprint(0, 1) == 0.0

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_block_without_dispatch_rejected(self, scheme_cls):
        scheme = make(scheme_cls)
        with pytest.raises(RuntimeError):
            scheme.on_block(0, 1, 5)

    @pytest.mark.parametrize("scheme_cls", [LFFScheme, CRTScheme])
    def test_table_size_mismatch_rejected(self, scheme_cls):
        model = SharedStateModel(256)
        with pytest.raises(ValueError):
            scheme_cls(model, SharingGraph(), 1, tables=PrecomputedTables(128))


class TestLFFOrdering:
    def test_priority_order_equals_footprint_order(self):
        """p_A < p_B iff E[F_A] < E[F_B] at any common instant."""
        graph = SharingGraph()
        graph.share(1, 2, 0.5)
        scheme = make(LFFScheme, graph=graph)
        scheme.ensure_entry(0, 3)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 120)
        scheme.on_dispatch(0, 3)
        scheme.on_block(0, 3, 60)
        tids = [1, 2, 3]
        by_priority = sorted(tids, key=lambda t: scheme.entry(0, t).priority)
        by_footprint = sorted(tids, key=lambda t: scheme.current_footprint(0, t))
        assert by_priority == by_footprint

    def test_stale_priorities_remain_comparable(self):
        """Entries written at different miss counts order correctly
        without being rewritten (the whole point of the scheme)."""
        scheme = make(LFFScheme)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 100)  # big footprint, written at m=100
        for _ in range(5):  # five more intervals decay thread 1
            scheme.on_dispatch(0, 2)
            scheme.on_block(0, 2, 30)
        # thread 2's entry is fresh, thread 1's is stale
        fp1 = scheme.current_footprint(0, 1)
        fp2 = scheme.current_footprint(0, 2)
        p1 = scheme.entry(0, 1).priority
        p2 = scheme.entry(0, 2).priority
        assert (p1 < p2) == (fp1 < fp2)


class TestCRTOrdering:
    def test_blocker_priority_is_minus_m_log_k(self):
        scheme = make(CRTScheme)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 50)
        expected = 50 * -scheme.tables.log_k
        assert scheme.entry(0, 1).priority == pytest.approx(expected)

    def test_priority_order_matches_reload_ratio(self):
        """Higher priority = lower expected cache-reload ratio."""
        graph = SharingGraph()
        graph.share(1, 2, 0.6)
        scheme = make(CRTScheme, graph=graph)
        # give both 1 and 3 footprints and last-execution baselines
        scheme.on_dispatch(0, 3)
        scheme.on_block(0, 3, 80)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 60)

        def ratio(tid):
            entry = scheme.entry(0, tid)
            if entry.last_footprint == 0:
                return 0.0
            current = scheme.current_footprint(0, tid)
            return (entry.last_footprint - current) / entry.last_footprint

        tids = [1, 3]
        by_priority = sorted(
            tids, key=lambda t: scheme.entry(0, t).priority, reverse=True
        )
        by_ratio = sorted(tids, key=ratio)
        assert by_priority == by_ratio

    def test_last_footprint_set_on_block(self):
        scheme = make(CRTScheme)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        entry = scheme.entry(0, 1)
        assert entry.last_footprint == pytest.approx(entry.footprint)


class TestTable3Costs:
    def test_lff_costs_are_single_digit(self):
        graph = SharingGraph()
        graph.share(1, 2, 0.5)
        scheme = make(LFFScheme, graph=graph)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        costs = scheme.cost.per_update()
        assert 0 < costs["blocking"] < 10
        assert 0 < costs["dependent"] < 10
        assert costs["independent"] == 0.0

    def test_crt_blocking_cheaper_than_dependent(self):
        graph = SharingGraph()
        graph.share(1, 2, 0.5)
        scheme = make(CRTScheme, graph=graph)
        scheme.on_dispatch(0, 1)
        scheme.on_block(0, 1, 40)
        costs = scheme.cost.per_update()
        assert costs["blocking"] < costs["dependent"]
