"""Tests for the W-way associative model extension."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.assoc import AssocTables, AssociativeStateModel
from repro.core.model import SharedStateModel
from repro.machine.cache import SetAssociativeCache


class TestReduction:
    """W = 1 must reduce exactly to the paper's direct-mapped model."""

    @pytest.mark.parametrize("misses", [0, 1, 10, 100, 1000])
    def test_case2_equals_direct_mapped(self, misses):
        assoc = AssociativeStateModel(256, 1)
        direct = SharedStateModel(256)
        assert assoc.expected_independent(100, misses) == pytest.approx(
            direct.expected_independent(100, misses), rel=1e-9
        )

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_case3_equals_direct_mapped(self, q):
        assoc = AssociativeStateModel(256, 1)
        direct = SharedStateModel(256)
        assert assoc.expected_dependent(50, q, 80) == pytest.approx(
            direct.expected_dependent(50, q, 80), rel=1e-9
        )


class TestSurvival:
    def test_survival_at_zero_misses_is_one(self):
        model = AssociativeStateModel(256, 4)
        assert model.survival(0) == pytest.approx(1.0)

    def test_survival_decreases_with_misses(self):
        model = AssociativeStateModel(256, 4)
        values = [model.survival(n) for n in (0, 100, 500, 2000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_more_ways_survive_longer_at_moderate_pressure(self):
        """LRU protection: while per-set miss pressure stays below the
        W-1 tolerance, survival grows with associativity."""
        n = 100
        values = [
            AssociativeStateModel(256, w).survival(n) for w in (1, 2, 4)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_ordering_inverts_under_heavy_pressure(self):
        """With few sets, heavy traffic concentrates: very high
        associativity eventually survives *worse* -- the trade-off the
        closed form captures."""
        n = 2000
        assert (
            AssociativeStateModel(256, 16).survival(n)
            < AssociativeStateModel(256, 2).survival(n)
        )

    def test_survival_vectorised(self):
        model = AssociativeStateModel(256, 2)
        out = model.survival(np.asarray([0, 10, 100]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)

    def test_negative_misses_rejected(self):
        with pytest.raises(ValueError):
            AssociativeStateModel(256, 2).survival(-1)


def exact_tail(num_lines, ways, n):
    """P(Binom(n, W/N) <= W-1) in exact rational arithmetic."""
    p = Fraction(ways, num_lines)
    return float(sum(
        math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(min(ways, n + 1))
    ))


class TestClosedForm:
    """The survival tail is evaluated in closed form; pin it exactly."""

    @pytest.mark.parametrize("num_lines,ways", [(4, 1), (8, 2), (16, 4), (64, 4), (32, 8)])
    def test_matches_exact_rational_tail(self, num_lines, ways):
        model = AssociativeStateModel(num_lines, ways)
        misses = np.arange(0, 12 * num_lines + 1)
        ours = model.survival(misses)
        for n in misses:
            assert ours[n] == pytest.approx(
                exact_tail(num_lines, ways, int(n)), rel=1e-12, abs=0.0
            )

    def test_direct_mapped_is_k_to_the_n_at_real_n(self):
        model = AssociativeStateModel(1024, 1)
        k = 1023 / 1024
        for n in (0.5, 10.5, 709.436, 1234.75):
            assert model.survival(n) == pytest.approx(k**n, rel=1e-12)

    def test_direct_mapped_half_life_is_exact(self):
        """The bisection sees real midpoints, so it lands on the true
        root ln 0.5 / ln k rather than on an integer."""
        for num_lines in (256, 1024):
            k = (num_lines - 1) / num_lines
            assert AssociativeStateModel(num_lines, 1).half_life() == pytest.approx(
                math.log(0.5) / math.log(k), abs=1e-9
            )

    def test_defined_between_integer_misses(self):
        model = AssociativeStateModel(1024, 4)
        lo, mid, hi = model.survival(np.asarray([10.0, 10.5, 11.0]))
        assert not math.isnan(mid)
        assert hi < mid < lo

    def test_fully_associative_is_a_step(self):
        model = AssociativeStateModel(8, 8)
        assert model.survival(np.asarray([0, 7, 8, 100])).tolist() == [1, 1, 0, 0]


class TestValidation:
    def test_ways_must_divide_lines(self):
        with pytest.raises(ValueError):
            AssociativeStateModel(256, 3)

    def test_footprint_range_checked(self):
        model = AssociativeStateModel(256, 2)
        with pytest.raises(ValueError):
            model.expected_independent(300, 10)
        with pytest.raises(ValueError):
            model.expected_dependent(10, 1.5, 10)

    def test_num_sets(self):
        assert AssociativeStateModel(256, 4).num_sets == 64


class TestAgainstSimulation:
    def test_beats_direct_mapped_model_on_assoc_cache(self):
        """The extension's reason to exist: on a 4-way cache its decay
        prediction is closer to simulated truth than the paper's k**n."""
        n_lines, ways = 256, 4
        num_sets = n_lines // ways
        rng = np.random.default_rng(1)
        # one sleeper line per set: the clean regime of the derivation
        sleeper = np.arange(10_000, 10_000 + num_sets)
        survived = []
        misses = 150
        for _ in range(30):
            cache = SetAssociativeCache(n_lines * 64, 64, ways=ways)
            cache.access(sleeper)
            walk = rng.integers(20_000, 500_000, size=misses).astype(np.int64)
            cache.access(walk)
            resident = set(cache.resident_lines().tolist())
            survived.append(len(resident & set(sleeper.tolist())))
        truth = float(np.mean(survived))
        assoc = AssociativeStateModel(n_lines, ways).expected_independent(
            num_sets, misses
        )
        direct = SharedStateModel(n_lines).expected_independent(
            num_sets, misses
        )
        assert abs(assoc - truth) < abs(direct - truth)

    def test_half_life_longer_with_ways(self):
        h1 = AssociativeStateModel(256, 1).half_life()
        h4 = AssociativeStateModel(256, 4).half_life()
        assert h4 > h1


class TestAssocTables:
    def test_lookup_matches_model(self):
        tables = AssocTables(256, 4, max_misses=500)
        model = AssociativeStateModel(256, 4)
        for n in (0, 50, 499):
            assert tables.survival(n) == pytest.approx(model.survival(n))

    def test_beyond_horizon_is_zero(self):
        tables = AssocTables(256, 4, max_misses=100)
        assert tables.survival(101) == 0.0

    def test_negative_rejected(self):
        tables = AssocTables(256, 2, max_misses=10)
        with pytest.raises(ValueError):
            tables.survival(-1)

    @pytest.mark.parametrize("num_lines,ways", [(256, 1), (256, 4), (1024, 2)])
    def test_whole_horizon_matches_model(self, num_lines, ways):
        tables = AssocTables(num_lines, ways)
        model = AssociativeStateModel(num_lines, ways)
        horizon = range(tables.max_misses + 1)
        assert [tables.survival(n) for n in horizon] == (
            model.survival(np.asarray(horizon)).tolist()
        )

    def test_table_overhead_reported(self):
        tables = AssocTables(256, 4, max_misses=1000)
        assert tables.table_bytes == 1001 * 8
