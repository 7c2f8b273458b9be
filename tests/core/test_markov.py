"""Tests for the Appendix Markov-chain derivation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.markov import (
    dependent_transition_matrix,
    distribution_after,
    expected_footprint_markov,
    stationary_distribution,
)
from repro.core.model import SharedStateModel


class TestTransitionMatrix:
    def test_rows_sum_to_one(self):
        m = dependent_transition_matrix(20, 0.3)
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_tridiagonal(self):
        m = dependent_transition_matrix(10, 0.5)
        for i in range(11):
            for j in range(11):
                if abs(i - j) > 1:
                    assert m[i, j] == 0.0

    def test_paper_transition_probabilities(self):
        n, q, i = 16, 0.25, 5
        m = dependent_transition_matrix(n, q)
        assert m[i, i + 1] == pytest.approx(q * (n - i) / n)
        assert m[i, i - 1] == pytest.approx((1 - q) * i / n)
        assert m[i, i] == pytest.approx(q * i / n + (1 - q) * (n - i) / n)

    def test_q1_never_shrinks(self):
        m = dependent_transition_matrix(8, 1.0)
        assert np.all(np.diag(m, k=-1) == 0.0)

    def test_q0_never_grows(self):
        m = dependent_transition_matrix(8, 0.0)
        assert np.all(np.diag(m, k=1) == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dependent_transition_matrix(0, 0.5)
        with pytest.raises(ValueError):
            dependent_transition_matrix(8, 1.5)


class TestExpectationEqualsClosedForm:
    """The Appendix telescoping: E_n[F_C] = qN - (qN - S_C) k^n."""

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("initial", [0, 10, 32])
    def test_matches_model(self, q, initial):
        n_cache, misses = 32, 40
        model = SharedStateModel(n_cache)
        exact = expected_footprint_markov(n_cache, q, initial, misses)
        closed = model.expected_dependent(float(initial), q, misses)
        assert exact == pytest.approx(closed, abs=1e-9)

    def test_matrix_power_agrees_with_recurrence(self):
        n_cache, q, initial, misses = 12, 0.4, 3, 15
        m = dependent_transition_matrix(n_cache, q)
        power = np.linalg.matrix_power(m, misses)
        by_matrix = float(power[initial] @ np.arange(n_cache + 1))
        by_recurrence = expected_footprint_markov(n_cache, q, initial, misses)
        assert by_matrix == pytest.approx(by_recurrence, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_footprint_markov(8, 0.5, 9, 1)
        with pytest.raises(ValueError):
            expected_footprint_markov(8, 0.5, 1, -1)


class TestDistribution:
    def test_distribution_sums_to_one(self):
        pi = distribution_after(16, 0.3, 4, 25)
        assert pi.sum() == pytest.approx(1.0)

    def test_point_mass_at_zero_misses(self):
        pi = distribution_after(16, 0.3, 4, 0)
        assert pi[4] == pytest.approx(1.0)

    def test_mean_matches_expectation(self):
        n_cache, q, s0, misses = 16, 0.6, 2, 30
        pi = distribution_after(n_cache, q, s0, misses)
        mean = float(pi @ np.arange(n_cache + 1))
        assert mean == pytest.approx(
            expected_footprint_markov(n_cache, q, s0, misses), abs=1e-9
        )


class TestStationary:
    def test_is_binomial_mean(self):
        n_cache, q = 64, 0.3
        pi = stationary_distribution(n_cache, q)
        mean = float(pi @ np.arange(n_cache + 1))
        assert mean == pytest.approx(q * n_cache)

    def test_invariant_under_transition(self):
        n_cache, q = 24, 0.45
        pi = stationary_distribution(n_cache, q)
        m = dependent_transition_matrix(n_cache, q)
        assert np.allclose(pi @ m, pi, atol=1e-12)

    def test_degenerate_q(self):
        pi0 = stationary_distribution(8, 0.0)
        assert pi0.tolist() == [1.0] + [0.0] * 8
        pi1 = stationary_distribution(8, 1.0)
        assert pi1.tolist() == [0.0] * 8 + [1.0]

    @pytest.mark.parametrize("n_cache", [1, 2, 7, 16, 40])
    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9])
    def test_matches_exact_rational_pmf(self, n_cache, q):
        pi = stationary_distribution(n_cache, q)
        exact_q = Fraction(q)
        for k in range(n_cache + 1):
            exact = math.comb(n_cache, k) * exact_q**k * (1 - exact_q) ** (n_cache - k)
            assert pi[k] == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_cache", [64, 1024, 8192, 16384])
    @pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.9])
    def test_normalised_with_mean_qn_at_scale(self, n_cache, q):
        pi = stationary_distribution(n_cache, q)
        assert abs(pi.sum() - 1.0) <= 1e-10
        assert float(pi @ np.arange(n_cache + 1)) == pytest.approx(q * n_cache, rel=1e-10)


class TestFootprintSpread:
    def test_zero_misses_zero_spread(self):
        from repro.core.markov import footprint_std

        assert footprint_std(32, 0.5, 10, 0) == pytest.approx(0.0)

    def test_converges_to_binomial_spread(self):
        from repro.core.markov import footprint_std

        n_cache, q = 64, 0.3
        long_run = footprint_std(n_cache, q, 5, 2000)
        assert long_run == pytest.approx(
            np.sqrt(n_cache * q * (1 - q)), rel=0.05
        )

    def test_spread_small_relative_to_cache(self):
        """The justification for scheduling on expectations: the relative
        spread shrinks as 1/sqrt(N)."""
        from repro.core.markov import footprint_std

        small = footprint_std(64, 0.5, 0, 5000) / 64
        large = footprint_std(512, 0.5, 0, 50_000) / 512
        assert large < small
