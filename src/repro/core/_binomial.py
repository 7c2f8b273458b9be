"""Closed-form binomial probabilities for the cache model.

The model needs two binomial laws: the W-way survival tail
P(Binom(n, 1/S) <= W-1) (:mod:`repro.core.assoc`) and the Binomial(N, q)
stationary law of the Appendix's chain (:mod:`repro.core.markov`).  Both
are short sums of closed-form terms.  Each term's coefficient and powers
are combined in log space, so no power underflows to zero while its
coefficient is still large.
"""

from __future__ import annotations

import math

import numpy as np


def binom_cdf(k: int, n: np.ndarray, p: float) -> np.ndarray:
    """P(Binom(n, p) <= k), elementwise over real ``n >= 0``, for 0 < p <= 1.

    The sum over j <= k of C(n, j) p**j (1-p)**(n-j), with C(n, j) the
    falling-factorial product n(n-1)...(n-j+1)/j!, which is defined for
    real ``n``: at ``k = 0`` the result is ``(1-p)**n`` for every n.
    """
    n = np.asarray(n, dtype=float)
    if p >= 1.0:  # every trial succeeds (one set: a fully associative cache)
        return (n <= k).astype(float)
    log_p, log_q = math.log(p), math.log1p(-p)
    log_coef = np.zeros_like(n)  # log |C(n, j)|
    sign = np.ones_like(n)
    total = np.zeros_like(n)
    with np.errstate(divide="ignore"):  # C(n, j) = 0 once j > integer n
        for j in range(k + 1):
            if j:
                factor = (n - j + 1) / j
                sign *= np.sign(factor)
                log_coef += np.log(np.abs(factor))
            total += sign * np.exp(log_coef + j * log_p + (n - j) * log_q)
    # a probability: clip the last-ulp overshoot of sums that equal 1
    return np.clip(total, 0.0, 1.0)


def binom_pmf(n: int, p: float) -> np.ndarray:
    """P(Binom(n, p) = k) for every ``k = 0 .. n``.

    log C(n, k) is the cumulative sum of log((n-k+1)/k); ``p`` of 0 or 1
    gives an exact point mass.
    """
    if p <= 0.0 or p >= 1.0:
        out = np.zeros(n + 1)
        out[n if p >= 1.0 else 0] = 1.0
        return out
    k = np.arange(n + 1, dtype=float)
    log_coef = np.zeros(n + 1)
    np.cumsum(np.log((n - k[1:] + 1) / k[1:]), out=log_coef[1:])
    return np.exp(log_coef + k * math.log(p) + (n - k) * math.log1p(-p))
