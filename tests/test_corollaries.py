"""Sharp corollaries of bound_sharp for the inverse and the logarithmic
coefficients, each one change of variable in mu.

The formal inverse f^{-1}(w) = w + A_2 w^2 + A_3 w^3 + ... has A_2 = -a_2 and
A_3 = 2 a_2^2 - a_3, so |A_3 - mu A_2^2| = |a_3 - (2 - mu) a_2^2|. The
logarithmic coefficients, log(f(z)/z) = 2 sum gamma_n z^n, have
gamma_1 = a_2 / 2 and gamma_2 - nu gamma_1^2 = (a_3 - (1 + nu)/2 a_2^2) / 2.
So bound_sharp at 2 - mu bounds the first and half of bound_sharp at
(1 + nu)/2 the second, and sharp_witness at the mapped value attains each.
The jets are built here from order-3 member coefficients by plain series
reversion and the series logarithm, not from the closed forms above.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from conftest import random_member, random_params
from fslab import ClassParams, bound_real, bound_sharp, breakpoints, member_from_pq, sharp_witness


def _mul(x, y):
    """The Cauchy product of two jets of one length, truncated to it."""
    return [sum(x[j] * y[k - j] for j in range(k + 1)) for k in range(len(x))]


def _inverse(a):
    """(0, 1, A_2, ..., A_n) of f^{-1} from f's (0, 1, a_2, ..., a_n): order by
    order, A_k cancels [w^k] f(g(w)) with g's A_k still 0, since A_k enters
    that coefficient only through the linear term."""
    n = len(a)
    g = [0j, 1 + 0j] + [0j] * (n - 2)
    for k in range(2, n):
        composed, power = [0j] * n, [1 + 0j] + [0j] * (n - 1)
        for aj in a[1:]:
            power = _mul(power, g)
            composed = [s + aj * p for s, p in zip(composed, power)]
        g[k] = -composed[k]
    return g


def _log_coeffs(a):
    """(gamma_1, ..., gamma_{n-1}) with log(f(z)/z) = 2 sum gamma_k z^k, from
    h = f/z = (1, a_2, ..., a_n) by h L' = h': k L_k = k h_k - sum j L_j h_{k-j}."""
    h = a[1:]
    log = [0j]
    for k in range(1, len(h)):
        log.append((k * h[k] - sum(j * log[j] * h[k - j] for j in range(1, k))) / k)
    return [v / 2 for v in log[1:]]


def _order3(member):
    """The member's (a_0, ..., a_3), rebuilt at order 3 from its measures."""
    return member_from_pq(member.params, member.p_measure, member.q_measure, 3).a


def _inverse_fs(a, mu):
    big = _inverse(a)
    return abs(big[3] - mu * big[2] ** 2)


def _log_fs(a, nu):
    gamma = _log_coeffs(a)
    return abs(gamma[1] - nu * gamma[0] ** 2)


def test_inverse_and_log_jets_are_the_changes_of_variable():
    rng = np.random.default_rng(1031)
    for _ in range(300):
        member = random_member(rng, order=3)
        a = member.a
        big, gamma = _inverse(a), _log_coeffs(a)
        assert cmath.isclose(big[2], -a[2], abs_tol=1e-15)
        assert cmath.isclose(big[3], 2 * a[2] ** 2 - a[3], rel_tol=1e-14, abs_tol=1e-15)
        assert cmath.isclose(gamma[0], a[2] / 2, abs_tol=1e-15)
        # x is the inverse functional's mu and the logarithmic one's nu
        for x in (float(rng.uniform(-3, 5)), complex(rng.uniform(-3, 5), rng.uniform(-2, 2))):
            want = abs(a[3] - (2 - x) * a[2] ** 2)
            assert math.isclose(_inverse_fs(a, x), want, rel_tol=1e-13, abs_tol=1e-14)
            want = (a[3] - (1 + x) / 2 * a[2] ** 2) / 2
            assert cmath.isclose(gamma[1] - x * gamma[0] ** 2, want, rel_tol=1e-13, abs_tol=1e-14)
            if isinstance(x, float):  # bound_sharp is real-mu only
                assert _inverse_fs(a, x) <= bound_sharp(member.params, 2 - x) * (1 + 1e-12)
                assert _log_fs(a, x) <= bound_sharp(member.params, (1 + x) / 2) / 2 * (1 + 1e-12)


def test_sharp_witness_attains_both_corollaries():
    # the mapped value m = 2 - mu = (1 + nu)/2 is drawn in each of the four
    # cases in turn; past mu2 the two-atom term sometimes beats the paper's
    # value, so both witness kinds are covered
    rng = np.random.default_rng(1033)
    cases, two_atom = set(), 0
    for i in range(400):
        par = random_params(rng)
        mu1, mu2, mu3 = breakpoints(par)
        lo, hi = ((mu1 - 2.0, mu1), (mu1, mu2), (mu2, mu3), (mu3, 2.0 * mu3 + 1.0))[i % 4]
        m = float(rng.uniform(lo, hi))
        bound = bound_sharp(par, m)
        report = bound_real(par, m)
        cases.add(report.case_id)
        two_atom += bound > report.value
        a = _order3(sharp_witness(par, m))
        scale = max(1.0, bound)
        assert abs(_inverse_fs(a, 2 - m) - bound) <= 1e-12 * scale
        assert abs(_log_fs(a, 2 * m - 1) - bound / 2) <= 1e-12 * scale
    assert cases == {1, 2, 3, 4} and two_atom >= 10


def test_sharp_gamma_2():
    # |gamma_2| is the case nu = 0: at most bound_sharp(params, 1/2) / 2,
    # attained by sharp_witness at 1/2; on the classical close-to-convex class
    # that is half of Keogh-Merkes' 1/3 + 4/(9 mu) at mu = 1/2, 11/18
    par = ClassParams(0, 0, 0, 0)
    assert math.isclose(bound_sharp(par, 0.5) / 2, 11 / 18, rel_tol=1e-15)
    a = _order3(sharp_witness(par, 0.5))
    assert math.isclose(_log_fs(a, 0.0), 11 / 18, rel_tol=1e-15)
