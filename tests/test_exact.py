"""Exact rational checks of the real-mu bounds and their witnesses.

Every value here is computed in fractions.Fraction at the exact rationals of
the float inputs, so bound_real and bound_sharp are checked against exact
values rather than against themselves. With u = 1 - alpha, v = 1 - beta,
rho = mu sigma / tau**2 and

    E = v/4 + v**2/2 - 3 rho v**2/4,  F = u v (1 - 3 rho/2),
    G = u/2 - 3 rho u**2/4,  Q+-(x) = 4 (E + F x + G x**2) +- 2u (1 - x**2),

the bounds module states that 3 sigma bound_real = max(2u + v, |Q+(1)|,
|Q+(x+)|) and that bound_sharp adds |Q-(x-)|, x+- the vertices of Q+-
clipped to [-1, 1], each term attained by a member whose p has c_1 = 2x,
c_2 = 2x**2 + 2(1 - x**2) zeta (zeta = +-1) and whose q is an atom.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import EDGE_PARAMS, random_params
from fslab import bound_real, bound_sharp, breakpoints

EPS = 2.0**-52


def _draws(seed: int, n: int):
    """(params, mu) over all four cases: random and edge parameters, mu
    uniform on [-3, 2 mu3] and on the breakpoints themselves."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        par = EDGE_PARAMS[i % 4] if i % 10 == 0 else random_params(rng)
        mu3 = breakpoints(par)[2]
        mu = breakpoints(par)[i % 3] if i % 7 == 0 else float(rng.uniform(-3.0, 2.0 * mu3))
        yield par, mu


class Exact:
    """The exact rationals of one (params, mu) and the quantities above."""

    def __init__(self, par, mu):
        lam, delta, alpha, beta = map(Fraction, (par.lam, par.delta, par.alpha, par.beta))
        self.alpha, self.beta, self.mu = alpha, beta, Fraction(mu)
        self.tau = 1 + lam - delta + 2 * lam * delta
        self.sigma = 1 + 2 * lam - 2 * delta + 6 * lam * delta
        self.rho = self.mu * self.sigma / self.tau**2
        self.u, self.v = 1 - alpha, 1 - beta
        u, v, rho = self.u, self.v, self.rho
        self.e = v / 4 + v * v / 2 - 3 * rho * v * v / 4
        self.f = u * v * (1 - 3 * rho / 2)
        self.g = u / 2 - 3 * rho * u * u / 4

    def q(self, x, zeta):
        return 4 * (self.e + self.f * x + self.g * x * x) + zeta * 2 * self.u * (1 - x * x)

    def r(self, x, zeta):
        """R_zeta(x), Q_zeta's counterpart on the edge |c_1| = 2: E and G
        swapped, and v in place of 2u."""
        return 4 * (self.g + self.f * x + self.e * x * x) + zeta * self.v * (1 - x * x)

    def vertex(self, zeta):
        """The vertex of Q_zeta clipped to [-1, 1], or None where Q_zeta is linear."""
        lead = 4 * self.g - zeta * 2 * self.u
        if lead == 0:
            return None
        return min(max(-2 * self.f / lead, Fraction(-1)), Fraction(1))

    def case_id(self):
        """The paper's case, by exact comparison of rho with the breakpoints."""
        big_b, big_c = 3 - 2 * self.alpha - self.beta, 2 - self.alpha - self.beta
        rho1 = 2 * (1 - self.beta) / (3 * big_c)
        rho3 = 2 * (2 - self.beta) * big_b / (3 * big_c**2)
        return 1 + (self.rho > rho1) + (self.rho > Fraction(2, 3)) + (self.rho > rho3)

    def branch(self):
        """The paper's four-branch value (scaled by 3 sigma), from its own formulas."""
        a, b, rho = self.alpha, self.beta, self.rho
        big_a, big_b, big_c = 3 - 2 * b, 3 - 2 * a - b, 2 - a - b
        case_id = self.case_id()
        if case_id == 1:
            return big_a * big_b - 3 * rho * big_c**2
        if case_id == 2:
            return 1 - 2 * a + b * big_a + 4 * (1 - b) ** 2 / (3 * rho)
        if case_id == 3:
            return big_b
        return -big_a * big_b + 3 * rho * big_c**2

    def witnesses(self):
        """(x, zeta, term) of each zeta-boundary term in the maxima above."""
        out = [(Fraction(1), 1, abs(self.q(1, 1)))]
        for zeta in (1, -1):
            x = self.vertex(zeta)
            if x is not None:
                out.append((x, zeta, abs(self.q(x, zeta))))
        return out

    def paper(self):
        return max(2 * self.u + self.v, *(t for _, zeta, t in self.witnesses() if zeta == 1))

    def sharp(self):
        return max(2 * self.u + self.v, *(t for _, _, t in self.witnesses()))

    def functional(self, c1, c2, q1, q2):
        """a_3 - mu a_2**2 by the closed form of fslab.members, for real data."""
        u, v = self.u, self.v
        a2 = (v * q1 + u * c1) / (2 * self.tau)
        a3 = (v * (q2 + v * q1 * q1) / 2 + u * v * c1 * q1 + u * c2) / (3 * self.sigma)
        return a3 - self.mu * a2 * a2


DRAWS = list(_draws(2019, 600))


def test_paper_value_is_the_zeta_plus_one_restriction():
    # 3 sigma bound_real = max(2u + v, |Q+(1)|, |Q+(x+)|), as a rational identity
    for par, mu in DRAWS:
        ex = Exact(par, mu)
        assert ex.branch() == ex.paper(), (par, mu)


@pytest.mark.parametrize("route", ["bound_real", "bound_sharp"])
def test_float_bounds_are_within_roundoff_of_exact(route):
    # both routes cancel terms of size (1 + |rho|), so their roundoff is
    # measured at the scale (1 + |rho|) / (3 sigma); the largest error seen
    # over 5,000 draws of _draws is 23 ulps of 1 at that scale
    for par, mu in DRAWS:
        ex = Exact(par, mu)
        if route == "bound_real":
            got, want = bound_real(par, mu).value, ex.paper()
        else:
            got, want = bound_sharp(par, mu), ex.sharp()
        scale = (1 + abs(ex.rho)) / (3 * ex.sigma)
        assert abs(Fraction(got) - want / (3 * ex.sigma)) <= 32 * EPS * scale, (par, mu)


def test_each_witness_attains_its_term_exactly():
    # q = atom at 0 (q_1 = q_2 = 2) and c_1 = 2x, c_2 = 2x**2 + 2(1 - x**2) zeta;
    # the corner c_1 = q_1 = 0, c_2 = q_2 = 2 gives 2u + v
    for par, mu in DRAWS:
        ex = Exact(par, mu)
        s3 = 3 * ex.sigma
        for x, zeta, term in ex.witnesses():
            value = ex.functional(2 * x, 2 * x * x + 2 * (1 - x * x) * zeta, 2, 2)
            assert value**2 == (term / s3) ** 2, (par, mu, x, zeta)
        assert ex.functional(0, 2, 0, 2) ** 2 == ((2 * ex.u + ex.v) / s3) ** 2


def test_the_ends_never_beat_the_paper_value_on_cases_3_and_4():
    # the two lines of the bounds docstring: |Q(1)| = max(branch 1, branch 4),
    # and Q(1) <= Q(-1) = 2u + v - 2u**2 - (3 rho - 2)(u - v)**2 < 2u + v
    seen = 0
    for par, mu in DRAWS:
        ex = Exact(par, mu)
        if ex.case_id() <= 2:
            continue
        seen += 1
        u, v, rho = ex.u, ex.v, ex.rho
        q1, qm1 = ex.q(1, -1), ex.q(-1, -1)
        assert qm1 == q1 + 4 * u * v * (3 * rho - 2)
        assert qm1 == 2 * u + v - 2 * u * u - (3 * rho - 2) * (u - v) ** 2
        assert max(abs(q1), abs(qm1)) <= ex.branch(), (par, mu)
    assert seen >= 200


def test_the_corner_is_redundant():
    # v + 4|G| (q_1 = 0, |c_1| = 2) never exceeds max(2u + v, |Q+(1)|)
    for par, mu in DRAWS:
        ex = Exact(par, mu)
        u, v, rho = ex.u, ex.v, ex.rho
        corner = v + 4 * abs(ex.g)
        assert corner <= max(2 * u + v, abs(ex.q(1, 1))), (par, mu)
        if rho > Fraction(4, 3) / u:
            assert -ex.q(1, 1) - corner == v * (3 * rho * (2 * u + v) - 2 - 2 * v - 4 * u) > 0


def test_the_r_vertices_in_closed_form():
    # with D = 3 rho v - 2v - 2: R+ has its vertex at x = -u/v, where it is
    # 2u + v - 2u**2; R-'s leading coefficient is 4E + v = -v D, its vertex
    # lies at x = -u (3 rho - 2)/D, and Q(+-1) - R-(x) = -v ((3 rho - 2) u +- D)**2 / D
    # there. R_zeta'(x) = 4F + 2 (4E - zeta v) x
    for par, mu in DRAWS:
        ex = Exact(par, mu)
        u, v, rho = ex.u, ex.v, ex.rho
        big_d = 3 * rho * v - 2 * v - 2
        x_plus = -u / v
        assert 4 * ex.f + 2 * (4 * ex.e - v) * x_plus == 0, (par, mu)
        assert ex.r(x_plus, 1) == 2 * u + v - 2 * u * u, (par, mu)
        assert 4 * ex.e + v == -v * big_d, (par, mu)
        x_minus = -u * (3 * rho - 2) / big_d
        assert 4 * ex.f + 2 * (4 * ex.e + v) * x_minus == 0, (par, mu)
        for end in (1, -1):
            want = -v * ((3 * rho - 2) * u + end * big_d) ** 2 / big_d
            assert ex.q(end, 1) - ex.r(x_minus, -1) == want, (par, mu, end)
