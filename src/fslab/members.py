"""Class members built from atomic Herglotz data.

The family under study consists of normalized analytic functions
f(z) = z + a_2 z^2 + a_3 z^3 + ... on the unit disk satisfying

    Re[ (z f'(z) + (lam - delta + 2 lam delta) z^2 f''(z)
         + lam delta z^3 f'''(z)) / g(z) ] > alpha,

where g is starlike of order beta, i.e. Re(z g'(z)/g(z)) > beta. Parameters
obey 0 <= delta <= lam <= 1 and 0 <= alpha < 1, 0 <= beta < 1. Two positive
scale factors recur everywhere:

    tau   = 1 + lam - delta + 2 lam delta      (weights a_2)
    sigma = 1 + 2 lam - 2 delta + 6 lam delta  (weights a_3)

Members are constructed from two functions of positive real part, each given
by a finitely atomic probability measure on the circle:

    p(z) = sum_i w_i (1 + e^{i t_i} z) / (1 - e^{i t_i} z),

whose Taylor coefficients are c_k = 2 sum_i w_i e^{i k t_i} (so |c_k| <= 2
automatically). One measure drives p in the defining inequality, the other
drives q in z g'/g = beta + (1 - beta) q. Matching coefficients gives

    (k - 1) b_k = (1 - beta) sum_{j=1..k-1} q_j b_{k-j}          (g = z + ...)
    D_k a_k     = [z^k] ( g(z) * (alpha + (1 - alpha) p(z)) )
    D_k         = k [ (1 - lam + delta) + k (lam - delta) + k (k - 1) lam delta ]

with D_1 = 1, D_2 = 2 tau, D_3 = 3 sigma. Every member built this way lies in
the class by construction; membership_spotcheck re-derives the defining ratio
from the stored coefficients through independent series operations and checks
its real part on a grid. Univalence of members is not verified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    ps_derivative,
    ps_div,
    ps_linear,
    ps_mul,
    ps_shift,
)

TWO_PI = 2.0 * math.pi

# Hard cap on atoms per measure; the search module samples fewer by default.
MAX_ATOMS = 4

# Weight vectors are renormalized when their sum is this close to 1 and
# rejected otherwise: a larger drift means the caller built the measure wrong.
WEIGHT_SUM_TOL = 1e-9

# Slack for the grid membership check; covers truncation of the series tail
# at the allowed radii (tail < 6e-5 at radius 0.5, order 8).
SPOTCHECK_TOL = 1e-6


@dataclass(frozen=True)
class ClassParams:
    """Validated class parameters with derived scale factors tau and sigma."""

    lam: float
    delta: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        vals = (self.lam, self.delta, self.alpha, self.beta)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
            raise DomainError(f"parameters must be finite reals, got {vals!r}")
        if not (0.0 <= self.delta <= self.lam <= 1.0):
            raise DomainError(
                f"need 0 <= delta <= lam <= 1, got lam={self.lam}, delta={self.delta}"
            )
        if not (0.0 <= self.alpha < 1.0):
            raise DomainError(f"need 0 <= alpha < 1, got {self.alpha}")
        if not (0.0 <= self.beta < 1.0):
            raise DomainError(f"need 0 <= beta < 1, got {self.beta}")

    @property
    def tau(self) -> float:
        return 1.0 + self.lam - self.delta + 2.0 * self.lam * self.delta

    @property
    def sigma(self) -> float:
        return 1.0 + 2.0 * self.lam - 2.0 * self.delta + 6.0 * self.lam * self.delta


@dataclass(frozen=True)
class HerglotzMeasure:
    """Finitely atomic probability measure on the unit circle.

    atoms is a tuple of (weight, angle) pairs. Weights are positive and sum
    to 1 (sums within WEIGHT_SUM_TOL are renormalized, larger deviations are
    rejected); angles are stored wrapped into [0, 2*pi).
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple((float(w), float(t)) for w, t in self.atoms)
        if not 1 <= len(atoms) <= MAX_ATOMS:
            raise DomainError(f"need 1..{MAX_ATOMS} atoms, got {len(atoms)}")
        for w, t in atoms:
            if not (math.isfinite(w) and math.isfinite(t)):
                raise DomainError("non-finite atom data")
            if w <= 0.0:
                raise DomainError(f"atom weights must be positive, got {w}")
        total = math.fsum(w for w, _ in atoms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"atom weights sum to {total}, expected 1")
        atoms = tuple((w / total, t % TWO_PI) for w, t in atoms)
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class ClassMember:
    """A constructed class member and all of its coefficient data.

    Sequences are indexed by the power of z: a[0] = 0, a[1] = 1, a[k] is the
    k-th Taylor coefficient of f; likewise b for g, c for p, qk for q, and d
    for the denominators D_k (d[0] = 0).
    """

    params: ClassParams
    p_measure: HerglotzMeasure
    q_measure: HerglotzMeasure
    c: tuple[complex, ...]
    qk: tuple[complex, ...]
    b: tuple[complex, ...]
    a: tuple[complex, ...]
    d: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.a) - 1

    @property
    def a2(self) -> complex:
        return self.a[2]

    @property
    def a3(self) -> complex:
        return self.a[3]


def herglotz_coeffs(measure: HerglotzMeasure, n: int) -> tuple[complex, ...]:
    """Taylor coefficients (c_0=1, c_1, ..., c_n) of the measure's function.

    c_k = 2 sum_i w_i e^{i k t_i}; modulus never exceeds 2.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    units = [cmath.exp(1j * t) for _, t in measure.atoms]
    powers = [1.0 + 0.0j] * len(units)
    out: list[complex] = [1.0 + 0.0j]
    for _ in range(n):
        powers = [pw * u for pw, u in zip(powers, units)]
        out.append(2.0 * sum(w * pw for (w, _), pw in zip(measure.atoms, powers)))
    return tuple(out)


def starlike_from_q(q_coeffs: Sequence[complex], beta: float, n: int) -> tuple[complex, ...]:
    """Coefficients (0, 1, b_2, ..., b_n) of the starlike factor g.

    Solves (k-1) b_k = (1-beta) sum_{j=1..k-1} q_j b_{k-j} upward from b_1=1,
    where q_coeffs[j] holds q_j (q_coeffs[0] = 1 is ignored).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if len(q_coeffs) < n + 1:
        raise ValueError(f"need q coefficients through index {n}")
    b: list[complex] = [0.0, 1.0]
    for k in range(2, n + 1):
        acc = sum(q_coeffs[j] * b[k - j] for j in range(1, k))
        b.append((1.0 - beta) * acc / (k - 1))
    return tuple(b)


def denominators(params: ClassParams, n: int) -> tuple[float, ...]:
    """(0, D_1, ..., D_n) with D_k = k[(1-lam+delta) + k(lam-delta) + k(k-1) lam delta].

    Strictly positive for k >= 1 over the whole parameter domain,
    and D_2 = 2 tau, D_3 = 3 sigma.
    """
    lam, delta = params.lam, params.delta
    base, slope, curve = 1.0 - lam + delta, lam - delta, lam * delta
    return tuple(
        k * (base + k * slope + k * (k - 1) * curve) if k else 0.0 for k in range(n + 1)
    )


def member_from_pq(
    params: ClassParams,
    p: HerglotzMeasure,
    q: HerglotzMeasure,
    order: int = DEFAULT_ORDER,
) -> ClassMember:
    """Construct the unique member determined by the two measures.

    g comes from q through the starlike recurrence, then a_k is read off the
    Cauchy product g * (alpha + (1-alpha) p) divided by D_k. g is always
    derived from a measure here, never supplied raw.
    """
    if order < 3:
        raise ValueError("order must be at least 3")
    c = herglotz_coeffs(p, order)
    qk = herglotz_coeffs(q, order)
    b = starlike_from_q(qk, params.beta, order)
    d = denominators(params, order)

    one = PowerSeries((1.0,) + (0.0,) * order)
    mix = ps_linear(params.alpha, one, 1.0 - params.alpha, PowerSeries(c))
    num = ps_mul(PowerSeries(b), mix)
    a = (0.0 + 0.0j, 1.0 + 0.0j) + tuple(
        num.coeffs[k] / d[k] for k in range(2, order + 1)
    )
    return ClassMember(params, p, q, c, qk, b, tuple(a), d)


def fs_functional(member: ClassMember, mu: complex) -> complex:
    """The coefficient functional a_3 - mu * a_2**2 (mu real or complex)."""
    return member.a[3] - mu * member.a[2] ** 2


def rotate(coeffs: Sequence[complex], theta: float) -> tuple[complex, ...]:
    """Rotate tail coefficients (a_1, a_2, ..., a_n) of a normalized function.

    Returns the coefficients of e^{-i theta} f(e^{i theta} z): entry k maps to
    a_k e^{i (k-1) theta}, so the first entry is fixed.
    """
    return tuple(v * cmath.exp(1j * j * theta) for j, v in enumerate(coeffs))


def shift_measure(measure: HerglotzMeasure, theta: float) -> HerglotzMeasure:
    """Advance every atom angle by theta (the measure of z -> p(e^{i theta} z))."""
    return HerglotzMeasure(tuple((w, t + theta) for w, t in measure.atoms))


def _grid_spotcheck(
    member: ClassMember, num: tuple[complex, ...], radius: float, grid: int
) -> bool:
    """Re(num / g) > alpha - SPOTCHECK_TOL at grid points on |z| = radius.

    num and g both vanish at 0 with unit z-coefficient; the common z is
    cancelled before dividing. Shared by the two spot checks, which build
    num independently.
    """
    if not 0.0 < radius <= 0.5:
        raise ValueError("radius must lie in (0, 0.5]")
    if grid < 8:
        raise ValueError("grid too coarse to mean anything")
    ratio = ps_div(PowerSeries(num[1:]), PowerSeries(member.b[1:]))
    pts = radius * np.exp(2j * np.pi * np.arange(grid) / grid)
    vals = np.polynomial.polynomial.polyval(pts, np.asarray(ratio.coeffs))
    return bool(vals.real.min() > member.params.alpha - SPOTCHECK_TOL)


def membership_spotcheck(
    member: ClassMember, radius: float = 0.3, grid: int = 64
) -> bool:
    """Grid check of the defining inequality at |z| = radius (radius <= 0.5).

    Rebuilds z f' + (lam - delta + 2 lam delta) z^2 f'' + lam delta z^3 f'''
    from the stored a-sequence by formal differentiation, divides by g, and
    requires Re(ratio) > alpha - SPOTCHECK_TOL at every grid point. This is a
    smoke test against construction bugs, not a univalence proof; truncation
    keeps it honest only well inside the disk, hence the radius cap.
    """
    par = member.params
    f = PowerSeries(member.a)
    f1 = ps_derivative(f)
    f2 = ps_derivative(f1)
    f3 = ps_derivative(f2)
    n = member.order
    zf1 = PowerSeries(ps_shift(f1, 1).coeffs[: n + 1])
    z2f2 = PowerSeries(ps_shift(f2, 2).coeffs[: n + 1])
    z3f3 = PowerSeries(ps_shift(f3, 3).coeffs[: n + 1])
    num = ps_linear(1.0, zf1, par.lam - par.delta + 2.0 * par.lam * par.delta, z2f2)
    num = ps_linear(1.0, num, par.lam * par.delta, z3f3)
    return _grid_spotcheck(member, num.coeffs, radius, grid)
