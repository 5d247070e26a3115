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
from the stored a_k alone: z f', z^2 f'' and z^3 f''' have coefficients k a_k,
(k-1)(k a_k) and (k-2)((k-1)(k a_k)), and their combination is divided by g/z
by long division. It then checks the ratio's real part on a grid. Univalence
of members is not verified. Jets are plain tuples of complex numbers, index k
holding the coefficient of z**k, and their sums are exactly rounded. Entries
0..k of a jet do not depend on the order, so a_2 and a_3 need only order 3.

The functional depends on a member only through c_1, c_2 (of p) and q_1, q_2.
With u = 1 - alpha and v = 1 - beta,

    a_2 = (v q_1 + u c_1) / (2 tau)
    a_3 = (v (q_2 + v q_1**2) / 2 + u v c_1 q_1 + u c_2) / (3 sigma).

The search (:mod:`fslab.search`) evaluates this closed form; member_from_pq
is its reference.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass, fields
from itertools import accumulate, repeat
from numbers import Complex, Real
from operator import mul
from typing import Sequence

import numpy as np

from .errors import DomainError, NearSingular

TWO_PI = 2.0 * math.pi

# Default jet order used by member constructors. Everything the bounds need
# lives at k <= 3; the rest supports spot checks.
DEFAULT_ORDER = 8

# Hard cap on atoms per measure; the search module samples fewer by default.
MAX_ATOMS = 4

# Weight vectors are renormalized when their sum is this close to 1 and
# rejected otherwise: a larger drift means the caller built the measure wrong.
WEIGHT_SUM_TOL = 1e-9

# Slack for the grid membership check; covers truncation of the series tail
# at the allowed radii (tail < 6e-5 at radius 0.5, order 8).
SPOTCHECK_TOL = 1e-6

# A divisor jet whose constant term is smaller than this in modulus is treated
# as singular: the quotient would amplify input noise past any useful tolerance.
DIVISOR_TOL = 1e-12


def _finite_real(v) -> float | None:
    """v as a float if it is a finite real number, else None: no bool, string,
    array, or int or Fraction past the float range is read as a number."""
    try:  # a float skips isinstance's ABC check (about 0.5 us on a 2-vCPU Xeon VM)
        if (type(v) is float or type(v) is not bool and isinstance(v, Real)) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an int or a Fraction past the float range
        pass
    return None


@dataclass(frozen=True)
class ClassParams:
    """Validated class parameters with derived scale factors tau and sigma."""

    lam: float
    delta: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        vals = (self.lam, self.delta, self.alpha, self.beta)
        for field, v in zip(fields(self), vals):
            x = _finite_real(v)
            if x is None:
                raise DomainError(f"parameters must be finite reals, got {vals!r}")
            object.__setattr__(self, field.name, x)
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
    rejected); angles are stored wrapped into [0, 2*pi). Stored weights sum
    to exactly 1 under math.fsum, so HerglotzMeasure(m.atoms) == m.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple((_finite_real(w), _finite_real(t)) for w, t in self.atoms)
        if not 1 <= len(atoms) <= MAX_ATOMS:
            raise DomainError(f"need 1..{MAX_ATOMS} atoms, got {len(atoms)}")
        for w, t in atoms:
            if w is None or t is None:
                raise DomainError("non-finite atom data")
            if w <= 0.0:
                raise DomainError(f"atom weights must be positive, got {w}")
        total = math.fsum(w for w, _ in atoms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"atom weights sum to {total}, expected 1")
        weights = [w / total for w, _ in atoms]
        if math.fsum(weights) != 1.0:
            # The largest weight is below 1, so fsum([1, -others]) is within
            # 2**-54 of its exact value and the new sum rounds to exactly 1.
            i = weights.index(max(weights))
            weights[i] = math.fsum([1.0, *(-w for j, w in enumerate(weights) if j != i)])
        # t % TWO_PI rounds up to TWO_PI itself for tiny negative t
        angles = [t % TWO_PI for _, t in atoms]
        atoms = tuple((w, t if t < TWO_PI else 0.0) for w, t in zip(weights, angles))
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
    rows = zip(*(accumulate(repeat(u, n), mul, initial=1.0 + 0.0j) for u in units))
    next(rows)  # row k holds every atom's u**k; c_0 = 1 is not a sum
    weights = [w for w, _ in measure.atoms]
    return (1.0 + 0.0j, *(2.0 * sum(map(mul, weights, row)) for row in rows))


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


def _jet(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    """coeffs as a non-empty tuple of finite complex numbers (ValueError if not)."""
    out = tuple(map(complex, coeffs))
    if not out:
        raise ValueError("a jet needs at least one coefficient")
    if not all(map(cmath.isfinite, out)):
        raise ValueError("non-finite jet coefficient")
    return out


def _csum(terms: Sequence[complex]) -> complex:
    # exactly rounded component-wise sum; order of terms cannot matter
    return complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))


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

    u = 1.0 - params.alpha
    mix = [params.alpha * complex(k == 0) + u * ck for k, ck in enumerate(c)]
    g = _jet(b)
    a = (0.0 + 0.0j, 1.0 + 0.0j) + tuple(
        _csum([g[j] * mix[k - j] for j in range(k + 1)]) / d[k]
        for k in range(2, order + 1)
    )
    return ClassMember(params, p, q, c, qk, b, a, d)


def _scalar_mu(mu) -> float | complex:
    """The one real-or-complex test of mu: complex (numpy's too), float, or DomainError."""
    if isinstance(mu, Complex) and not isinstance(mu, (bool, np.bool_)):
        with contextlib.suppress(OverflowError):  # an int or a Fraction past the float range
            return complex(mu) if isinstance(mu, (complex, np.complexfloating)) else float(mu)
    raise DomainError(f"mu must be a real or complex number in the float range, got {mu!r}")


def fs_functional(member: ClassMember, mu: complex) -> complex:
    """The coefficient functional a_3 - mu * a_2**2 (mu real or complex)."""
    return member.a[3] - _scalar_mu(mu) * member.a[2] ** 2


def _polyval(coeffs: tuple[complex, ...], pts: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] pts**k by the Horner recurrence that
    np.polynomial.polynomial.polyval runs, so bitwise its values, without
    its argument handling."""
    vals = coeffs[-1] + pts * 0
    for c in reversed(coeffs[:-1]):
        vals = c + vals * pts
    return vals


@functools.lru_cache(maxsize=16)
def _circle(radius: float, grid: int) -> np.ndarray:
    """The grid points on |z| = radius, read-only."""
    pts = radius * np.exp(2j * np.pi * np.arange(grid) / grid)
    pts.flags.writeable = False
    return pts


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
    top, g = _jet(num[1:]), _jet(member.b[1:])
    if abs(g[0]) <= DIVISOR_TOL:
        raise NearSingular(f"leading divisor coefficient {g[0]!r} below tolerance {DIVISOR_TOL}")
    ratio: list[complex] = []  # long division top / g, truncated to the shorter jet
    for k in range(min(len(top), len(g))):
        acc = _csum([ratio[j] * g[k - j] for j in range(k)]) if k else 0.0
        ratio.append((top[k] - acc) / g[0])
    # _jet rejects a quotient that overflowed
    vals = _polyval(_jet(ratio), _circle(radius, grid))
    return bool(vals.real.min() > member.params.alpha - SPOTCHECK_TOL)


def membership_spotcheck(
    member: ClassMember, radius: float = 0.3, grid: int = 64
) -> bool:
    """Grid check of the defining inequality at |z| = radius (radius <= 0.5).

    Rebuilds z f' + (lam - delta + 2 lam delta) z^2 f'' + lam delta z^3 f'''
    from the stored a-sequence coefficient by coefficient, divides by g, and
    requires Re(ratio) > alpha - SPOTCHECK_TOL at every grid point. This is a
    smoke test against construction bugs, not a univalence proof; truncation
    keeps it honest only well inside the disk, hence the radius cap.
    """
    par = member.params
    s2, s3 = par.lam - par.delta + 2.0 * par.lam * par.delta, par.lam * par.delta
    num = []
    for k, ak in enumerate(_jet(member.a)):
        # z^m f^(m) has coefficient k (k-1) ... (k-m+1) a_k, and 0 for k < m
        zf1 = k * ak if k >= 1 else 0j
        z2f2 = (k - 1) * zf1 if k >= 2 else 0j
        z3f3 = (k - 2) * z2f2 if k >= 3 else 0j
        # a complex product by 1.0 can change the sign of a zero part, so
        # the unit factors are part of the result
        num.append(1.0 * (1.0 * zf1 + s2 * z2f2) + s3 * z3f3)
    return _grid_spotcheck(member, tuple(num), radius, grid)
