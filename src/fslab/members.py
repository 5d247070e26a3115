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

_side_value writes this closed form in complex arithmetic from the pairs
(c_1, c_2), which _c12 sums over Python floats, one side at a time: _held
gives the terms a side's pair puts in (u c_1 and u c_2 for p, b_2 = v q_1 and
b_3 = v (q_2 + b_2 q_1) / 2 for q), and _side_value combines one side's pair
with the other side's held terms, so the search's polish computes the terms of
the side it does not move once per coordinate search. _fs_value is
_side_value with q's terms held; the search's seeded floor (_pair_value,
through herglotz_coeffs) reads it. _folded is the same form with its
constants folded, read over numpy arrays by both passes of the search's
random phase, the screen and the exact pass. Each form stays where it keeps
the results or is faster: with _folded in _fs_value, 200 of the first 300
verify benchmark results (seed 1) changed, best_value in 159, by up to
8.4e-10 relative and 138 of them lower; the float32 screen written over
_fs_value took about 195 us against 150 us per 2,048-sample chunk of 3 atoms
(2-vCPU Intel Xeon virtual machine). member_from_pq stays the reference.
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
            try:
                ok = not isinstance(v, bool) and isinstance(v, Real) and math.isfinite(v)
            except OverflowError:  # an int or a Fraction past the float range
                ok = False
            if not ok:
                raise DomainError(f"parameters must be finite reals, got {vals!r}")
            object.__setattr__(self, field.name, float(v))
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


def _coefficients(params: ClassParams) -> tuple[float, float, float, float]:
    """(u, v, 2 tau, 3 sigma), the constants of the closed form, once per search."""
    return 1.0 - params.alpha, 1.0 - params.beta, 2.0 * params.tau, 3.0 * params.sigma


def _c12(atoms):
    """(c_1, c_2), c_k = 2 sum_i w_i z_i**k, from (w_i, z_i) pairs summed in
    order; the library passes Python floats only, no arrays."""
    c1 = c2 = 0.0
    for w, z in atoms:
        c1 = c1 + w * z
        c2 = c2 + w * (z * z)
    return 2.0 * c1, 2.0 * c2


def _held(coef, side, pair):
    """The terms of the closed form that one side's (c_1, c_2) pair gives:
    (u c_1, u c_2) for p (side 0), (b_2, b_3) for q (side 1)."""
    x1, x2 = pair
    if not side:
        u = coef[0]
        return u * x1, u * x2
    v = coef[1]
    b2 = v * x1  # g = z + b_2 z**2 + b_3 z**3 + ...
    return b2, v * (x2 + b2 * x1) / 2.0


def _side_value(coef, mu: complex, side, pair, other):
    """|a_3 - mu a_2**2| from one side's (c_1, c_2) pair and _held of the
    other side's: a_2 = (b_2 + u c_1) / (2 tau), a_3 = (b_3 + b_2 u c_1 + u c_2) / (3 sigma)."""
    if side:
        (uc1, uc2), (b2, b3) = other, _held(coef, 1, pair)
    else:
        (uc1, uc2), (b2, b3) = _held(coef, 0, pair), other
    a2 = (b2 + uc1) / coef[2]
    return abs((b3 + b2 * uc1 + uc2) / coef[3] - mu * (a2 * a2))


def _folded(coef, mu: complex):
    """(d, e, A, B, C), a_3 - mu a_2**2 = d c_2 + e q_2 + (A q_1 + B c_1) q_1 + C c_1**2."""
    u, v, two_tau, three_sigma = coef
    u2, v2, six_sigma = u / two_tau, v / two_tau, 2.0 * three_sigma  # a_2 = v2 q_1 + u2 c_1
    return (u / three_sigma, v / six_sigma, v * v / six_sigma - mu * (v2 * v2),
            u * v / three_sigma - 2.0 * mu * (u2 * v2), -mu * (u2 * u2))


def _fs_value(coef, mu: complex, c, q):
    """|a_3 - mu a_2**2| from _coefficients and the (c_1, c_2) pairs of p and q."""
    return _side_value(coef, mu, 0, c, _held(coef, 1, q))


def _pair_value(coef, mu: complex, p: HerglotzMeasure, q: HerglotzMeasure) -> float:
    """|a_3 - mu a_2**2| of member_from_pq(params, p, q), in closed form."""
    return _fs_value(coef, mu, herglotz_coeffs(p, 2)[1:], herglotz_coeffs(q, 2)[1:])


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
