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
(k-1)(k a_k) and (k-2)((k-1)(k a_k)). Their combination N_n and g_n, both
cut at order n, are evaluated at 64 points on |z| = 0.3, one fixed circle
well inside the disk, and divided point by point; the check reads the real
part of N_n / g_n. One product reads all 128 values: the two jets' n
coefficients each as 2n floats, real and imaginary parts interleaved, times
a cached read-only (2n, 128) table of the circle's powers in the same float
view (_powers). Univalence of members is not verified. Jets are plain tuples
of complex numbers, index k holding the coefficient of z**k, and their sums
are exactly rounded. Entries 0..k of a jet do not depend on the order, so a_2
and a_3 need only order 3.

The functional depends on a member only through c_1, c_2 (of p) and q_1, q_2.
With u = 1 - alpha and v = 1 - beta,

    a_2 = (v q_1 + u c_1) / (2 tau)
    a_3 = (v (q_2 + v q_1**2) / 2 + u v c_1 q_1 + u c_2) / (3 sigma).

The search (:mod:`fslab.search`) evaluates this closed form; member_from_pq
is its reference.

The extremal witnesses are built from a few constant measures, and a
caller's members mostly share one parameter tuple, so member builds keep
recomputing the same c and D_k jets. herglotz_coeffs and denominators keep
the jets of their last 16 keys each (lru_cache): the key is every input the
jet reads, equal keys are equal bits, and the jets are immutable tuples that
members may share, so every result stays bit for bit what it was uncached.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
from functools import reduce
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from numbers import Complex, Integral, Real
from operator import add, attrgetter, mul
from typing import Sequence

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

# Default jet order used by member constructors. Everything the bounds need
# lives at k <= 3; the rest supports spot checks.
DEFAULT_ORDER = 8

# Hard cap on atoms per measure; the search module samples fewer by default.
MAX_ATOMS = 4

# Weight vectors are renormalized when their sum is this close to 1 and
# rejected otherwise: a larger drift means the caller built the measure wrong.
WEIGHT_SUM_TOL = 1e-9

# Slack for the grid membership check. Re p >= (1 - r) / (1 + r) leaves a
# member the margin (1 - alpha) 0.7 / 1.3 = 0.538 (1 - alpha) at |z| = 0.3.
# N_n = alpha g_n + (1 - alpha)(g p)_n, so truncating both jets at order n
# scales with 1 - alpha too: the lowest margins that a Nelder-Mead search over
# two atoms each for p and q found were 0.532 (1 - alpha) at order 8, 0.317
# (1 - alpha) at order 4 and 0.190 (1 - alpha) at order 3, so the slack
# absorbs only roundoff. The product that reads the jets on the circle
# rounds within a few n 2**-53 sum_k |r_k| 0.3**k of each exact value for a
# jet r of n terms: the checked minimum was at most 7.8e-16 from numpy's
# polyval quotient on the 1,500 checks of 500 benchmark witness ops.
SPOTCHECK_TOL = 1e-6


def _finite_real(v) -> float | None:
    """v as a float if it is a finite real number, else None: no bool, string,
    array, or int or Fraction past the float range is read as a number."""
    try:  # a float skips isinstance's ABC check (about 0.5 us on a 2-vCPU Xeon VM)
        if (type(v) is float or type(v) is not bool and isinstance(v, Real)) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an int or a Fraction past the float range
        pass
    return None


def _whole(v) -> int | None:
    """v as an int if it is an integer (numpy's too), else None: no bool
    (numpy's bool is no Integral), float or string is read as a count."""
    # an int skips isinstance's ABC check (about 0.5 us), as in _finite_real
    if type(v) is int or not isinstance(v, bool) and isinstance(v, Integral):
        return int(v)
    return None


def _starlike_beta(beta) -> float:
    """beta as a float if 0 <= beta < 1 (the order of starlikeness), else DomainError."""
    b = _finite_real(beta)
    if b is None or not 0.0 <= b < 1.0:
        raise DomainError(f"need 0 <= beta < 1, got {beta!r}")
    return b


@dataclass(frozen=True)
class ClassParams:
    """Validated class parameters with derived scale factors tau and sigma."""

    lam: float
    delta: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        vals = (self.lam, self.delta, self.alpha, self.beta)
        for name, v in zip(self.__dataclass_fields__, vals):
            x = _finite_real(v)
            if x is None:
                raise DomainError(f"parameters must be finite reals, got {vals!r}")
            object.__setattr__(self, name, x)
        if not (0.0 <= self.delta <= self.lam <= 1.0):
            raise DomainError(
                f"need 0 <= delta <= lam <= 1, got lam={self.lam}, delta={self.delta}"
            )
        if not (0.0 <= self.alpha < 1.0):
            raise DomainError(f"need 0 <= alpha < 1, got {self.alpha}")
        _starlike_beta(self.beta)

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


# _total(terms, start): the terms added left to right from start, on every
# Python, with no Python frame of its own. Builtin sum adds floats with
# compensation from Python 3.12 on and complex numbers from 3.14 on, and 3.14
# adds its int start to a complex number as a real one, keeping a -0.0
# imaginary part: each moves bits. From 0j, a complex total is builtin sum's
# on Python 3.10 to 3.13, where 0 + c is 0j + c.
_total = functools.partial(reduce, add)


def herglotz_coeffs(measure: HerglotzMeasure, n: int) -> tuple[complex, ...]:
    """Taylor coefficients (c_0=1, c_1, ..., c_n) of the measure's function.

    c_k = 2 sum_i w_i e^{i k t_i}; modulus never exceeds 2.

    A HerglotzMeasure's jet is kept in a small bounded cache keyed on
    (atoms, n), and a repeated key returns the same tuple. Stored atoms hold
    no -0.0 angle and no NaN, so equal keys are equal bits and a cached jet
    is bit for bit the one computed afresh. Any other measure-like object is
    computed afresh.
    """
    n = _whole(n)
    if n is None or n < 1:
        raise ValueError("need n >= 1")
    if type(measure) is HerglotzMeasure:
        return _herglotz(measure.atoms, n)
    return _herglotz.__wrapped__(measure.atoms, n)


# Entries per jet cache. The extremal witnesses' constant measures and one
# parameter tuple's denominators recur across a caller's member builds. On
# 2,000 benchmark witness ops, 16 herglotz entries hit 58 % of calls, as 64
# do, and 16 denominator entries 37 % (47 % at 64, from tuples that recur
# across ops).
_JET_CACHE = 16


@functools.lru_cache(maxsize=_JET_CACHE)
def _herglotz(atoms: tuple[tuple[float, float], ...], n: int) -> tuple[complex, ...]:
    """herglotz_coeffs for checked atoms and order."""
    units = [cmath.exp(1j * t) for _, t in atoms]
    rows = zip(*(accumulate(repeat(u, n), mul, initial=1.0 + 0.0j) for u in units))
    next(rows)  # row k holds every atom's u**k; c_0 = 1 is not a sum
    weights = [w for w, _ in atoms]
    return (1.0 + 0.0j, *(2.0 * _total(map(mul, weights, row), 0j) for row in rows))


def starlike_from_q(q_coeffs: Sequence[complex], beta: float, n: int) -> tuple[complex, ...]:
    """Coefficients (0, 1, b_2, ..., b_n) of the starlike factor g.

    Solves (k-1) b_k = (1-beta) sum_{j=1..k-1} q_j b_{k-j} upward from b_1=1,
    where q_coeffs[j] holds q_j (q_coeffs[0] = 1 is ignored).
    """
    v = 1.0 - _starlike_beta(beta)
    n = _whole(n)
    if n is None or n < 1:
        raise ValueError("need n >= 1")
    if len(q_coeffs) < n + 1:
        raise ValueError(f"need q coefficients through index {n}")
    return _starlike(q_coeffs, v, n)


def _starlike(q_coeffs: Sequence[complex], v: float, n: int) -> tuple[complex, ...]:
    """starlike_from_q's recurrence for checked inputs, with v = 1 - beta."""
    b: list[complex] = [0.0, 1.0]
    for k in range(2, n + 1):
        # a plain sum from 0j, not exactly rounded as a_k's: its rounding and signed zeros are b's
        b.append(v * _total(map(mul, q_coeffs[1:k], b[k - 1 : 0 : -1]), 0j) / (k - 1))
    return tuple(b)


def denominators(params: ClassParams, n: int) -> tuple[float, ...]:
    """(0, D_1, ..., D_n) with D_k = k[(1-lam+delta) + k(lam-delta) + k(k-1) lam delta].

    Strictly positive for k >= 1 over the whole parameter domain, with
    D_1 = 1 exactly (the sum rounds below 1 at some lam, delta), D_2 = 2 tau
    and D_3 = 3 sigma.

    The tuple is kept in a small bounded cache keyed on (lam, delta, n), and
    a repeated key returns the same tuple. The keys are floats, for which
    0.0 == -0.0, but a signed zero in lam or delta cannot reach a D_k, so a
    cached tuple is bit for bit the one computed afresh.
    """
    n = _whole(n)
    if n is None or n < 1:
        raise ValueError("need n >= 1")
    return _denominators(params.lam, params.delta, n)


@functools.lru_cache(maxsize=_JET_CACHE)
def _denominators(lam: float, delta: float, n: int) -> tuple[float, ...]:
    """denominators for checked lam, delta and order."""
    base, slope, curve = 1.0 - lam + delta, lam - delta, lam * delta
    return (0.0, 1.0, *(k * (base + k * slope + k * (k - 1) * curve) for k in range(2, n + 1)))


def _jet(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    """coeffs as a non-empty tuple of finite complex numbers (ValueError if not)."""
    out = tuple(map(complex, coeffs))
    if not out:
        raise ValueError("a jet needs at least one coefficient")
    if not all(map(cmath.isfinite, out)):
        raise ValueError("non-finite jet coefficient")
    return out


_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


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
    order = _whole(order)
    if order is None or order < 3:
        raise ValueError("order must be at least 3")
    c = herglotz_coeffs(p, order)
    qk = herglotz_coeffs(q, order)
    b = _starlike(qk, 1.0 - params.beta, order)  # params checked beta
    d = denominators(params, order)

    u = 1.0 - params.alpha
    # alpha + u p's coefficients; 0j + makes a zero part +0.0, whose sign a_k can carry
    mix = [params.alpha * (1.0 + 0.0j) + u * c[0], *(0j + u * ck for ck in c[1:])]
    g = (0j, 1.0 + 0.0j, *b[2:])  # _starlike's finite jet, complex throughout
    a = [0.0 + 0.0j, 1.0 + 0.0j]
    for k in range(2, order + 1):
        # exactly rounded in each part, from C iterators: the terms' order cannot matter
        terms = [*map(mul, g[: k + 1], mix[k::-1])]
        a.append(complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms))) / d[k])
    return ClassMember(params, p, q, c, qk, b, tuple(a), d)


def _scalar_mu(mu) -> float | complex:
    """The one check of a scalar mu: a finite complex (numpy's too) or float,
    else DomainError."""
    if type(mu) is float or type(mu) is complex:  # skips the ABC checks (about 1 us)
        if cmath.isfinite(mu):
            return mu
        raise DomainError(f"mu must be finite, got {mu!r}")
    if isinstance(mu, Complex) and not isinstance(mu, (bool, np.bool_)):
        with contextlib.suppress(OverflowError):  # an int or a Fraction past the float range
            x = complex(mu) if isinstance(mu, (complex, np.complexfloating)) else float(mu)
            if cmath.isfinite(x):
                return x
            raise DomainError(f"mu must be finite, got {x!r}")
    raise DomainError(f"mu must be a real or complex number in the float range, got {mu!r}")


def fs_functional(member: ClassMember, mu: complex) -> complex:
    """The coefficient functional a_3 - mu * a_2**2 (mu finite, real or complex)."""
    return member.a[3] - _scalar_mu(mu) * member.a[2] ** 2


# the spot checks' grid: 64 points on |z| = 0.3, well inside the disk
_CIRCLE = 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
_CIRCLE.flags.writeable = False

@functools.lru_cache(maxsize=8)
def _powers(n: int) -> np.ndarray:
    """The read-only (2n, 128) float table whose rows 2k and 2k + 1 are the
    float views of z**k and 1j * z**k at the points of _CIRCLE, real and
    imaginary parts interleaved. The float view of a jet (r_0, ..., r_{n-1})
    times the table is then the float view of sum_k r_k z**k at each point.
    A table holds 2 KiB per order, and a caller's spot checks mostly share
    one order."""
    zk = np.vander(_CIRCLE, n, increasing=True).T
    table = np.empty((2 * n, _CIRCLE.size), complex)
    table[0::2], table[1::2] = zk, 1j * zk
    table = table.view(np.float64)
    table.flags.writeable = False
    return table


def _grid_spotcheck(member: ClassMember, num: tuple[complex, ...]) -> bool:
    """Re(num_n / g_n) > alpha - SPOTCHECK_TOL at the points of _CIRCLE.

    num and g both vanish at 0 with unit z-coefficient; the common z is
    cancelled, both jets are cut to the shorter one's n terms, and one float
    product with _powers evaluates both on the circle before they are divided
    point by point. A g with b_1 != 1, which only a hand-built member can
    carry, is a DomainError, and a coefficient or a value that is not finite
    a ValueError. Shared by the two spot checks, which build num
    independently.
    """
    top, g = _jet(num[1:]), _jet(member.b[1:])
    if g[0] != 1.0:
        raise DomainError(f"g must be normalized with b_1 = 1, got {g[0]!r}")
    n = min(len(top), len(g))
    with np.errstate(all="ignore"):
        both = np.array((top[:n], g[:n])).view(np.float64) @ _powers(n)
        top_n, g_n = both.view(np.complex128)
        ratio = top_n / g_n
    # a g_n past DBL_MAX would leave a finite quotient of 0
    if not (np.isfinite(both).all() and np.isfinite(ratio).all()):
        raise ValueError("non-finite spot-check value")
    return bool(ratio.real.min() > member.params.alpha - SPOTCHECK_TOL)


def membership_spotcheck(member: ClassMember) -> bool:
    """Grid check of the defining inequality at 64 points on |z| = 0.3.

    Rebuilds z f' + (lam - delta + 2 lam delta) z^2 f'' + lam delta z^3 f'''
    from the stored a-sequence coefficient by coefficient, divides it by g
    at every grid point and requires Re(ratio) > alpha - SPOTCHECK_TOL. This
    is a smoke test against construction bugs, not a univalence proof;
    truncation keeps it honest only well inside the disk, hence the small
    radius.
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
    return _grid_spotcheck(member, tuple(num))
