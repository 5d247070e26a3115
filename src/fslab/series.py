"""Truncated complex power-series arithmetic.

A :class:`PowerSeries` is an immutable coefficient vector: index k holds the
coefficient of z**k, so a series of order n stores n+1 entries. All binary
operations truncate to the smaller operand order, which keeps every routine
closed over fixed-order jets and makes truncation explicit at construction
time instead of silently growing arrays.

Coefficient sums inside ``ps_mul`` and ``ps_div`` are accumulated with
``math.fsum`` per real/imaginary part. That makes each Cauchy-product
coefficient exactly rounded, so multiplication is bitwise commutative and
results do not depend on summation order.

Only low orders are needed by the rest of the package (the functional under
study involves coefficients up to z**3; order 8 is the default to leave room
for smoke checks), so no FFT or asymptotic tricks are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NearSingular

# Default jet order used by member constructors. Everything the bounds need
# lives at k <= 3; the rest supports spot checks.
DEFAULT_ORDER = 8

# A divisor whose constant term is smaller than this in modulus is treated as
# singular: the quotient would amplify input noise past any useful tolerance.
TOL_DIV = 1e-12


@dataclass(frozen=True)
class PowerSeries:
    """Immutable truncated power series with complex coefficients.

    coeffs[k] is the coefficient of z**k; the order is len(coeffs) - 1.
    Coefficients must be finite.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        vals = tuple(complex(c) for c in self.coeffs)
        if not vals:
            raise ValueError("a PowerSeries needs at least one coefficient")
        for c in vals:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("non-finite coefficient in PowerSeries")
        object.__setattr__(self, "coeffs", vals)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]

    def __len__(self) -> int:
        return len(self.coeffs)


def _csum(terms: Sequence[complex]) -> complex:
    # exactly rounded component-wise sum; order of terms cannot matter
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to min(a.order, b.order).

    Result coefficient k is sum_{j=0..k} a[j] * b[k-j], exactly rounded.
    """
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        out.append(_csum([a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1)]))
    return PowerSeries(tuple(out))


def ps_linear(s: complex, a: PowerSeries, t: complex, b: PowerSeries) -> PowerSeries:
    """Linear combination s*a + t*b truncated to the smaller order."""
    n = min(a.order, b.order)
    return PowerSeries(tuple(s * a.coeffs[k] + t * b.coeffs[k] for k in range(n + 1)))


def ps_derivative(a: PowerSeries) -> PowerSeries:
    """Formal derivative; the order drops by one (a constant maps to [0])."""
    if a.order == 0:
        return PowerSeries((0.0,))
    return PowerSeries(tuple(k * a.coeffs[k] for k in range(1, a.order + 1)))


def ps_shift(a: PowerSeries, m: int) -> PowerSeries:
    """Multiply by z**m (m >= 0); the order grows by m."""
    if m < 0:
        raise ValueError("shift must be non-negative")
    return PowerSeries((0.0,) * m + a.coeffs)


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Synthetic long division a/b truncated to the smaller order.

    Requires |b[0]| > TOL_DIV, otherwise NearSingular is raised: quotient
    coefficients scale like 1/b[0]**k and lose all significance.
    """
    if abs(b.coeffs[0]) <= TOL_DIV:
        raise NearSingular(
            f"leading divisor coefficient {b.coeffs[0]!r} below tolerance {TOL_DIV}"
        )
    n = min(a.order, b.order)
    q: list[complex] = []
    for k in range(n + 1):
        acc = _csum([q[j] * b.coeffs[k - j] for j in range(k)]) if k else 0.0
        q.append((a.coeffs[k] - acc) / b.coeffs[0])
    return PowerSeries(tuple(q))
