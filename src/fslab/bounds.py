"""Closed-form bounds for the functional a_3 - mu a_2**2 over the class.

All bounds are stated for the normalized member f = z + a_2 z^2 + a_3 z^3 + ...
of the class described in :mod:`fslab.members`. Three routes exist:

* real mu: a four-branch piecewise value. Writing rho = mu sigma / tau**2
  reduces the general class to the lam = delta = 0 case, because the
  second-order transform F = (1-lam+delta) f + (lam-delta) z f' + lam delta
  z^2 f'' has A_2 = tau a_2 and A_3 = sigma a_3. The scaled quantity
  3 sigma |a_3 - mu a_2**2| is bounded by, with A = 3-2 beta, B = 3-2 alpha-beta,
  C = 2-alpha-beta:

      case 1 (mu <= mu1):        A*B - 3 rho C**2
      case 2 (mu1 < mu <= mu2):  1 - 2 alpha + beta*A + 4 (1-beta)**2 / (3 rho)
      case 3 (mu2 < mu <= mu3):  B
      case 4 (mu3 < mu):         -A*B + 3 rho C**2

  with breakpoints mu1 = 2(1-beta) tau**2 / (3 C sigma), mu2 = 2 tau**2 /
  (3 sigma), mu3 = 2(2-beta) B tau**2 / (3 C**2 sigma). Adjacent branches agree
  at the breakpoints and every branch is positive on its own range; ties in
  case selection go to the lower case id.

  Validity caveat: every branch value is attained by an explicit member (see
  :mod:`fslab.extremal`), and on cases 1-2 no member exceeding it has ever
  been found, but on cases 3-4 the value is NOT an upper bound whenever
  alpha > 0 (below). bound_real keeps the paper's value unchanged as the
  reproduction target; bound_sharp is the real-mu bound to sweep against.

* real mu, sharp. With u = 1-alpha, v = 1-beta and (apart from A, B, C above)

      E = v/4 + v**2/2 - 3 rho v**2/4,  F = u v (1 - 3 rho/2),
      G = u/2 - 3 rho u**2/4,  Q+-(x) = 4 (E + F x + G x**2) +- 2u (1 - x**2),

  q = atom at 0 and the p with c_1 = 2x, c_2 = 2x**2 + 2(1 - x**2) zeta on
  the zeta = +-1 boundary of c_2 = c_1**2/2 + (2 - |c_1|**2/2) zeta,
  |zeta| <= 1 (Libera-Zlotkiewicz, Proc. AMS 1982) give 3 sigma (a_3 -
  mu a_2**2) = Q+-(x). Q+-(1) is branch 1 (minus branch 4), Q+ at its vertex
  is branch 2 and c_1 = q_1 = 0 gives branch 3, so with x+ the clipped vertex

      3 sigma bound_real = max(2u + v, |Q+(1)|, |Q+(x+)|).

  The defect is the dropped zeta = -1 vertex x- = -v (2 - 3 rho)/(4 - 3 rho u):
  on cases 3-4 with alpha > 0 bound_sharp adds |Q-(x-)| / (3 sigma) where
  -1 < x- < 1. The ends cannot beat the paper's value there: |Q(1)| =
  max(branch 1, branch 4), and Q(-1) = Q(1) + 4uv(3 rho - 2) = 2u + v - 2u**2
  - (3 rho - 2)(u - v)**2 lies in [Q(1), 2u + v) once rho >= 2/3. Nor can
  the corner q_1 = 0, |c_1| = 2, worth v + 4|G|: it is below Q+(1) for
  rho <= 0, at most 2u + v up to rho = 4/(3u), and past that
  -Q+(1) - (v + 4|G|) = v (3 rho (2u + v) - 2 - 2v - 4u) > 0. At alpha=0.6,
  beta=0, mu=1.25 the paper's value is 0.65 and x- = 0.7 gives 0.68; the
  excess stops once rho >= max((4-2 beta)/(3(1-beta)), 4/(3(1-alpha))).
  Every term is attained, so bound_sharp is sharp. That it is an upper bound
  reduces to two disk problems. Libera-Zlotkiewicz on p and on q gives

      3 sigma (a_3 - mu a_2**2) = E q_1**2 + F c_1 q_1 + G c_1**2
                                  + u (2 - r**2/2) zeta + v (1 - s**2/4) eta

  with r = |c_1|, s = |q_1| and |zeta|, |eta| <= 1 independent. Homogeneity:
  along a ray (t r, t s) at fixed arguments the quadratic part is
  homogeneous of degree 2, so the largest modulus over zeta and eta is
  2u + v + t**2 K, affine in t**2, and the maximum lies at the origin
  (2u + v, case 3) or on the edge s = 2 or r = 2 (this holds for complex mu
  too). On the edge s = 2, q_1 = 2 w and c_1 = 2 z w with |w| = 1, |z| <= 1,
  the rotation w cancels, and so on r = 2:

      3 sigma bound_sharp = max(2u + v, Phi(4E, 4F, 4G; 2u), Phi(4G, 4F, 4E; v)),
      Phi(a, b, c; k) = max over |z| <= 1 of |a + b z + c z**2| + k (1 - |z|**2)
                      = k Y(a/k, b/k, c/k).

  For real a, b, c, Lemma 3 of Choi, Kim and Sugawa (J. Math. Soc. Japan 59,
  2007) gives Y in closed form, a complete list of candidates: the sum
  |a| + |b| + |c|, three vertex branches, two R branches |a| + |b| - |c| and
  -|a| + |b| + |c|, and the circle value (|a| + |c|) sqrt(1 - b**2/(4 a c)).
  The sum and R branches are values at z = +-1, so on either edge they are
  the ends |Q+-(+-1)| (the edge r = 2 has the same end values); on s = 2 the
  vertex branches are |Q+-(x+-)| at an interior vertex. tests/test_exact.py
  checks the lemma against a polar grid and, in exact rational arithmetic,
  that the largest candidate off the circle equals the largest of the
  terms above and that no candidate exceeds it. Two dominances are established numerically, not
  proved: the vertex branches of the edge r = 2 and the circle branch on
  either edge never exceed the terms above. A grid search with polish over
  (|q_1|, |c_1|, arg c_1) matched bound_sharp to 1e-15 relative on 300
  draws and never beat it beyond roundoff, nor have random search and the
  acceptance sweep. On cases 1-2 and at alpha = 0 |Q-(x-)| never exceeded
  the paper's value beyond roundoff, and there bound_sharp returns that
  value bitwise; at alpha = 0 this is Koepf's result (Proc. AMS 101, 1987).

* complex mu: a triangle-inequality bound. With Psi(s) = 3 sigma (1-s)/tau**2,

      3 sigma |a_3 - mu a_2**2| <=
            (1-beta)   max(1, |3 - 2 beta - mu Psi(beta)|)
          + 2 (1-alpha) max(1, |1 - mu Psi(alpha)/2|)
          + 4 (1-alpha)(1-beta) |1 - mu Psi(0)/2|.

  At mu = 0 it agrees exactly with the real routes; whether it is sharp for
  non-real mu is unknown, so only validity is ever asserted for it.

Published special cases are bound_real with some parameters pinned to 0:
ad2 pins delta; al-abbadi-darus pins delta and alpha; darus-thomas pins lam
and delta; keogh-merkes (the classical close-to-convex class) pins all four.
In the classical case the middle branch is 1/3 + 4/(9 mu); a minus-sign
variant of that branch seen in print is discontinuous at mu = 1/3 and
mu = 2/3 and is exceeded by explicit members (value 11/9 at mu = 1/2), so
the continuous form is the correct one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .members import ClassParams, _scalar_mu, _starlike_beta


def _rho(params: ClassParams, mu):
    """rho = mu sigma / tau**2: real mu after passing to the second-order
    transform, for a float or an array."""
    return mu * params.sigma / params.tau**2


@dataclass(frozen=True)
class BoundReport:
    """Everything the real-mu bound evaluation knows about one mu."""

    mu: float
    case_id: int
    breakpoints: tuple[float, float, float]
    scaled_value: float  # bound on 3 sigma |a_3 - mu a_2**2|
    value: float  # bound on |a_3 - mu a_2**2|


def _psi(params: ClassParams, s: float) -> float:
    """Psi(s) = 3 sigma (1 - s) / tau**2."""
    return 3.0 * params.sigma * (1.0 - s) / params.tau**2


def breakpoints(params: ClassParams) -> tuple[float, float, float]:
    """The three mu thresholds (mu1, mu2, mu3) separating the four branches.

    Ordered mu1 < mu2 < mu3 on the open parameter domain in exact
    arithmetic; in floating point mu1 can exceed mu2 by an ulp when alpha is
    within a few ulps of 1, which _case_id allows for.
    """
    a, b = params.alpha, params.beta
    t2 = params.tau**2
    s3 = 3.0 * params.sigma
    c = 2.0 - a - b
    mu1 = 2.0 * (1.0 - b) * t2 / (s3 * c)
    mu2 = 2.0 * t2 / s3
    mu3 = 2.0 * (2.0 - b) * (3.0 - 2.0 * a - b) * t2 / (s3 * c * c)
    return (mu1, mu2, mu3)


def _case_id(mu, bps: tuple[float, float, float]):
    """The lowest case whose breakpoint mu does not exceed (4 past mu3).

    Counts 1 + (mu > mu1) + (mu > mu2) + (mu > mu3), for a float or an
    array, against the breakpoints' running maxima, so ties go to the lower
    case even where roundoff puts mu1 an ulp above mu2.
    """
    mu1, mu2, mu3 = bps
    mu2 = max(mu1, mu2)
    return 1 + (mu > mu1) + (mu > mu2) + (mu > max(mu2, mu3))


def _branch(params: ClassParams, rho, case_id: int):
    """One branch formula (scaled form) at rho, a float or an array."""
    a, b = params.alpha, params.beta
    big_a = 3.0 - 2.0 * b
    big_b = 3.0 - 2.0 * a - b
    big_c = 2.0 - a - b
    if case_id == 1:
        return big_a * big_b - 3.0 * rho * big_c**2
    if case_id == 2:
        return 1.0 - 2.0 * a + b * big_a + 4.0 * (1.0 - b) ** 2 / (3.0 * rho)
    if case_id == 3:
        return big_b
    return -big_a * big_b + 3.0 * rho * big_c**2


def bound_real(params: ClassParams, mu: float) -> BoundReport:
    """Piecewise four-branch value for |a_3 - mu a_2**2|, with diagnostics.

    Attained by the witnesses in :mod:`fslab.extremal` for every case, and a
    genuine upper bound on cases 1-2, but exceeded by explicit members on a
    case-3/4 window whenever alpha > 0 (see the module docstring). Use
    bound_sharp for a sharp bound that holds there too, and bound_complex
    for non-real mu.

    Complex mu is rejected rather than projected; use bound_complex for it.
    """
    mu = _scalar_mu(mu)
    if isinstance(mu, complex):
        raise DomainError("bound_real takes real mu; use bound_complex")
    bps = breakpoints(params)
    case_id = _case_id(mu, bps)
    scaled = _branch(params, _rho(params, mu), case_id)
    return BoundReport(
        mu=mu,
        case_id=case_id,
        breakpoints=bps,
        scaled_value=scaled,
        value=scaled / (3.0 * params.sigma),
    )


def _sharp(params: ClassParams, mu: float) -> tuple[float, BoundReport, float | None]:
    """(bound_sharp's value, bound_real's report, x*) at mu: x* is the
    interior vertex x- of Q- (module docstring) where |Q-(x-)| / (3 sigma)
    beats the paper's value strictly, else None. On cases 1-2 and at
    alpha = 0 that value is returned bitwise, not raced against terms equal
    to it up to roundoff, and x = +-1 never beat it on cases 3-4. Where the
    paper's order of evaluation overflows on case 1 or 4, the branch is
    mu (C / tau)**2 - A B / (3 sigma) (negated on case 1), whose
    intermediates stay below the larger of |mu| and the value."""
    report = bound_real(params, mu)
    if report.case_id in (1, 4) and not math.isfinite(report.value):
        a, b = params.alpha, params.beta
        c_tau = (2.0 - a - b) / params.tau
        value = report.mu * c_tau * c_tau - (3.0 - 2.0 * b) * (3.0 - 2.0 * a - b) / (3.0 * params.sigma)
        return (value if report.case_id == 4 else -value), report, None
    if report.case_id > 2 and params.alpha != 0.0:
        u, v = 1.0 - params.alpha, 1.0 - params.beta
        rho = _rho(params, report.mu)
        qa = u * (4.0 - 3.0 * rho * u)
        qb = 2.0 * u * v * (2.0 - 3.0 * rho)
        qc = v + 2.0 * v * v - 2.0 * u - 3.0 * rho * v * v
        x = -qb / (2.0 * qa) if qa != 0.0 else math.nan
        if -1.0 < x < 1.0:
            value = abs((qa * x + qb) * x + qc) / (3.0 * params.sigma)
            if value > report.value:
                return value, report, x
    return report.value, report, None


def bound_sharp(params: ClassParams, mu: float) -> float:
    """Sharp bound on |a_3 - mu a_2**2| for real mu, valid on all four cases.

    The larger of bound_real's value and the two-atom term (see the module
    docstring); :func:`fslab.extremal.sharp_witness` attains it. It stays
    finite wherever its exact value is, while bound_real keeps the paper's
    order of evaluation and its overflow (inf at alpha, beta -> 1 and
    |mu| near DBL_MAX).
    """
    return _sharp(params, mu)[0]


def _triangle(params: ClassParams, mu, absf, maxf):
    """The three triangle terms' sum (scaled form), for a complex mu with abs
    and max, or for an array of real mu with np.abs and np.maximum."""
    a, b = params.alpha, params.beta
    pb, pa, p0 = _psi(params, b), _psi(params, a), _psi(params, 0.0)
    t1 = (1.0 - b) * maxf(1.0, absf(3.0 - 2.0 * b - mu * pb))
    t2 = 2.0 * (1.0 - a) * maxf(1.0, absf(1.0 - mu * pa / 2.0))
    t3 = 4.0 * (1.0 - a) * (1.0 - b) * absf(1.0 - mu * p0 / 2.0)
    return t1 + t2 + t3


def bound_complex(params: ClassParams, mu: complex) -> float:
    """Triangle-inequality bound on |a_3 - mu a_2**2|, valid for any mu.

    Each of the three terms bounds its own piece of the functional, so this
    route holds unconditionally; it is the one to trust where bound_real's
    piecewise value is exceeded. For real mu it dominates bound_real, with
    equality at mu = 0. Sharpness for non-real mu is not claimed. A term
    that overflows makes the value inf, as in bound_real, never NaN.
    """
    mu = complex(_scalar_mu(mu))
    try:
        scaled = _triangle(params, mu, abs, max)
    except OverflowError:  # abs() of a finite complex past the float range
        return math.inf
    # every input is finite, so a NaN comes from an overflowed term (inf * 0)
    return math.inf if math.isnan(scaled) else scaled / (3.0 * params.sigma)


def _grid_bounds(params: ClassParams, mu: np.ndarray):
    """bound_real's case, value and scaled value, and bound_complex, as
    arrays over a grid of real mu, in one pass.

    Every entry is bitwise what the scalar routes return at that mu: the
    same expressions in the same order, each branch on its own slice of the
    grid. mu must be finite: the one caller, the CLI's sweep, builds its
    grid finite from finite ends. Overflow gives inf without a warning, as
    float arithmetic does.
    """
    three_sigma = 3.0 * params.sigma
    with np.errstate(over="ignore"):
        rho = _rho(params, mu)
        case_id = _case_id(mu, breakpoints(params))
        scaled = np.empty_like(rho)
        for k in (1, 2, 3, 4):
            on = case_id == k
            scaled[on] = _branch(params, rho[on], k)
        complex_bound = _triangle(params, mu, np.abs, np.maximum) / three_sigma
    return case_id, scaled / three_sigma, scaled, complex_bound


def coeff_bounds(params: ClassParams) -> tuple[float, float]:
    """Sharp moduli bounds (max |a_2|, max |a_3|) over the class."""
    a, b = params.alpha, params.beta
    a2max = (2.0 - a - b) / params.tau
    a3max = (3.0 - 2.0 * a - b) * (3.0 - 2.0 * b) / (3.0 * params.sigma)
    return (a2max, a3max)


def caratheodory_bound(nu: complex) -> float:
    """Bound on |c_2 - nu c_1**2| over functions of positive real part.

    Equals 2 max(1, |2 nu - 1|); attained by (1+z^2)/(1-z^2) when
    |2 nu - 1| <= 1 and by (1+z)/(1-z) otherwise.
    """
    try:
        nu = complex(_scalar_mu(nu))
    except DomainError:  # its message names mu
        raise DomainError(f"nu must be a finite real or complex number, got {nu!r}") from None
    try:
        return 2.0 * max(1.0, abs(2.0 * nu - 1.0))
    except OverflowError:  # abs() of a finite complex past the float range
        return math.inf


def starlike_fs_bound(beta: float, mu: float) -> float:
    """Bound on |b_3 - mu b_2**2| over functions starlike of order beta."""
    b = _starlike_beta(beta)
    mu = _scalar_mu(mu)
    if isinstance(mu, complex):
        raise DomainError(f"starlike_fs_bound takes real mu, got {mu!r}")
    return (1.0 - b) * max(1.0, abs(3.0 - 2.0 * b - 4.0 * mu * (1.0 - b)))
