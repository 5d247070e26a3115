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
  alpha > 0. The two-atom family q = atom(t), p = equal atoms at t +- phi
  exceeds it on an open mu window starting just below mu3: with u = 1-alpha,
  v = 1-beta, x = cos phi, the scaled functional there is

      u (4 - 3 rho u) x**2 + 2 u v (2 - 3 rho) x + (v + 2 v**2 - 2u - 3 rho v**2)

  (times a rotation), whose interior vertex dips below minus the branch value.
  Smallest concrete instance kept under test: alpha=0.6, beta=0, mu=1.25 gives
  branch value 0.65 while the member with x = 0.7 reaches |a_3 - mu a_2**2|
  = 0.68. The excess stops once rho >= max((4-2 beta)/(3(1-beta)),
  4/(3(1-alpha))), where case 4 coincides with the complex-mu route below;
  it vanishes identically at alpha = 0. bound_real keeps the paper's value
  unchanged as the reproduction target; bound_sharp is the real-mu bound to
  sweep against.

* real mu, sharp: bound_sharp takes the larger of the paper's value and the
  best member of the two-atom family above,

      max(paper value, max |Q(x)| / (3 sigma)) over x in {-1, 1, clip(x_v)},
      Q(x) = u (4 - 3 rho u) x**2 + 2 u v (2 - 3 rho) x
             + (v + 2 v**2 - 2u - 3 rho v**2),
      x_v  = -v (2 - 3 rho) / (4 - 3 rho u).

  Both terms are attained by explicit members, so the value is sharp. That it
  is also an upper bound is established numerically, not proved here. The
  Libera-Zlotkiewicz description c_2 = c_1**2/2 + (2 - |c_1|**2/2) zeta,
  |zeta| <= 1 (Proc. AMS 1982), and its analogue for q_2 make the maximum
  over zeta and the q-side parameter explicit. A grid search with local
  polish over the remaining (|q_1|, |c_1|, arg c_1) matched bound_sharp to
  1e-15 relative on 300 random (params, mu) draws and never beat it beyond
  roundoff; random member search and the acceptance sweep never beat it
  either. On cases 1-2 and at alpha = 0 the two-atom term never exceeds the
  paper's value beyond roundoff, and there bound_sharp returns that value
  exactly; at alpha = 0 this is Koepf's result for close-to-convex functions
  (Proc. AMS 101, 1987).
  At the pinned instance above bound_sharp is 0.68, attained at x* = 0.7.

* complex mu: a triangle-inequality bound. With Psi(s) = 3 sigma (1-s)/tau**2,

      3 sigma |a_3 - mu a_2**2| <=
            (1-beta)   max(1, |3 - 2 beta - mu Psi(beta)|)
          + 2 (1-alpha) max(1, |1 - mu Psi(alpha)/2|)
          + 4 (1-alpha)(1-beta) |1 - mu Psi(0)/2|.

  At mu = 0 it agrees exactly with the real routes; whether it is sharp for
  non-real mu is unknown, so only validity is ever asserted for it.

Reduction presets recover published special cases of the same formula by
pinning parameters (see REDUCTION_PRESETS). The fully classical preset
(keogh-merkes) is implemented with the middle branch 1/3 + 4/(9 mu); a
minus-sign variant of that branch seen in print is discontinuous at both
interior breakpoints and is exceeded by explicit members (value 11/9 at
mu = 1/2), so the continuous form is the correct one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .members import ClassParams

# Documents the sign choice in the classical reduction's middle branch.
KM_SIGN_NOTE = (
    "middle branch evaluated as 1/3 + 4/(9 mu); the minus-sign variant seen "
    "in print is discontinuous at mu = 1/3 and mu = 2/3 and is exceeded by "
    "explicit members (witness value 11/9 at mu = 1/2)"
)

# preset name -> (fixed parameter dict, free parameter names)
REDUCTION_PRESETS: dict[str, tuple[dict[str, float], tuple[str, ...]]] = {
    "ad2": ({"delta": 0.0}, ("lam", "alpha", "beta")),
    "al-abbadi-darus": ({"delta": 0.0, "alpha": 0.0}, ("lam", "beta")),
    "darus-thomas": ({"lam": 0.0, "delta": 0.0}, ("alpha", "beta")),
    "keogh-merkes": (
        {"lam": 0.0, "delta": 0.0, "alpha": 0.0, "beta": 0.0},
        (),
    ),
}


def _check_finite(mu) -> None:
    """DomainError naming mu, or an array's first non-finite entry, if any."""
    if isinstance(mu, np.ndarray):
        bad = mu[~np.isfinite(mu)]
        mu = float(bad[0]) if bad.size else 0.0
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu!r}")


def _rho(params: ClassParams, mu):
    """rho = mu sigma / tau**2: real mu after passing to the second-order
    transform (defined for finite real mu only, a float or an array)."""
    if isinstance(mu, complex):
        raise DomainError("rho substitution is defined for real mu only")
    _check_finite(mu)
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


def branch_value(params: ClassParams, mu: float, case_id: int) -> float:
    """Evaluate one branch formula (scaled form) regardless of mu's range.

    Exposed so continuity at the breakpoints can be checked by evaluating
    both adjacent branches at the same point. case 2 requires mu != 0.
    """
    if case_id not in (1, 2, 3, 4):
        raise DomainError(f"case_id must be 1..4, got {case_id}")
    rho = _rho(params, mu)
    if case_id == 2 and rho == 0.0:
        raise DomainError("the middle branch is undefined at mu = 0")
    return _branch(params, rho, case_id)


def bound_real(params: ClassParams, mu: float) -> BoundReport:
    """Piecewise four-branch value for |a_3 - mu a_2**2|, with diagnostics.

    Attained by the witnesses in :mod:`fslab.extremal` for every case, and a
    genuine upper bound on cases 1-2, but exceeded by explicit members on a
    case-3/4 window whenever alpha > 0 (see the module docstring). Use
    bound_sharp for a sharp bound that holds there too, and bound_complex
    for non-real mu.

    Complex mu is rejected rather than projected; use bound_complex for it.
    """
    if isinstance(mu, complex):
        raise DomainError("bound_real takes real mu; use bound_complex")
    mu = float(mu)
    _check_finite(mu)
    bps = breakpoints(params)
    case_id = _case_id(mu, bps)
    scaled = branch_value(params, mu, case_id)
    return BoundReport(
        mu=mu,
        case_id=case_id,
        breakpoints=bps,
        scaled_value=scaled,
        value=scaled / (3.0 * params.sigma),
    )


def two_atom_extreme(params: ClassParams, mu: float) -> tuple[float, float]:
    """(x*, |a_3 - mu a_2**2|) for the best member of the two-atom family.

    The family is q = atom at 0, p = equal atoms at +-acos(x) for x in
    [-1, 1]; its scaled functional is the quadratic Q(x) of the module
    docstring, so |Q| peaks at x = -1, x = 1 or the clipped vertex, tried in
    that order (ties keep the earlier one). x_v is skipped when Q is linear.
    """
    u, v = 1.0 - params.alpha, 1.0 - params.beta
    rho = _rho(params, mu)
    qa = u * (4.0 - 3.0 * rho * u)
    qb = 2.0 * u * v * (2.0 - 3.0 * rho)
    qc = v + 2.0 * v * v - 2.0 * u - 3.0 * rho * v * v
    xs = [-1.0, 1.0]
    if qa != 0.0:
        xs.append(min(max(-qb / (2.0 * qa), -1.0), 1.0))
    x_star = max(xs, key=lambda x: abs((qa * x + qb) * x + qc))
    return x_star, abs((qa * x_star + qb) * x_star + qc) / (3.0 * params.sigma)


def bound_sharp(params: ClassParams, mu: float) -> float:
    """Sharp bound on |a_3 - mu a_2**2| for real mu, valid on all four cases.

    The larger of bound_real's value and the two-atom term (see the module
    docstring); :func:`fslab.extremal.sharp_witness` attains it. On cases 1-2
    and at alpha = 0, where the paper's value is already sharp, that value
    is returned bitwise unchanged instead of racing it against a two-atom
    term equal to it up to roundoff.
    """
    report = bound_real(params, mu)
    if report.case_id <= 2 or params.alpha == 0.0:
        return report.value
    return max(report.value, two_atom_extreme(params, report.mu)[1])


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
    equality at mu = 0. Sharpness for non-real mu is not claimed.
    """
    mu = complex(mu)
    if not (math.isfinite(mu.real) and math.isfinite(mu.imag)):
        raise DomainError(f"mu must be finite, got {mu!r}")
    return _triangle(params, mu, abs, max) / (3.0 * params.sigma)


def _grid_bounds(params: ClassParams, mu: np.ndarray):
    """bound_real's case, value and scaled value, and bound_complex, as
    arrays over a grid of real mu, in one pass.

    Every entry is bitwise what the scalar routes return at that mu: the
    same expressions in the same order, each branch on its own slice of the
    grid. A non-finite mu raises bound_real's DomainError for the first one.
    Overflow gives inf without a warning, as float arithmetic does.
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
    nu = complex(nu)
    if not (math.isfinite(nu.real) and math.isfinite(nu.imag)):
        raise DomainError(f"nu must be finite, got {nu!r}")
    return 2.0 * max(1.0, abs(2.0 * nu - 1.0))


def starlike_fs_bound(beta: float, mu: float) -> float:
    """Bound on |b_3 - mu b_2**2| over functions starlike of order beta."""
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"need 0 <= beta < 1, got {beta}")
    if isinstance(mu, complex) or not math.isfinite(mu):
        raise DomainError(f"mu must be finite real, got {mu!r}")
    return (1.0 - beta) * max(1.0, abs(3.0 - 2.0 * beta - 4.0 * mu * (1.0 - beta)))


def reduction_bound(preset: str, mu: float, **free: float) -> float:
    """Evaluate a named specialization of bound_real.

    preset fixes some of (lam, delta, alpha, beta); the rest are keyword
    arguments. Runs through exactly the same code path as bound_real, so the
    reduction is an identity, not a reimplementation. Returns the bound on
    |a_3 - mu a_2**2|.
    """
    if preset not in REDUCTION_PRESETS:
        raise DomainError(
            f"unknown preset {preset!r}; choose from {sorted(REDUCTION_PRESETS)}"
        )
    fixed, free_names = REDUCTION_PRESETS[preset]
    unknown = set(free) - set(free_names)
    if unknown:
        raise DomainError(
            f"preset {preset!r} does not accept {sorted(unknown)}; "
            f"free parameters are {list(free_names)}"
        )
    kwargs = {"lam": 0.0, "delta": 0.0, "alpha": 0.0, "beta": 0.0}
    kwargs.update(fixed)
    kwargs.update(free)
    return bound_real(ClassParams(**kwargs), mu).value
