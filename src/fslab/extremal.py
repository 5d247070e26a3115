"""Extremal members attaining the real-mu bounds, and the transform.

Each branch of the piecewise formula is attained by an explicit member built
from one- or two-atom measures (angles in radians):

    case 1:  p = q = atom at 0                       c_1 = c_2 = q_1 = q_2 = 2
    case 2:  q = atom at 0;  p = {(w, 0), (1-w, pi)} with w = (2 + c_1)/4 and
             c_1 = 2 (1-beta) (2 tau**2 - 3 sigma mu) / (3 (1-alpha) sigma mu),
             which runs from 2 at mu = mu1 down to 0 at mu = mu2
    case 3:  p = q = {(1/2, 0), (1/2, pi)}           c_1 = q_1 = 0, c_2 = q_2 = 2
    case 4:  p = q = atom at pi/2                    c_1 = 2i, c_2 = -2

At mu = mu1 the case-2 witness degenerates to the case-1 one (the second atom
loses all weight and is dropped), so the two branches share their boundary
witness. Outside [mu1, mu2] case 2 has no witness: the formula pushes c_1 out
of [0, 2] and no probability measure realizes it, hence CaseRangeError. Inside
it c_1 is clamped into [0, 2], as 1/(1-alpha) amplifies its roundoff (to 1e-8
at 1-alpha = 3e-8, mu = mu2). Cases 1, 3 and 4 share frozen module constants.

_boundary_measure(x, zeta) has c_1 = 2x, c_2 = 2x**2 + 2(1 - x**2) zeta:
zeta = +1 is case 2's p at x = c_1/2, zeta = -1 the pair at -+acos x.
sharp_witness and the search read _sharp_pair: _sharp's bound_real report and
the case witness where bound_sharp keeps the paper's value, else q = atom at 0
and the zeta = -1 p at the x* of bounds._sharp.

The transform F = (1-lam+delta) f + (lam-delta) z f' + lam delta z^2 f''
rescales coefficients to A_k = (D_k / k) a_k, in particular A_2 = tau a_2 and
A_3 = sigma a_3; it carries every member to the lam = delta = 0 class, which
is what makes the rho = mu sigma / tau**2 substitution in the bounds work.
"""

from __future__ import annotations

import math

from .bounds import BoundReport, _sharp, bound_real, breakpoints
from .errors import CaseRangeError, DomainError
from .members import (
    ClassMember,
    ClassParams,
    DEFAULT_ORDER,
    HerglotzMeasure,
    _grid_spotcheck,
    _scalar_mu,
    _whole,
    fs_functional,
    member_from_pq,
)

# Absolute slack when accepting mu at the ends of the case-2 window, for breakpoint
# roundoff only; the clamp of c_1 absorbs its roundoff, which 1/(1-alpha) amplifies.
_EDGE_TOL = 1e-9

_ATOM0 = HerglotzMeasure(((1.0, 0.0),))
_HALF = HerglotzMeasure(((0.5, 0.0), (0.5, math.pi)))
_SIDE = HerglotzMeasure(((1.0, math.pi / 2.0),))


def libera_transform(member: ClassMember) -> tuple[complex, ...]:
    """Coefficients A_k = (D_k / k) a_k of the transformed function
    (A[0] = 0, A[1] = 1)."""
    a, d = member.a, member.d
    return (0.0 + 0.0j, *((d[k] / k) * a[k] for k in range(1, len(a))))


def transform_spotcheck(member: ClassMember) -> bool:
    """Check Re(z F'/g) > alpha - tol at membership_spotcheck's 64 points on
    |z| = 0.3: F lands in the lam=delta=0 class.

    z F' has coefficient k A_k = D_k a_k, which is exactly the numerator of
    the defining inequality, so this doubles as an independent route to it.
    """
    big_a = libera_transform(member)
    num = tuple(k * big_a[k] for k in range(len(big_a)))
    return _grid_spotcheck(member, num)


def _boundary_measure(x: float, zeta: float) -> HerglotzMeasure:
    """The measure with c_1 = 2x and c_2 = 2x**2 + 2(1 - x**2) zeta, zeta = +-1.

    zeta = +1 gives {((1+x)/2, 0), ((1-x)/2, pi)} for x in (-1, 1], collapsed
    to _ATOM0 within 1e-12 of x = 1; zeta = -1 gives {(1/2, -acos x),
    (1/2, acos x)} for x in (-1, 1), two distinct angles.
    """
    if zeta > 0.0:
        w = (1.0 + x) / 2.0
        if w >= 1.0 - 1e-12:
            return _ATOM0
        return HerglotzMeasure(((w, 0.0), (1.0 - w, math.pi)))
    phi = math.acos(x)
    return HerglotzMeasure(((0.5, -phi), (0.5, phi)))


def _case2_p_measure(params: ClassParams, mu: float) -> HerglotzMeasure:
    mu1, mu2, _ = breakpoints(params)
    mu = _scalar_mu(mu)
    if isinstance(mu, complex):
        raise CaseRangeError(f"case 2 needs real mu, got {mu!r}")
    if not (mu1 - _EDGE_TOL <= mu <= mu2 + _EDGE_TOL) or mu <= 0.0:
        raise CaseRangeError(
            f"case 2 admits mu in [{mu1}, {mu2}] only, got {mu} (c_1 would leave [0, 2])"
        )
    t2, s3 = params.tau**2, 3.0 * params.sigma
    c1 = 2.0 * (1.0 - params.beta) * (2.0 * t2 - s3 * mu) / (s3 * (1.0 - params.alpha) * mu)
    return _boundary_measure(min(max(c1, 0.0), 2.0) / 2.0, 1.0)


def extremal_config(
    params: ClassParams, case_id: int, mu: float | None = None
) -> tuple[HerglotzMeasure, HerglotzMeasure]:
    """(p, q) measure pair for one case; mu is consulted only by case 2."""
    case = _whole(case_id)
    if case == 1:
        return _ATOM0, _ATOM0
    if case == 2:
        if mu is None:
            raise CaseRangeError("case 2 needs mu to place its measure")
        return _case2_p_measure(params, mu), HerglotzMeasure(((1.0, 0.0),))
    if case == 3:
        return _HALF, _HALF
    if case == 4:
        return _SIDE, _SIDE
    raise DomainError(f"case_id must be 1..4, got {case_id}")


def extremal_member(
    params: ClassParams, mu: float | None, case_id: int, order: int = DEFAULT_ORDER
) -> ClassMember:
    """Build the witness member for one case via member_from_pq."""
    return member_from_pq(params, *extremal_config(params, case_id, mu), order)


def _witness_check(params: ClassParams, mu: float) -> tuple[BoundReport, float]:
    """bound_real's report at mu and |a_3 - mu a_2**2| at its case's order-3
    witness (a_2, a_3 as at any order); an overflowing bound is a DomainError."""
    report = bound_real(params, mu)
    if not math.isfinite(report.value):
        raise DomainError(f"the bound overflows at mu = {mu}")
    member = extremal_member(params, report.mu, report.case_id, 3)
    return report, abs(fs_functional(member, report.mu))


def sharpness_residual(params: ClassParams, mu: float, order: int = DEFAULT_ORDER) -> float:
    """bound - |functional| at the witness for mu's own case; ~0 when sharp.

    The case is bound_real's (ties to the lower id). `fslab sharp` reports the
    same numbers; _witness_check holds the witness and the overflow rule.
    order is only validated (bench/workloads.py passes it): a_2, a_3 ignore it.
    """
    order = _whole(order)
    if order is None or order < 3:
        raise ValueError("order must be at least 3")
    report, attained = _witness_check(params, mu)
    return report.value - attained


def _sharp_pair(params: ClassParams, mu: float) -> tuple[BoundReport, HerglotzMeasure, HerglotzMeasure]:
    """bound_real's report at mu and the (p, q) attaining bound_sharp: the
    report's case witness, or q = atom at 0 and the zeta = -1 boundary
    measure at _sharp's x*."""
    _, report, x_star = _sharp(params, mu)
    if x_star is None:
        return report, *extremal_config(params, report.case_id, mu)
    return report, _boundary_measure(x_star, -1.0), _ATOM0


def sharp_witness(params: ClassParams, mu: float) -> ClassMember:
    """A member, at DEFAULT_ORDER, whose |a_3 - mu a_2**2| equals
    bound_sharp(params, mu)."""
    return member_from_pq(params, *_sharp_pair(params, mu)[1:])
