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
of [0, 2] and no probability measure realizes it, hence CaseRangeError.

bound_sharp is attained by sharp_witness: the case witness above wherever the
paper's value wins, and otherwise the two-atom member q = atom at 0,
p = {(1/2, -acos x*), (1/2, acos x*)} with x* from bounds.two_atom_extreme.

The transform F = (1-lam+delta) f + (lam-delta) z f' + lam delta z^2 f''
rescales coefficients to A_k = (D_k / k) a_k, in particular A_2 = tau a_2 and
A_3 = sigma a_3; it carries every member to the lam = delta = 0 class, which
is what makes the rho = mu sigma / tau**2 substitution in the bounds work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import bound_real, bound_sharp, breakpoints, two_atom_extreme
from .errors import CaseRangeError, DomainError
from .members import (
    ClassMember,
    ClassParams,
    HerglotzMeasure,
    _grid_spotcheck,
    fs_functional,
    member_from_pq,
)
from .series import DEFAULT_ORDER

# Absolute slack when accepting mu at the ends of the case-2 window and when
# clamping the induced c_1 back into [0, 2]; covers breakpoint roundoff only.
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class ExtremalConfig:
    """Measure pair realizing one branch's extremal member."""

    case_id: int
    p_measure: HerglotzMeasure
    q_measure: HerglotzMeasure


def libera_transform(member: ClassMember) -> tuple[complex, ...]:
    """Coefficients A_k = (D_k / k) a_k of the transformed function
    (A[0] = 0, A[1] = 1)."""
    a, d = member.a, member.d
    out = [0.0 + 0.0j]
    for k in range(1, len(a)):
        out.append((d[k] / k) * a[k])
    return tuple(out)


def transform_spotcheck(
    member: ClassMember, radius: float = 0.3, grid: int = 64
) -> bool:
    """Check Re(z F'/g) > alpha - tol on a grid: F lands in the lam=delta=0 class.

    z F' has coefficient k A_k = D_k a_k, which is exactly the numerator of
    the defining inequality, so this doubles as an independent route to it.
    """
    big_a = libera_transform(member)
    num = tuple(k * big_a[k] for k in range(len(big_a)))
    return _grid_spotcheck(member, num, radius, grid)


def _case2_p_measure(params: ClassParams, mu: float) -> HerglotzMeasure:
    mu1, mu2, _ = breakpoints(params)
    if isinstance(mu, complex) or not math.isfinite(mu):
        raise CaseRangeError(f"case 2 needs finite real mu, got {mu!r}")
    if not (mu1 - _EDGE_TOL <= mu <= mu2 + _EDGE_TOL) or mu <= 0.0:
        raise CaseRangeError(
            f"case 2 admits mu in [{mu1}, {mu2}] only, got {mu} "
            "(the induced c_1 escapes [0, 2])"
        )
    t2, s3 = params.tau**2, 3.0 * params.sigma
    c1 = (
        2.0
        * (1.0 - params.beta)
        * (2.0 * t2 - s3 * mu)
        / (s3 * (1.0 - params.alpha) * mu)
    )
    if not -_EDGE_TOL <= c1 <= 2.0 + _EDGE_TOL:
        raise CaseRangeError(f"induced c_1 = {c1} escapes [0, 2] at mu = {mu}")
    c1 = min(max(c1, 0.0), 2.0)
    w = (2.0 + c1) / 4.0
    if w >= 1.0 - 1e-12:
        return HerglotzMeasure(((1.0, 0.0),))
    return HerglotzMeasure(((w, 0.0), (1.0 - w, math.pi)))


def extremal_config(
    params: ClassParams, case_id: int, mu: float | None = None
) -> ExtremalConfig:
    """Measure pair for one case; mu is consulted only by case 2."""
    if case_id == 1:
        atom0 = HerglotzMeasure(((1.0, 0.0),))
        return ExtremalConfig(1, atom0, atom0)
    if case_id == 2:
        if mu is None:
            raise CaseRangeError("case 2 needs mu to place its measure")
        return ExtremalConfig(2, _case2_p_measure(params, mu), HerglotzMeasure(((1.0, 0.0),)))
    if case_id == 3:
        half = HerglotzMeasure(((0.5, 0.0), (0.5, math.pi)))
        return ExtremalConfig(3, half, half)
    if case_id == 4:
        side = HerglotzMeasure(((1.0, math.pi / 2.0),))
        return ExtremalConfig(4, side, side)
    raise DomainError(f"case_id must be 1..4, got {case_id}")


def extremal_member(
    params: ClassParams, mu: float | None, case_id: int, order: int = DEFAULT_ORDER
) -> ClassMember:
    """Build the witness member for one case via member_from_pq."""
    cfg = extremal_config(params, case_id, mu)
    return member_from_pq(params, cfg.p_measure, cfg.q_measure, order)


def sharpness_residual(params: ClassParams, mu: float, order: int = DEFAULT_ORDER) -> float:
    """bound - |functional| at the witness for mu's own case; ~0 when sharp.

    Selects the case exactly as bound_real does (ties to the lower id), builds
    that case's witness, and returns bound_real(...).value minus the witness's
    |a_3 - mu a_2**2|. Up to roundoff this is zero for every real mu.
    """
    report = bound_real(params, mu)
    member = extremal_member(params, mu, report.case_id, order)
    return report.value - abs(fs_functional(member, mu))


def sharp_witness(params: ClassParams, mu: float, order: int = DEFAULT_ORDER) -> ClassMember:
    """A member whose |a_3 - mu a_2**2| equals bound_sharp(params, mu).

    Returns the witness of bound_real's own case where bound_sharp keeps the
    paper's value, and the two-atom member at x* where the two-atom term wins.
    """
    report = bound_real(params, mu)
    if bound_sharp(params, mu) == report.value:
        return extremal_member(params, mu, report.case_id, order)
    phi = math.acos(two_atom_extreme(params, report.mu)[0])
    p = HerglotzMeasure(((0.5, -phi), (0.5, phi)))
    return member_from_pq(params, p, HerglotzMeasure(((1.0, 0.0),)), order)
