"""Randomized search for the largest |a_3 - mu a_2**2| over class members.

This is the independent check on the closed-form bounds: sample measure pairs,
build the members they induce, evaluate the functional, and keep the largest
modulus. Sharpness never depends on luck because the four extremal
configurations (when admissible) and their quarter-turn rotations are always
part of the evaluated set; random samples and a coordinatewise golden-section
polish then try to beat them. On cases 1-2 nothing ever has; on the case-3/4
window with alpha > 0 described in :mod:`fslab.bounds` the random phase DOES
beat the piecewise value, and verify_inequality reports that honestly as a
ViolationError. Whether max_atoms = 3 limits anything is unknown and
irrelevant to the seeded floor.

Determinism contract: every random sample i draws from its own generator
seeded by (master seed, i), and the running argmax is reduced by the key
(value, member fingerprint), so the same inputs and budget always give a
bitwise identical result, and exact ties between rotated seeded
configurations are broken the same way every time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_complex, bound_real
from .errors import CaseRangeError, DomainError, ViolationError
from .extremal import extremal_config
from .members import (
    ClassMember,
    ClassParams,
    HerglotzMeasure,
    MAX_ATOMS,
    TWO_PI,
    fs_functional,
    member_from_pq,
    shift_measure,
)
from .series import DEFAULT_ORDER

# Relative slack separating "roundoff" from "the bound is wrong".
VIOLATION_RTOL = 1e-9

# A search result within this relative margin of the bound counts as attained.
ATTAINED_RTOL = 1e-6

# Golden-section interval contraction threshold.
REFINE_TOL = 1e-10

_SEED_ROTATIONS = (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)

# members are evaluated at the smallest legal order during search; the
# functional only reads a_2 and a_3, which do not depend on higher terms
_EVAL_ORDER = 3

Fingerprint = tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]


@dataclass(frozen=True)
class SearchBudget:
    """How much work maximize_fs may spend.

    n_samples random measure pairs, n_refine polish passes over the incumbent,
    at most max_atoms atoms per sampled measure, all derived from seed.
    """

    n_samples: int = 10_000
    n_refine: int = 3
    max_atoms: int = 3
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError("n_samples must be positive")
        if self.n_refine < 0:
            raise DomainError("n_refine must be non-negative")
        if not 1 <= self.max_atoms <= MAX_ATOMS:
            raise DomainError(f"max_atoms must be 1..{MAX_ATOMS}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_member: ClassMember
    bound: float
    margin: float  # bound - best_value; >= -VIOLATION_RTOL * max(1, bound)
    evaluations: int


@dataclass(frozen=True)
class VerificationReport:
    bound: float
    best_value: float
    margin: float
    attained: bool


def sample_measure(rng: np.random.Generator, max_atoms: int) -> HerglotzMeasure:
    """Draw one measure: atom count uniform in 1..max_atoms, weights from a
    normalized positive draw, angles uniform on [0, 2 pi). Same generator
    state, same measure."""
    n = int(rng.integers(1, max_atoms + 1))
    weights = 1.0 - rng.random(n)  # in (0, 1], never exactly zero
    weights = weights / weights.sum()
    angles = rng.uniform(0.0, TWO_PI, n)
    return HerglotzMeasure(tuple(zip(map(float, weights), map(float, angles))))


def _fingerprint(p: HerglotzMeasure, q: HerglotzMeasure) -> Fingerprint:
    return (p.atoms, q.atoms)


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] down to REFINE_TOL width."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > REFINE_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def maximize_fs(
    params: ClassParams,
    mu: complex,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Best |a_3 - mu a_2**2| found over seeded, sampled, and polished members.

    mu is treated as real (piecewise four-branch value) unless it is a
    complex instance, in which case the triangle-inequality bound applies.
    """
    budget = budget or SearchBudget()
    real_mu = not isinstance(mu, complex)
    if real_mu:
        bound = bound_real(params, float(mu)).value
    else:
        bound = bound_complex(params, mu)

    evals = 0

    def value_of(p: HerglotzMeasure, q: HerglotzMeasure) -> float:
        nonlocal evals
        evals += 1
        return abs(fs_functional(member_from_pq(params, p, q, _EVAL_ORDER), mu))

    # Seeded floor: the four extremal configurations and their rotations.
    candidates: list[tuple[float, Fingerprint, HerglotzMeasure, HerglotzMeasure]] = []
    for case_id in (1, 2, 3, 4):
        if case_id == 2 and not real_mu:
            continue
        try:
            cfg = extremal_config(params, case_id, float(mu) if real_mu else None)
        except CaseRangeError:
            continue
        for rot in _SEED_ROTATIONS:
            p = shift_measure(cfg.p_measure, rot)
            q = shift_measure(cfg.q_measure, rot)
            candidates.append((value_of(p, q), _fingerprint(p, q), p, q))

    # Random phase: sample i draws from its own (seed, i) generator, and the
    # incumbent is reduced by the (value, fingerprint) key.
    best = max(candidates, key=lambda t: t[:2])
    for i in range(budget.n_samples):
        rng = np.random.default_rng((budget.seed, i))
        p = sample_measure(rng, budget.max_atoms)
        q = sample_measure(rng, budget.max_atoms)
        key = (value_of(p, q), _fingerprint(p, q))
        if key > best[:2]:
            best = (*key, p, q)
    best_v, _, best_p, best_q = best

    # Polish: coordinatewise golden-section moves, keeping improvements only.
    state = {
        "pw": [w for w, _ in best_p.atoms],
        "pt": [t for _, t in best_p.atoms],
        "qw": [w for w, _ in best_q.atoms],
        "qt": [t for _, t in best_q.atoms],
    }

    def build(side: str) -> HerglotzMeasure:
        ws = np.asarray(state[side + "w"], dtype=float)
        ws = ws / ws.sum()
        return HerglotzMeasure(tuple(zip(map(float, ws), state[side + "t"])))

    def objective() -> float:
        return value_of(build("p"), build("q"))

    for _ in range(budget.n_refine):
        for side in ("p", "q"):
            angles, weights = state[side + "t"], state[side + "w"]
            for j in range(len(angles)):
                saved = angles[j]

                def slice_fn(t: float, j=j, angles=angles) -> float:
                    angles[j] = t
                    return objective()

                x, v = _golden_max(slice_fn, 0.0, TWO_PI)
                if v > best_v:
                    angles[j] = x
                    best_v = v
                else:
                    angles[j] = saved
            if len(weights) > 1:
                for j in range(len(weights)):
                    saved = weights[j]

                    def slice_fn(t: float, j=j, weights=weights) -> float:
                        weights[j] = t
                        return objective()

                    x, v = _golden_max(slice_fn, 1e-9, 1.0)
                    if v > best_v:
                        weights[j] = x
                        best_v = v
                    else:
                        weights[j] = saved

    best_p, best_q = build("p"), build("q")
    best_member = member_from_pq(params, best_p, best_q, DEFAULT_ORDER)
    return SearchResult(
        best_value=best_v,
        best_member=best_member,
        bound=bound,
        margin=bound - best_v,
        evaluations=evals,
    )


def verify_inequality(
    params: ClassParams,
    mu: complex,
    budget: SearchBudget | None = None,
) -> VerificationReport:
    """Run the search and report how close it got to the bound.

    Raises ViolationError when the search exceeds the bound beyond
    VIOLATION_RTOL * max(1, bound). For complex mu (triangle route) that
    would mean an implementation bug. For real mu it is the expected outcome
    on the known case-3/4 window with alpha > 0, where the piecewise value
    is not an upper bound (see :mod:`fslab.bounds`); the exception is the
    detection, not a search failure.
    """
    result = maximize_fs(params, mu, budget)
    tol = VIOLATION_RTOL * max(1.0, result.bound)
    if result.margin < -tol:
        raise ViolationError(
            f"bound {result.bound} exceeded by member value {result.best_value} "
            f"(margin {result.margin}, tolerance {tol}) at mu = {mu}"
        )
    return VerificationReport(
        bound=result.bound,
        best_value=result.best_value,
        margin=result.margin,
        attained=result.margin <= ATTAINED_RTOL * result.bound,
    )
