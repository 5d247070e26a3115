"""Randomized search for the largest |a_3 - mu a_2**2| over class members.

This is the independent check on the closed-form bounds: sample measure pairs,
evaluate the functional of the members they induce, and keep the largest
modulus. Sharpness never depends on luck because the four extremal
configurations (when admissible) are always part of the evaluated set, each
once: rotating a member, f -> e^{-i theta} f(e^{i theta} z), leaves
|a_3 - mu a_2**2| unchanged (acceptance criterion 8 checks this), so rotated
copies of a configuration would add nothing. Random samples and a coordinatewise
golden-section polish then try to beat them. On cases 1-2 nothing ever has; on
the case-3/4 window with alpha > 0 described in :mod:`fslab.bounds` the random
phase DOES beat the piecewise value, and verify_inequality reports that
honestly as a ViolationError. Whether max_atoms = 3 limits anything is unknown
and irrelevant to the seeded floor.

The functional depends on a member only through c_1, c_2 (of p) and q_1, q_2.
With u = 1 - alpha and v = 1 - beta,

    a_2 = (v q_1 + u c_1) / (2 tau)
    a_3 = (v (q_2 + v q_1**2) / 2 + u v c_1 q_1 + u c_2) / (3 sigma),

so the search evaluates this closed form, written once in complex arithmetic
from c_k = 2 sum_i w_i z_i**k with z_i = exp(1j t_i): over numpy arrays
(np.exp) for the random samples, one pair at a time (cmath.exp) for the
seeded floor and the polish. Only the returned member is built in full, by
member_from_pq, and best_value is that member's |a_3 - mu a_2**2|. The closed
form and the member can differ by a few ulps, so the polish is kept only if
its member's value is not below the unpolished incumbent's: best_value with
the polish is never below best_value without it.

Determinism contract: the random phase reads one counter-based stream,
np.random.Generator(np.random.Philox(key=seed)), with a fixed layout of
2 (1 + 2 max_atoms) doubles per sample: for p and then q, one uniform for the
atom count, max_atoms weights and max_atoms angles (slots past the atom count
are drawn and ignored). Sample i therefore reads the same doubles however the
samples are split into chunks, the kernel's arithmetic is elementwise, and
every chunk is reduced by the key (value, member fingerprint) that also ranks
the seeded floor. The same inputs and budget always give a bitwise identical
result, independent of the chunk size, and exact ties between seeded
configurations (cases 1 and 2 share their witness at mu1) are broken the same
way every time. This stream replaced one generator per (seed, sample index),
so a given seed draws different samples than it did with those.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_complex, bound_real
from .errors import CaseRangeError, DomainError, ViolationError
from .extremal import extremal_config
from .members import (
    ClassMember,
    ClassParams,
    DEFAULT_ORDER,
    HerglotzMeasure,
    MAX_ATOMS,
    TWO_PI,
    fs_functional,
    member_from_pq,
)

# Relative slack separating "roundoff" from "the bound is wrong".
VIOLATION_RTOL = 1e-9

# A search result within this relative margin of the bound counts as attained.
ATTAINED_RTOL = 1e-6

# Golden-section interval contraction threshold.
REFINE_TOL = 1e-10

# Random samples per kernel call. It bounds the kernel's working memory and
# nothing else: the stream layout fixes every sample's draws.
_CHUNK = 2048

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
    best_value: float  # exactly abs(fs_functional(best_member, mu))
    best_member: ClassMember
    bound: float
    margin: float  # bound - best_value; >= -VIOLATION_RTOL * max(1, bound)
    evaluations: int

    @property
    def attained(self) -> bool:
        """best_value is within ATTAINED_RTOL of the bound (or above it)."""
        return self.margin <= ATTAINED_RTOL * self.bound


def _fingerprint(p: HerglotzMeasure, q: HerglotzMeasure) -> Fingerprint:
    return (p.atoms, q.atoms)


def _c12(atoms, exp):
    """(c_1, c_2), c_k = 2 sum_i w_i z_i**k with z_i = exp(1j t_i).

    atoms yields (w_i, t_i) one atom at a time, as floats with cmath.exp or
    as arrays (one entry per sample) with np.exp; atoms of zero weight add
    nothing. Atoms are summed in order, so a sample's value does not depend
    on the other entries of its arrays.
    """
    c1 = c2 = 0.0
    for w, t in atoms:
        z = exp(1j * t)
        c1 = c1 + w * z
        c2 = c2 + w * (z * z)
    return 2.0 * c1, 2.0 * c2


def _a2_a3(params: ClassParams, c, q):
    """(a_2, a_3) from the _c12 pairs of p and q."""
    u, v = 1.0 - params.alpha, 1.0 - params.beta
    (c1, c2), (q1, q2) = c, q
    b2 = v * q1  # g = z + b_2 z**2 + b_3 z**3 + ...
    b3 = v * (q2 + b2 * q1) / 2.0
    uc1 = u * c1
    return (b2 + uc1) / (2.0 * params.tau), (b3 + b2 * uc1 + u * c2) / (3.0 * params.sigma)


def _fs_value(params: ClassParams, mu: complex, c, q):
    """|a_3 - mu a_2**2| from the _c12 pairs of p and q."""
    a2, a3 = _a2_a3(params, c, q)
    return abs(a3 - mu * (a2 * a2))


def _pair_value(params: ClassParams, mu: complex, p: HerglotzMeasure, q: HerglotzMeasure) -> float:
    """|a_3 - mu a_2**2| of member_from_pq(params, p, q), in closed form."""
    return _fs_value(params, mu, _c12(p.atoms, cmath.exp), _c12(q.atoms, cmath.exp))


def _sample_columns(u: np.ndarray, max_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and angles, each (rows, max_atoms), from one side's uniforms.

    u holds per row [count, max_atoms weight draws, max_atoms angle draws].
    The atom count is uniform in 1..max_atoms; weights past it are 0, the
    others normalized positive draws; angles are uniform on [0, 2 pi).
    """
    count = np.minimum(1.0 + np.floor(u[:, 0] * max_atoms), max_atoms)
    used = np.arange(max_atoms) < count[:, None]
    w = np.where(used, 1.0 - u[:, 1 : 1 + max_atoms], 0.0)  # in (0, 1] where used
    total = w[:, 0]
    for j in range(1, max_atoms):
        total = total + w[:, j]
    return w / total[:, None], TWO_PI * u[:, 1 + max_atoms :]


def _batch_values(params: ClassParams, mu: complex, pw, pt, qw, qt) -> np.ndarray:
    """|a_3 - mu a_2**2| per row of (rows, atoms) weight and angle arrays."""
    return _fs_value(params, mu, _c12(zip(pw.T, pt.T), np.exp), _c12(zip(qw.T, qt.T), np.exp))


def _measure(w: np.ndarray, t: np.ndarray) -> HerglotzMeasure:
    return HerglotzMeasure(tuple((float(a), float(b)) for a, b in zip(w, t) if a > 0.0))


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


def _normalized(atoms) -> list[tuple[float, float]]:
    total = sum(w for w, _ in atoms)
    return [(w / total, t) for w, t in atoms]


def _polish(params: ClassParams, mu: complex, sides, best_v: float, rounds: int) -> int:
    """Coordinatewise golden-section ascent in place; returns the evaluations.

    sides holds p's atoms and then q's, each atom a [w, t] list. Each round
    moves, side by side, every angle on [0, 2 pi) and then every weight (a
    lone weight is fixed) while the other side's (c_1, c_2) stays put, and
    keeps a move only if it beats best_v.
    """
    evals = 0

    def objective(x: float) -> float:  # moves atom[k] on side s, set below
        nonlocal evals
        evals += 1
        atom[k] = x
        cq[s] = _c12(_normalized(sides[s]), cmath.exp)
        return _fs_value(params, mu, *cq)

    for _ in range(rounds):
        for s, side in enumerate(sides):
            cq = [_c12(_normalized(atoms), cmath.exp) for atoms in sides]
            coords = [(atom, 1, 0.0, TWO_PI) for atom in side]
            if len(side) > 1:
                coords += [(atom, 0, 1e-9, 1.0) for atom in side]
            for atom, k, lo, hi in coords:
                saved = atom[k]
                x, v = _golden_max(objective, lo, hi)
                if v > best_v:
                    atom[k], best_v = x, v
                else:
                    atom[k] = saved
    return evals


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

    # Seeded floor: the admissible extremal configurations, once each.
    candidates: list[tuple[float, Fingerprint, HerglotzMeasure, HerglotzMeasure]] = []
    for case_id in (1, 2, 3, 4):
        if case_id == 2 and not real_mu:
            continue
        try:
            p, q = extremal_config(params, case_id, float(mu) if real_mu else None)
        except CaseRangeError:
            continue
        candidates.append((_pair_value(params, mu, p, q), _fingerprint(p, q), p, q))
        evals += 1

    # Random phase: chunks of the one Philox stream through the batched
    # kernel. Only a chunk's best rows become measures, so the incumbent is
    # still reduced by the (value, fingerprint) key.
    best = max(candidates, key=lambda t: t[:2])
    rng = np.random.Generator(np.random.Philox(key=budget.seed))
    k = budget.max_atoms
    left = budget.n_samples
    while left:
        rows = min(_CHUNK, left)
        draws = rng.random((rows, 2, 1 + 2 * k))
        pw, pt = _sample_columns(draws[:, 0], k)
        qw, qt = _sample_columns(draws[:, 1], k)
        values = _batch_values(params, mu, pw, pt, qw, qt)
        for i in np.flatnonzero(values == np.fmax.reduce(values)):  # NaN never wins
            p, q = _measure(pw[i], pt[i]), _measure(qw[i], qt[i])
            key = (float(values[i]), _fingerprint(p, q))
            if key > best[:2]:
                best = (*key, p, q)
        evals += rows
        left -= rows
    best_v, _, p, q = best

    if budget.n_refine:
        sides = [[[w, t] for w, t in m.atoms] for m in (p, q)]
        evals += _polish(params, mu, sides, best_v, budget.n_refine)
        polished = [HerglotzMeasure(_normalized(side)) for side in sides]

        # The polish ranks moves by the closed form, which can differ from
        # the member's value by a few ulps, so it is kept only if its member
        # is not below the incumbent's. Order 3 suffices: a_2 and a_3 are
        # bitwise the same at any order.
        def value(p: HerglotzMeasure, q: HerglotzMeasure) -> float:
            return abs(fs_functional(member_from_pq(params, p, q, 3), mu))

        if value(*polished) >= value(p, q):
            p, q = polished
    best_member = member_from_pq(params, p, q, DEFAULT_ORDER)
    best_value = abs(fs_functional(best_member, mu))
    return SearchResult(
        best_value=best_value,
        best_member=best_member,
        bound=bound,
        margin=bound - best_value,
        evaluations=evals,
    )


def verify_inequality(
    params: ClassParams,
    mu: complex,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Run the search and return its result if it stays within the bound.

    Raises ViolationError when the search exceeds the bound beyond
    VIOLATION_RTOL * max(1, bound). For complex mu (triangle route) that
    would mean an implementation bug. For real mu it is the expected outcome
    on the known case-3/4 window with alpha > 0, where the piecewise value
    is not an upper bound (see :mod:`fslab.bounds`); the exception is the
    detection, not a search failure. It carries the offending member's
    params, measures and mu.
    """
    result = maximize_fs(params, mu, budget)
    tol = VIOLATION_RTOL * max(1.0, result.bound)
    if result.margin < -tol:
        member = result.best_member
        raise ViolationError(
            f"bound {result.bound} exceeded by member value {result.best_value} "
            f"(margin {result.margin}, tolerance {tol}) at mu = {mu}",
            params=member.params,
            p_measure=member.p_measure,
            q_measure=member.q_measure,
            mu=mu,
        )
    return result
