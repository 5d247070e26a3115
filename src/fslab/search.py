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

so the search evaluates this closed form: over numpy arrays for the random
samples, one pair at a time for the seeded floor and the polish. Only the
returned member is built in full, by member_from_pq, and best_value is that
member's |a_3 - mu a_2**2|.

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
    denominators,
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


def _c12(columns, cos, sin):
    """(Re c_1, Im c_1, Re c_2, Im c_2), c_k = 2 sum_i w_i e^{i k t_i}.

    columns yields (w_i, t_i) one atom at a time, as floats with math's cos
    and sin or as arrays (one entry per sample) with numpy's; atoms of zero
    weight add nothing. Atoms are summed in order, so a sample's value does
    not depend on the other entries of its arrays.
    """
    c1r = c1i = c2r = c2i = 0.0
    for w, t in columns:
        x, y = cos(t), sin(t)
        c1r = c1r + w * x
        c1i = c1i + w * y
        c2r = c2r + w * (x * x - y * y)
        c2i = c2i + w * (x * y + y * x)
    return 2.0 * c1r, 2.0 * c1i, 2.0 * c2r, 2.0 * c2i


def _a2_a3(params: ClassParams, c, q):
    """(Re a_2, Im a_2, Re a_3, Im a_3) from _c12 tuples of p and q."""
    u, v = 1.0 - params.alpha, 1.0 - params.beta
    _, _, d2, d3 = denominators(params, 3)
    c1r, c1i, c2r, c2i = c
    q1r, q1i, q2r, q2i = q
    b2r, b2i = v * q1r, v * q1i  # b_2 = v q_1, b_3 = v (q_2 + b_2 q_1) / 2
    b3r = v * (q2r + (b2r * q1r - b2i * q1i)) / 2.0
    b3i = v * (q2i + (b2r * q1i + b2i * q1r)) / 2.0
    uc1r, uc1i = u * c1r, u * c1i
    return (
        (b2r + uc1r) / d2,
        (b2i + uc1i) / d2,
        (b3r + (b2r * uc1r - b2i * uc1i) + u * c2r) / d3,
        (b3i + (b2r * uc1i + b2i * uc1r) + u * c2i) / d3,
    )


def _fs_parts(params: ClassParams, mu: complex, c, q):
    """(Re, Im) of a_3 - mu a_2**2 from _c12 tuples of p and q."""
    a2r, a2i, a3r, a3i = _a2_a3(params, c, q)
    mr, mi = mu.real, mu.imag
    sr, si = a2r * a2r - a2i * a2i, a2r * a2i + a2i * a2r
    return a3r - (mr * sr - mi * si), a3i - (mr * si + mi * sr)


def _pair_value(params: ClassParams, mu: complex, p: HerglotzMeasure, q: HerglotzMeasure) -> float:
    """|a_3 - mu a_2**2| of member_from_pq(params, p, q), in closed form."""
    c = _c12(p.atoms, math.cos, math.sin)
    qc = _c12(q.atoms, math.cos, math.sin)
    return math.hypot(*_fs_parts(params, mu, c, qc))


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
    c = _c12(zip(pw.T, pt.T), np.cos, np.sin)
    qc = _c12(zip(qw.T, qt.T), np.cos, np.sin)
    return np.hypot(*_fs_parts(params, mu, c, qc))


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
    best_v, _, best_p, best_q = best

    # Polish: coordinatewise golden-section moves on one side at a time,
    # keeping improvements only; the other side's coefficients stay fixed.
    state = {
        side: ([w for w, _ in m.atoms], [t for _, t in m.atoms])
        for side, m in (("p", best_p), ("q", best_q))
    }

    def normalized(side: str) -> list[tuple[float, float]]:
        ws, ts = state[side]
        total = sum(ws)
        return [(w / total, t) for w, t in zip(ws, ts)]

    for _ in range(budget.n_refine):
        for side, other in (("p", "q"), ("q", "p")):
            fixed = _c12(normalized(other), math.cos, math.sin)

            def objective() -> float:
                nonlocal evals
                evals += 1
                moved = _c12(normalized(side), math.cos, math.sin)
                c, qc = (moved, fixed) if side == "p" else (fixed, moved)
                return math.hypot(*_fs_parts(params, mu, c, qc))

            # every angle on [0, 2 pi), then every weight (a lone weight is fixed)
            weights, angles = state[side]
            coords = [(angles, j, 0.0, TWO_PI) for j in range(len(angles))]
            if len(weights) > 1:
                coords += [(weights, j, 1e-9, 1.0) for j in range(len(weights))]
            for values, j, lo, hi in coords:
                saved = values[j]

                def slice_fn(t: float, j=j, values=values) -> float:
                    values[j] = t
                    return objective()

                x, v = _golden_max(slice_fn, lo, hi)
                if v > best_v:
                    values[j] = x
                    best_v = v
                else:
                    values[j] = saved

    best_member = member_from_pq(
        params,
        HerglotzMeasure(normalized("p")),
        HerglotzMeasure(normalized("q")),
        DEFAULT_ORDER,
    )
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
