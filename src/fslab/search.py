"""Randomized search for the largest |a_3 - mu a_2**2| over class members.

This is the independent check on the closed-form bounds: sample measure pairs,
evaluate the functional of the members they induce, and keep the largest
modulus. Sharpness never depends on luck because the seeded floor is always
evaluated first: bound_sharp's witness for real mu (extremal._sharp_pair),
and the case-1 and case-3 witnesses for complex mu. Rotating a member,
f -> e^{-i theta} f(e^{i theta} z), leaves |a_3 - mu a_2**2| unchanged
(acceptance criterion 8 checks this), so case 4, case 1 rotated, adds
nothing. Random samples and a coordinatewise golden-section polish then try
to beat the floor; for real mu none has beyond roundoff. On the case-3/4
window with alpha > 0 described in :mod:`fslab.bounds` the seeded witness
itself beats the piecewise value, and verify_inequality reports that
honestly as a ViolationError. Whether max_atoms = 3 limits anything is
unknown and irrelevant to the seeded floor.

The search evaluates the closed form of a_2 and a_3 in :mod:`fslab.members`
from c_k = 2 sum_i w_i z_i**k with z_i = exp(1j t_i): over numpy arrays
(np.cos and np.sin) for the random samples, one pair at a time (cmath.exp) for
the polish, and through herglotz_coeffs for the seeded floor. The constants u,
v, 2 tau and 3 sigma are computed once per search. The polish caches each
atom's z_i and the side's normalized weights, so an angle step recomputes one
z_i and a weight step only the weights; its every value is bitwise the one the
uncached form gives. A round searches every angle, and every weight of a side
with more than one atom. A search whose best point does not beat the incumbent
is undone by setting the coordinate back, which restores the atoms, the cached
z_i and weights and the incumbent bit for bit, and (c_1, c_2) is always
rebuilt from those caches. So once a round's worth of searches in a row has
kept no move, every later search would repeat one of them exactly: the polish
stops there, which makes n_refine a maximum and changes no result. Only the
incumbent and its polished copy are built in full, by member_from_pq, and
best_value is the returned member's |a_3 - mu a_2**2|. The closed form and a
member can differ by a few ulps, so the polished member is returned only if
its value is not below the incumbent's: best_value with the polish is never
below best_value without it.

Random phase: _values evaluates a chunk's samples in the same closed form,
folded by members._folded to d c_2 + e q_2 + (A q_1 + B c_1) q_1 + C c_1**2
and read straight from the uniforms: a side's weights are 1 - u where
u_0 max_atoms >= j (the atoms _measure decodes), its unit numbers
z_i = x_i + i y_i = cos(t) + i sin(t), t the angle 2 pi u rounded to a given
float dtype, and c_1 = 2 sum_i w_i z_i and c_2 = 2 sum_i w_i z_i**2 are summed
in real float64 arithmetic (z**2 as x**2 - y**2 + 2 i x y) and divided by
sum_i w_i after the sum. The screen runs it with float32 angles (rough, unit
numbers z~), the exact pass with float64 ones (exact, z). Rounding the angle
to float32 moves z by at most half a float32 ulp at 2 pi (2.4e-7), and
float32 cos and sin add about one float32 ulp each, so |z~ - z| <= eps / 2
with eps = 1e-6 (the largest seen is 2.9e-7). With |c_k|, |q_k| <= 2,
u, v <= 1 and tau, sigma >= 1, a z_i error d moves c_1 and q_1 by at most
2 d, c_2 and q_2 by 2 d (2 + d), a_2 by 2 d, a_2**2 by 8 d (1 + d/2) and a_3
by 6 d (1 + d/2), so in exact arithmetic

    |rough - exact| <= (6 + 8 |mu|) d (1 + d/2).

Every intermediate of either pass is at most 10 (1 + |mu|) in modulus and
each rounds a few dozen times by 2**-53 of that. At d = eps / 2 the bound is
below E = 8 eps (1 + |mu|) by more than 4 eps (1 + |mu|) (1 - eps), far more
than that rounding, so |rough - exact| <= E. With m the chunk's largest
rough value and best_v the incumbent's, only the samples with rough >=
max(m - 2 E, best_v - E) go through the exact pass. A sample reaching the
chunk's exact maximum M has rough >= M - E >= m - 2 E, and rough > best_v - E
if M > best_v: whenever M can replace the incumbent, every sample reaching
it is kept. When M <= best_v no kept sample can replace it either, since the
incumbent changes only on a strictly larger value; a chunk with m < best_v - E
keeps no sample and skips the exact pass. When m is not finite every sample
is kept. maximize_fs never reaches that rule with an overflow, since wherever
the rough values overflow the bound overflows first and the search raises
DomainError; it is the NaN guard. One NaN sample makes m NaN, and rough >=
max(nan, ...) keeps nothing, so the threshold alone would skip the chunk
silently where the exact pass's np.fmax still finds its largest value.
_values is elementwise, so every search result is bitwise that of the
unscreened exact pass.

Memory: each chunk allocates its own arrays; the package's import-time
allocator warm-up (:mod:`fslab`) keeps glibc from refaulting them per chunk.

Determinism contract: the random phase reads one stream,
np.random.Generator(np.random.SFC64(seed)), with a fixed layout of
2 (1 + 2 max_atoms) doubles per sample: for p and then q, one uniform for the
atom count, max_atoms weights and max_atoms angles (slots past the atom count
are drawn and ignored). Sample i therefore reads the same doubles however the
samples are split into chunks, and _values is elementwise.
The incumbent is the first seed reaching the seeds' largest value; each
chunk in stream order replaces it only with a strictly larger value, and
then with its earliest sample reaching that value. So the result is the
earliest candidate, seeds first, that reaches the maximum: bitwise identical
for the same inputs and budget, ties included, independent of the chunk size.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .bounds import bound_complex
from .errors import DomainError, ViolationError
from .extremal import _sharp_pair, extremal_config
from .members import (
    ClassMember,
    ClassParams,
    HerglotzMeasure,
    MAX_ATOMS,
    TWO_PI,
    _c12,
    _coefficients,
    _folded,
    _fs_value,
    _pair_value,
    _scalar_mu,
    fs_functional,
    member_from_pq,
)

# Relative slack separating "roundoff" from "the bound is wrong".
VIOLATION_RTOL = 1e-9

# A search result within this relative margin of the bound counts as attained.
ATTAINED_RTOL = 1e-6

# Golden-section interval contraction threshold.
REFINE_TOL = 1e-10

# Random samples per kernel call. It bounds the kernel's working memory, which
# must stay below the allocator warm-up's thresholds (:mod:`fslab`), and
# nothing else: the stream layout fixes every sample's draws.
_CHUNK = 2048

# Bound eps on |z~ - z| for the screen's float32 unit numbers, with a factor
# of two to spare (module docstring).
_SCREEN_EPS = 1e-6

@dataclass(frozen=True)
class SearchBudget:
    """How much work maximize_fs may spend.

    n_samples random measure pairs, at most n_refine polish passes over the
    incumbent (the polish stops early at a fixed point), at most max_atoms
    atoms per sampled measure, all derived from seed.
    """

    n_samples: int = 10_000
    n_refine: int = 3
    max_atoms: int = 3
    seed: int = 42

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise DomainError(f"{field.name} must be an integer, got {value!r}")
            object.__setattr__(self, field.name, int(value))
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


def _used(u0: np.ndarray, max_atoms: int) -> np.ndarray:
    """Slot j < the atom count, uniform in 1..max_atoms: u0 max_atoms >= j."""
    return u0 * max_atoms >= np.arange(float(max_atoms))[:, None]


def _draw_chunk(rng: np.random.Generator, samples: int, max_atoms: int) -> np.ndarray:
    """The stream's next samples' uniforms, (2, 1 + 2 max_atoms, samples): p's, then q's."""
    return np.ascontiguousarray(rng.random((samples, 2, 1 + 2 * max_atoms)).transpose(1, 2, 0))


def _values(fold, u: np.ndarray, max_atoms: int, unit) -> np.ndarray:
    """|a_3 - mu a_2**2| per sample of uniforms u, fold from _folded, the
    angles rounded to the dtype unit (module docstring)."""
    k = max_atoms
    w, wx, wxy = np.empty((3, 2, k, u.shape[-1]))  # one block: fewer page faults
    np.subtract(1.0, u[:, 1 : 1 + k], out=w)
    w *= _used(u[:, :1], k)
    t = (TWO_PI * u[:, 1 + k :]).astype(unit, copy=False)
    x, y = np.cos(t), np.sin(t)
    scale = 2.0 / w.sum(axis=1)
    cq = np.empty((2, *scale.shape), np.complex128)  # (c_1, q_1), (c_2, q_2)
    np.multiply(w, x, out=wx)
    w *= y  # w y
    np.multiply(wx, y, out=wxy)
    np.multiply(wx.sum(axis=1), scale, out=cq[0].real)
    np.multiply(w.sum(axis=1), scale, out=cq[0].imag)
    np.multiply(2.0 * wxy.sum(axis=1), scale, out=cq[1].imag)
    wx *= x
    w *= y
    wx -= w  # w x**2 - w y**2
    np.multiply(wx.sum(axis=1), scale, out=cq[1].real)
    (c1, q1), (c2, q2) = cq
    d, e, a, b, c = fold
    return np.abs(d * c2 + e * q2 + (a * q1 + b * c1) * q1 + c * (c1 * c1))


def _screened(fold, slack: float, best_v: float, u: np.ndarray, max_atoms: int) -> np.ndarray:
    """The chunk's samples for the exact pass: rough >= max(m - 2 E, best_v - E),
    E = slack, or all of them if m is not finite (module docstring)."""
    with np.errstate(all="ignore"):  # the exact pass reports, not the screen
        rough = _values(fold, u, max_atoms, np.float32)
        m = float(rough.max())
    if not math.isfinite(m):
        return np.arange(rough.size)
    return (rough >= max(m - 2.0 * slack, best_v - slack)).nonzero()[0]


def _measure(u: np.ndarray, max_atoms: int) -> HerglotzMeasure:
    """One sample's measure from one side's uniforms u, (1 + 2 max_atoms,):
    the atoms _values uses, weights w / sum(w) and angles 2 pi u."""
    used = _used(u[:1], max_atoms)[:, 0]
    w = 1.0 - u[1 : 1 + max_atoms][used]
    total = np.add.accumulate(w)[-1]  # in slot order, as _values sums
    return HerglotzMeasure(tuple(zip((w / total).tolist(), (TWO_PI * u[1 + max_atoms :][used]).tolist())))


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


def _weights(atoms) -> list[float]:
    """The atoms' weights divided by their sum."""
    total = sum(w for w, _ in atoms)
    return [w / total for w, _ in atoms]


def _normalized(atoms) -> list[tuple[float, float]]:
    return list(zip(_weights(atoms), (t for _, t in atoms)))


def _polish(coef, mu: complex, sides, best_v: float, rounds: int) -> int:
    """Coordinatewise golden-section ascent in place; returns the evaluations.

    sides holds p's atoms and then q's, each atom a [w, t] list. Each of at
    most `rounds` rounds moves, side by side, every angle on [0, 2 pi) and
    then every weight (a lone weight is fixed) while the other side's
    (c_1, c_2) stays put, and keeps a move only if it beats best_v. It
    returns once a round's worth of searches in a row kept no move (module
    docstring). Every evaluation equals _fs_value over _c12 of each side's
    _normalized atoms as (w, exp(1j t)) pairs bit for bit, but reads cached
    parts: an angle step recomputes one atom's exp(1j t) and a weight step
    only the side's _weights.
    """
    evals = 0
    units = [[cmath.exp(1j * t) for _, t in side] for side in sides]
    weights = [_weights(side) for side in sides]
    # coordinates per round: every angle, and every weight of a side with
    # more than one atom; after that many searches without a kept move every
    # later search repeats one of them exactly (module docstring)
    per_round = sum(len(side) if len(side) == 1 else 2 * len(side) for side in sides)
    idle = 0

    def move(x: float) -> None:  # coordinate k of atom j on side s, set below
        side[j][k] = x
        if k:
            units[s][j] = cmath.exp(1j * x)
        else:
            weights[s] = _weights(side)

    def objective(x: float) -> float:
        nonlocal evals
        evals += 1
        move(x)
        cq[s] = _c12(zip(weights[s], units[s]))
        return _fs_value(coef, mu, *cq)

    for _ in range(rounds):
        for s, side in enumerate(sides):
            cq = [_c12(zip(w, z)) for w, z in zip(weights, units)]
            coords = [(j, 1, 0.0, TWO_PI) for j in range(len(side))]
            if len(side) > 1:
                coords += [(j, 0, 1e-9, 1.0) for j in range(len(side))]
            for j, k, lo, hi in coords:
                saved = side[j][k]
                x, v = _golden_max(objective, lo, hi)
                if v > best_v:
                    best_v, idle = v, 0
                else:
                    x, idle = saved, idle + 1
                move(x)
                if idle == per_round:
                    return evals
    return evals


def maximize_fs(
    params: ClassParams,
    mu: complex,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Best |a_3 - mu a_2**2| found over seeded, sampled, and polished members.

    mu is treated as real (piecewise four-branch value) unless it is complex
    (numpy's complex scalars too): then the triangle-inequality bound applies.
    A mu at which that bound overflows is a DomainError.
    """
    budget = budget or SearchBudget()
    mu = _scalar_mu(mu)
    # Seeded floor: bound_sharp's witness for real mu, from the report the
    # bound is read from, the witnesses of cases 1 and 3 for complex mu.
    if isinstance(mu, complex):
        bound = bound_complex(params, mu)
        seeds = [extremal_config(params, case_id) for case_id in (1, 3)]
    else:
        report, *pair = _sharp_pair(params, mu)
        bound, seeds = report.value, [pair]
    if not math.isfinite(bound):
        raise DomainError(f"the bound overflows at mu = {mu}")

    # The incumbent is the first seed reaching the seeds' largest value (max
    # keeps the first of equals), then each chunk of the one SFC64 stream
    # whose value is strictly larger, with that chunk's earliest winner.
    coef = _coefficients(params)
    values = [_pair_value(coef, mu, p, q) for p, q in seeds]
    best_v = max(values)
    p, q = seeds[values.index(best_v)]
    evals = len(seeds)
    fold, slack = _folded(coef, mu), 8.0 * _SCREEN_EPS * (1.0 + abs(mu))  # slack is E
    rng = np.random.Generator(np.random.SFC64(budget.seed))
    k = budget.max_atoms
    left = budget.n_samples
    while left:
        size = min(_CHUNK, left)
        u = _draw_chunk(rng, size, k)
        kept = _screened(fold, slack, best_v, u, k)
        if kept.size:  # else no sample of the chunk can beat the incumbent
            values = _values(fold, u[:, :, kept], k, np.float64)
            top = np.fmax.reduce(values)
            if top > best_v:
                i = kept[np.flatnonzero(values == top)[0]]
                best_v, p, q = float(top), _measure(u[0, :, i], k), _measure(u[1, :, i], k)
        evals += size
        left -= size

    best_member = member_from_pq(params, p, q)
    best_value = abs(fs_functional(best_member, mu))
    if budget.n_refine:
        sides = [[[w, t] for w, t in m.atoms] for m in (p, q)]
        evals += _polish(coef, mu, sides, best_v, budget.n_refine)
        # The polish ranks moves by the closed form, which can differ from
        # a member's value by a few ulps, so it is kept only if its member
        # is not below the incumbent's.
        polished = member_from_pq(params, *(HerglotzMeasure(_normalized(side)) for side in sides))
        polished_value = abs(fs_functional(polished, mu))
        if polished_value >= best_value:
            best_member, best_value = polished, polished_value
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
