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
honestly as a ViolationError. The random phase and the polish catch that
defect without the floor's help: with the floor replaced by the case-1
witness, default searches beat bound_real beyond verify_inequality's
tolerance on 150 of 150 window draws where bound_sharp exceeds it by 1e-4 or
more, reaching at least 0.974 of that excess (median 0.9995); 147 of 150
without the polish (median 0.954), 61 at max_atoms = 1
(tests/test_search.py).

Closed form: the functional depends on a member only through c_1, c_2
of p and q_1, q_2 of q (a_2 and a_3 in :mod:`fslab.members`). _coefficients
gives its constants u, v, 2 tau and 3 sigma once per search. _c12 sums
(c_1, c_2) over (w_i, exp(1j t_i)) pairs in order; on a measure's own atoms
that is herglotz_coeffs' pair bit for bit, and the seeded floor (_pair_value)
and the polish both read it. _held gives the terms one side's pair puts in.
_evaluator writes the scalar form once: built for one moving side against the
other side's held terms, it returns value(c_1, c_2), which the seeded floor
and both polish closures call. _folded is the same form with its constants
folded, which the random phase reads over numpy arrays. Each form stays where
it keeps the results or is faster: with _folded in the floor and the polish,
200 of the first 300 verify benchmark results (seed 1) changed, best_value in
159, by up to 8.4e-10 relative and 138 of them lower; the float32 screen
written over the scalar form took about 195 us against 150 us per 2,048-sample
chunk of 3 atoms (2-vCPU Intel Xeon virtual machine). member_from_pq stays the
reference.

The polish moves one coordinate of one side at a time. Each round builds one
value per side, against the other side's _held terms, and each golden-section
search reads its side's weights, z_i and z_i**2 from the atoms as they stand
(_side_terms) and calls one closure built for its coordinate (_polish), which
computes once what the coordinate cannot move: for an angle _c12's terms of
the other atoms. It ends in that value. Every sum adds the terms _c12 adds, in
its order and starting from its float 0.0, and a weight search divides the raw
weights by their _total as _weights does, so every value is bitwise the closed
form on the atoms with the coordinate at the evaluated point. A round searches
every angle, and every weight of a side with more than one atom. A search
writes its coordinate only if its best point beats the incumbent; one that
does not changes nothing. So once a round's worth of searches in a row has
kept no move, every later search would repeat one of them exactly. After a
kept move at a coordinate, a round's worth less one of searches that keep
nothing already leads back to that coordinate, with nothing its objective
reads changed: its search would return the kept (x, v) bit for bit, which
cannot beat the incumbent. The polish stops before that search, or after a
round's worth where it has kept no move at all, which makes n_refine a maximum
and changes no result. On 600 polishes captured from verify benchmark ops
(seeds 1-3, ops 0-199) the stop one search sooner cut the evaluations from 282
to 249 a polish, and the median time of a polish went from 0.65 ms, with the
plain form's calls per evaluation, to 0.53 ms with the closures and 0.49 ms
with both; the closures' one call to value per evaluation, in place of the
form written out in each, costs about 0.04 ms of 0.57 (2-vCPU Intel Xeon
virtual machine). The incumbent is built in full by member_from_pq, and its
polished copy only where the polish moved a coordinate; best_value is the
returned member's |a_3 - mu a_2**2|. The closed form and a member can differ
by a few ulps, so the polished member is returned only if its value is not
below the incumbent's: the polish never lowers best_value.

Random phase: _values evaluates a chunk's samples in the same closed form,
folded by _folded to F = d c_2 + e q_2 + (A q_1 + B c_1) q_1 + C c_1**2
and read straight from the uniforms in a given float dtype: a side's weights
are 1 - u where u_0 max_atoms >= j (the atoms _measure decodes), its unit
numbers z_i = x_i + i y_i = cos(t) + i sin(t) with t = 2 pi u, and
c_1 = 2 sum_i w_i z_i and c_2 = 2 sum_i w_i z_i**2 are summed in real
arithmetic (z**2 as x**2 - y**2 + 2 i x y) and divided by sum_i w_i after the
sum. The weights, their mask and the angles are formed in float64 from the
uniforms and rounded once to the dtype (1 - u, not u: a weight uniform within
2**-25 of 1 would round to a zero weight); everything after runs in the dtype.
The exact pass runs it in float64 on the fold (exact values); the screen runs
it in float32 and complex64 on the fold times s = 1 / (1 + |mu|) (rough
values). With u, v <= 1 and tau, sigma >= 1, |d| + |e| <= 1/2 and
|A| + |B| + |C| <= 1/2 + |mu|, so the scaled coefficients are below 1 and no
float32 intermediate overflows at any mu.

The screen's bound. With |c_k|, |q_k| <= 2 the terms of F sum to at most
3 + 4 |mu|, so every scaled value is at most 4. Let e32 = 2**-24 and let dz
bound |z~ - z| for the float32 unit number z~ and the float64 one z of the
same uniform: rounding the angle to float32 moves it by at most 2**-22
(2.4e-7) at 2 pi, and float32 cos and sin add about one float32 ulp each, so
dz <= eps / 4 = 5e-7 with eps = _SCREEN_EPS = 2e-6 (the largest seen is
2.9e-7). On a side of k <= 4 atoms, to first order in e32:

- rounding the weights to float32 moves each by e32 of it at most, so the
  normalized weights by at most e32 in sum (the mean deviation of errors
  within +-e32) and c_1 and c_2 by 2 e32;
- the products, the k-term sums of the numerators and of the weights,
  2 / sum and the last products move c_1 by at most (4 k + 2) e32 and c_2 by
  (4 k + 6.2) e32 (a partial sum errs by e32 of at most sum_i w_i, and the
  roundings in x**2 - y**2 and 2 x y move w z**2 by at most 3.1 e32 w);
- the unit numbers move c_1 by 2 dz and c_2 by 2 dz (2 + dz).

So c_1 and q_1 are off by at most r1 = 2 dz + 20 e32, c_2 and q_2 by
r2 = 4 dz (1 + dz/2) + 24.2 e32, which moves F by at most
r2 / 2 + 4 r1 (1 + r1/4) (1/2 + |mu|), or (8 dz + 80 e32) (1 + r1/4) in units
of 1 + |mu|. Rounding the five coefficients to complex64 (one that underflows
moves its term by less than 2**-148), each complex product (within sqrt(5) e32
of its value), each sum and np.abs add at most 40 e32 in those units, and
underflow in the sums less than 2**-90 once divided by sum_i w_i >= 2**-53. So

    |rough - s exact| <= 8 dz + 120 e32 + 1e-12 <= 1.12e-5 < 8 eps = 1.6e-5.

E = 8 eps (1 + |mu|) is this bound in the search's units. The 4.8e-6 to spare
covers the float64 roundings of the exact pass and of s (a few dozen of 2**-53
of 4) and the rounding of a threshold to float32 where numpy compares it with
the rough values (2**-24 of at most 4, 2.4e-7). With m the chunk's largest
rough value and best_v the incumbent's, only the samples with rough >=
max(m - 2 E s, s best_v - E s) go through the exact pass. A sample reaching
the chunk's exact maximum M has rough >= s M - E s >= m - 2 E s, and
rough > s best_v - E s if M > best_v: whenever M can replace the incumbent,
every sample reaching it is kept. When M <= best_v no kept sample can replace
it either, since the incumbent changes only on a strictly larger value; a
chunk with m < s best_v - E s keeps no sample and skips the exact pass. When
m is not finite every sample is kept, which only a NaN can cause: it makes m
NaN, and rough >= max(nan, ...) keeps nothing, so the threshold alone would
skip the chunk silently where the exact pass's np.fmax still finds its
largest value. _values is elementwise, so every search result is bitwise that
of the unscreened exact pass.

Memory: each chunk of _CHUNK samples allocates its own arrays. A default
search's heap peak (tracemalloc) is about 1.6 MiB at 3 atoms and 2.1 MiB at 4
where the screen keeps few samples, and up to 4.0 MiB where it keeps them all
(alpha and beta within 1e-8 of 1, where every sample has nearly the same
value); no one array is above 1.3 MiB. The package's import-time allocator
warm-up (:mod:`fslab`) raises glibc's mmap and trim thresholds to 4 and
8 MiB, which keeps glibc from refaulting them per chunk.

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
Weight totals are added left to right from 0.0 on every Python (the
members module's _total, which also adds the member builds' complex sums):
builtin sum adds floats with Neumaier's compensation from Python 3.12 on, and
with that sum emulated it moved 3 of 600 verify benchmark results (seeds 1-3,
ops 0-199) while the search totalled weights with it; tests/test_bits.py
checks the digests under the emulated sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

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
    _scalar_mu,
    _total,
    _whole,
    fs_functional,
    member_from_pq,
)

# Relative slack separating "roundoff" from "the bound is wrong".
VIOLATION_RTOL = 1e-9

# A search result within this relative margin of the bound counts as attained.
ATTAINED_RTOL = 1e-6

# Golden-section interval contraction threshold.
REFINE_TOL = 1e-10

# Random samples per kernel call; the stream layout fixes every sample's
# draws, so no result depends on it. Each chunk pays a fixed numpy cost (a
# draw, a float32 screen of about 35 ufunc calls and often a float64 exact
# pass), so the default budget of 10,000 samples runs as two chunks: about
# 16 % more verify benchmark ops per second than five chunks of 2,048 (2-vCPU
# Intel Xeon virtual machine). A default search's heap peak is then about
# 2.1 MiB at 4 atoms and its largest array, the 4-atom draw, 0.69 MiB, below
# the 8 MiB trim and 4 MiB mmap thresholds of the allocator warm-up
# (:mod:`fslab`); one chunk of 10,000 peaked at 3.9 MiB (module docstring,
# Memory, for searches whose screen keeps every sample).
_CHUNK = 5000

# eps in the screen's bound E = 8 eps (1 + |mu|) on |rough - exact|: the
# proof in the module docstring needs 8 eps > 1.12e-5, with the float32 unit
# numbers within eps / 4 of the float64 ones.
_SCREEN_EPS = 2e-6

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
            raw = getattr(self, field.name)
            value = _whole(raw)
            if value is None:
                raise DomainError(f"{field.name} must be an integer, got {raw!r}")
            object.__setattr__(self, field.name, value)
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
    # bound - best_value; negative where the search beats the bound, as the
    # seeded floor does on the case-3/4 window (only verify_inequality
    # requires margin >= -VIOLATION_RTOL * max(1, bound))
    margin: float
    evaluations: int

    @property
    def attained(self) -> bool:
        """best_value is within ATTAINED_RTOL of the bound (or above it)."""
        return self.margin <= ATTAINED_RTOL * self.bound


def _coefficients(params: ClassParams) -> tuple[float, float, float, float]:
    """(u, v, 2 tau, 3 sigma), the constants of the closed form, once per search."""
    return 1.0 - params.alpha, 1.0 - params.beta, 2.0 * params.tau, 3.0 * params.sigma


def _c12(atoms):
    """(c_1, c_2), c_k = 2 sum_i w_i z_i**k, from (w_i, z_i) pairs summed in
    order; the library passes Python floats only, no arrays."""
    c1 = c2 = 0.0
    for w, z in atoms:
        c1 = c1 + w * z
        c2 = c2 + w * (z * z)
    return 2.0 * c1, 2.0 * c2


def _held(coef, side, pair):
    """The terms of the closed form that one side's (c_1, c_2) pair gives:
    (u c_1, u c_2) for p (side 0), (b_2, b_3) for q (side 1)."""
    x1, x2 = pair
    if not side:
        u = coef[0]
        return u * x1, u * x2
    v = coef[1]
    b2 = v * x1  # g = z + b_2 z**2 + b_3 z**3 + ...
    return b2, v * (x2 + b2 * x1) / 2.0


def _evaluator(coef, mu: complex, side, other):
    """value(c_1, c_2): |a_3 - mu a_2**2| from the moving side's (c_1, c_2)
    pair and the other side's _held terms, with the side fixed here:
    a_2 = (b_2 + u c_1) / (2 tau), a_3 = (b_3 + b_2 u c_1 + u c_2) / (3 sigma)."""
    u, v, two_tau, three_sigma = coef

    def form(uc1, uc2, b2, b3):
        a2 = (b2 + uc1) / two_tau
        return abs((b3 + b2 * uc1 + uc2) / three_sigma - mu * (a2 * a2))

    h1, h2 = other
    if side:  # q moves: its (b_2, b_3) as _held gives them
        def value(x1, x2):
            b2 = v * x1
            return form(h1, h2, b2, v * (x2 + b2 * x1) / 2.0)
    else:
        def value(x1, x2):
            return form(u * x1, u * x2, h1, h2)
    return value


def _folded(coef, mu: complex):
    """(d, e, A, B, C), a_3 - mu a_2**2 = d c_2 + e q_2 + (A q_1 + B c_1) q_1 + C c_1**2."""
    u, v, two_tau, three_sigma = coef
    u2, v2, six_sigma = u / two_tau, v / two_tau, 2.0 * three_sigma  # a_2 = v2 q_1 + u2 c_1
    return (u / three_sigma, v / six_sigma, v * v / six_sigma - mu * (v2 * v2),
            u * v / three_sigma - 2.0 * mu * (u2 * v2), -mu * (u2 * u2))


def _pair_value(coef, mu: complex, p: HerglotzMeasure, q: HerglotzMeasure) -> float:
    """|a_3 - mu a_2**2| of member_from_pq(params, p, q), in closed form from
    _c12 over each measure's (w, exp(1j t)) pairs."""
    pc, qc = (_c12((w, cmath.exp(1j * t)) for w, t in m.atoms) for m in (p, q))
    return _evaluator(coef, mu, 0, _held(coef, 1, qc))(*pc)


def _used(u0: np.ndarray, max_atoms: int) -> np.ndarray:
    """Slot j < the atom count, uniform in 1..max_atoms: u0 max_atoms >= j."""
    return u0 * max_atoms >= np.arange(float(max_atoms))[:, None]


def _draw_chunk(rng: np.random.Generator, samples: int, max_atoms: int) -> np.ndarray:
    """The stream's next samples' uniforms, (2, 1 + 2 max_atoms, samples): p's, then q's."""
    return np.ascontiguousarray(rng.random((samples, 2, 1 + 2 * max_atoms)).transpose(1, 2, 0))


def _values(fold, u: np.ndarray, max_atoms: int, dtype) -> np.ndarray:
    """|a_3 - mu a_2**2| per sample of uniforms u, fold from _folded, in the
    float dtype: the weights 1 - u, their atom mask and the angles 2 pi u are
    formed in float64 and rounded once to it (module docstring)."""
    k = max_atoms
    w, t, wx, wxy = np.empty((4, 2, k, u.shape[-1]), dtype)
    np.subtract(1.0, u[:, 1 : 1 + k], out=w, casting="same_kind")
    w *= _used(u[:, :1], k)
    np.multiply(TWO_PI, u[:, 1 + k :], out=t, casting="same_kind")
    x, y = np.cos(t), np.sin(t)
    scale = 2.0 / w.sum(axis=1)
    cq = np.empty((2, *scale.shape), np.result_type(dtype, np.complex64))  # (c_1, q_1), (c_2, q_2)
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
    d, e, a, b, c = np.array(fold, cq.dtype)
    return np.abs(d * c2 + e * q2 + (a * q1 + b * c1) * q1 + c * (c1 * c1))


def _screened(fold, slack: float, best_v: float, u: np.ndarray, max_atoms: int) -> np.ndarray:
    """The chunk's samples for the exact pass: rough >= max(m - 2 slack,
    best_v - slack), or all of them if m is not finite; maximize_fs passes
    fold, slack = E and best_v in the screen's units (module docstring)."""
    with np.errstate(all="ignore"):  # the exact pass reports, not the screen
        rough = _values(fold, u, max_atoms, np.float32)
        m = float(rough.max())
    if not math.isfinite(m):
        return np.arange(rough.size)
    return (rough >= max(m - 2.0 * slack, best_v - slack)).nonzero()[0]


def _measure(u: np.ndarray, max_atoms: int) -> HerglotzMeasure:
    """One sample's measure from one side's uniforms u, (1 + 2 max_atoms,):
    the atoms _values uses, with angles 2 pi u and weights 1 - u through
    _normalized, summed in slot order as _values sums them."""
    used = _used(u[:1], max_atoms)[:, 0]
    w, t = 1.0 - u[1 : 1 + max_atoms][used], TWO_PI * u[1 + max_atoms :][used]
    return HerglotzMeasure(_normalized([*zip(w.tolist(), t.tolist())]))


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
    """The atoms' weights divided by their _total."""
    total = _total([w for w, _ in atoms])
    return [w / total for w, _ in atoms]


def _normalized(atoms) -> list[tuple[float, float]]:
    return list(zip(_weights(atoms), (t for _, t in atoms)))


def _side_terms(side):
    """One side's _weights, z_i = exp(1j t_i) and z_i**2, from its atoms as they stand."""
    zs = [cmath.exp(1j * t) for _, t in side]
    return _weights(side), zs, [z * z for z in zs]


def _polish(coef, mu: complex, sides, best_v: float, rounds: int) -> int:
    """Coordinatewise golden-section ascent in place; returns the evaluations.

    sides holds p's atoms and then q's, each atom a [w, t] list. Each of at
    most `rounds` rounds moves, side by side, every angle on [0, 2 pi) and
    then every weight (a lone weight is fixed) while the other side's
    (c_1, c_2) stays put, and writes a coordinate only if its search beats
    best_v. It returns once a round's worth of searches in a row kept no
    move, and after a kept move one search sooner, before the search that
    would repeat the kept one (module docstring). Each round builds one
    _evaluator value per side against the other side's _held terms, and
    each search reads its side's _side_terms and calls one closure built
    for its coordinate, which computes only what the coordinate moves and
    ends in that value. An angle evaluation makes one exp(1j t) and _c12's
    additions from atom j on, a weight evaluation takes the _total of the
    side's raw weights and makes _c12's additions. Every evaluation is, bit
    for bit, the closed form of p's _c12 and q's, each over its side's
    _normalized atoms as (w, exp(1j t)) pairs.
    """
    evals = 0
    # each side's coordinates per round: every angle, and every weight of a
    # side with more than one atom
    coords = [[(j, 1, 0.0, TWO_PI) for j in range(len(side))]
              + [(j, 0, 1e-9, 1.0) for j in range(len(side)) if len(side) > 1] for side in sides]
    per_round = sum(map(len, coords))
    # searches in a row that keep nothing before the next would repeat one
    # exactly: a round's worth, or one fewer after a kept move, whose own
    # search comes next (module docstring)
    idle, stop = 0, per_round
    for _ in range(rounds):
        for s, side in enumerate(sides):
            ws, zs, _ = _side_terms(sides[1 - s])
            value = _evaluator(coef, mu, s, _held(coef, 1 - s, _c12(zip(ws, zs))))
            for j, k, lo, hi in coords[s]:
                ws, zs, zzs = _side_terms(side)
                if k:  # everything but atom j's own terms, in _c12's order
                    wj = ws[j]
                    pre1 = pre2 = 0.0
                    for w, z, zz in zip(ws[:j], zs, zzs):
                        pre1 = pre1 + w * z
                        pre2 = pre2 + w * zz
                    post = [(w * z, w * zz) for w, z, zz in zip(ws[j + 1 :], zs[j + 1 :], zzs[j + 1 :])]

                    def f(x):
                        nonlocal evals
                        evals += 1
                        z = cmath.exp(1j * x)
                        c1 = pre1 + wj * z
                        c2 = pre2 + wj * (z * z)
                        for a, b in post:
                            c1 = c1 + a
                            c2 = c2 + b
                        return value(2.0 * c1, 2.0 * c2)
                else:
                    raw = [w for w, _ in side]  # _weights' total and divisions, with x at j

                    def f(x):
                        nonlocal evals
                        evals += 1
                        raw[j] = x
                        total = _total(raw)
                        c1 = c2 = 0.0
                        for r, z, zz in zip(raw, zs, zzs):
                            w = r / total
                            c1 = c1 + w * z
                            c2 = c2 + w * zz
                        return value(2.0 * c1, 2.0 * c2)

                x, val = _golden_max(f, lo, hi)
                if val > best_v:
                    side[j][k] = x
                    best_v, idle, stop = val, 0, per_round - 1
                else:
                    idle += 1
                if idle == stop:
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
    fold = _folded(coef, mu)
    scale = 1.0 / (1.0 + abs(mu))  # the screen's units: E = 8 eps, complex64 cannot overflow
    screen = [f * scale for f in fold]
    rng = np.random.Generator(np.random.SFC64(budget.seed))
    k = budget.max_atoms
    left = budget.n_samples
    while left:
        size = min(_CHUNK, left)
        u = _draw_chunk(rng, size, k)
        kept = _screened(screen, 8.0 * _SCREEN_EPS, best_v * scale, u, k)
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
    sides = [[[w, t] for w, t in m.atoms] for m in (p, q)]
    evals += _polish(coef, mu, sides, best_v, budget.n_refine)
    # A polish that moved no coordinate builds nothing. It ranks moves by the
    # closed form, which can differ from a member's value by a few ulps, so a
    # moved copy is kept only if its member is not below the incumbent's.
    if sides != [[[w, t] for w, t in m.atoms] for m in (p, q)]:
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
