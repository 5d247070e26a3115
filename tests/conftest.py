"""Shared helpers for drawing random but valid inputs, and the measure and
coefficient transforms that only the tests use."""

from __future__ import annotations

import cmath
from typing import Sequence

import numpy as np

import fslab.extremal
import fslab.members
from fslab import ClassParams, HerglotzMeasure, member_from_pq
from fslab.members import _CIRCLE, SPOTCHECK_TOL, TWO_PI

# (lam, delta, alpha, beta) on the edges of the domain
EDGE_PARAMS = [
    ClassParams(1.0, 1.0, 0.0, 0.0),
    ClassParams(1.0, 1.0, 0.95, 0.95),
    ClassParams(0.0, 0.0, 0.95, 0.95),
    ClassParams(0.0, 0.0, 0.0, 0.0),
]


def sample_measure(rng: np.random.Generator, max_atoms: int) -> HerglotzMeasure:
    """Draw one measure: atom count uniform in 1..max_atoms, weights from a
    normalized positive draw, angles uniform on [0, 2 pi). Same generator
    state, same measure."""
    n = int(rng.integers(1, max_atoms + 1))
    weights = 1.0 - rng.random(n)  # in (0, 1], never exactly zero
    weights = weights / weights.sum()
    angles = rng.uniform(0.0, TWO_PI, n)
    return HerglotzMeasure(tuple(zip(map(float, weights), map(float, angles))))


def rotate(coeffs: Sequence[complex], theta: float) -> tuple[complex, ...]:
    """Rotate tail coefficients (a_1, a_2, ..., a_n) of a normalized function.

    Returns the coefficients of e^{-i theta} f(e^{i theta} z): entry k maps to
    a_k e^{i (k-1) theta}, so the first entry is fixed.
    """
    return tuple(v * cmath.exp(1j * j * theta) for j, v in enumerate(coeffs))


def shift_measure(measure: HerglotzMeasure, theta: float) -> HerglotzMeasure:
    """Advance every atom angle by theta (the measure of z -> p(e^{i theta} z))."""
    return HerglotzMeasure(tuple((w, t + theta) for w, t in measure.atoms))


def random_params(rng: np.random.Generator) -> ClassParams:
    """Uniform draw over the whole valid parameter domain."""
    lam = float(rng.random())
    delta = float(rng.random()) * lam
    alpha = float(rng.random())
    beta = float(rng.random())
    return ClassParams(lam, delta, alpha, beta)


def random_member(rng: np.random.Generator, params: ClassParams | None = None, order: int = 8,
                  max_atoms: int = 3):
    if params is None:
        params = random_params(rng)
    p = sample_measure(rng, max_atoms)
    q = sample_measure(rng, max_atoms)
    return member_from_pq(params, p, q, order)


def capture_spotcheck_jets(monkeypatch) -> list[tuple[tuple[complex, ...], tuple[complex, ...]]]:
    """Route both spot checks through a wrapper of members._grid_spotcheck
    that appends the two jets it divides on the circle, the numerator's and
    g's, each without its zero constant term and cut to the shorter one's
    length; returns the list they are appended to."""
    jets = []
    grid_spotcheck = fslab.members._grid_spotcheck

    def capture(member, num):
        n = min(len(num), len(member.b)) - 1
        jets.append((tuple(map(complex, num[1 : n + 1])), tuple(map(complex, member.b[1 : n + 1]))))
        return grid_spotcheck(member, num)

    for module in (fslab.members, fslab.extremal):
        monkeypatch.setattr(module, "_grid_spotcheck", capture)
    return jets


def spotcheck_verdicts(monkeypatch, check, members) -> list[tuple[bool, bool]]:
    """For each member, check's boolean and the one that the real parts of
    numpy's polyval(top) / polyval(g) give at the same threshold, on the two
    jets the check divided at the spot checks' circle."""
    jets = capture_spotcheck_jets(monkeypatch)
    polyval = np.polynomial.polynomial.polyval
    verdicts = []
    for m in members:
        jets.clear()
        got = check(m)
        ((top, g),) = jets
        vals = (polyval(_CIRCLE, np.asarray(top)) / polyval(_CIRCLE, np.asarray(g))).real
        verdicts.append((got, bool(vals.min() > m.params.alpha - SPOTCHECK_TOL)))
    return verdicts


def atom_measure(angle: float = 0.0) -> HerglotzMeasure:
    return HerglotzMeasure(((1.0, angle),))
