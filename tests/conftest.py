"""Shared helpers for drawing random but valid inputs, and the measure and
coefficient transforms that only the tests use."""

from __future__ import annotations

import cmath
from typing import Sequence

import numpy as np

from fslab import ClassParams, HerglotzMeasure, member_from_pq
from fslab.members import TWO_PI

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


def random_member(rng: np.random.Generator, params: ClassParams | None = None, order: int = 8):
    if params is None:
        params = random_params(rng)
    p = sample_measure(rng, 3)
    q = sample_measure(rng, 3)
    return member_from_pq(params, p, q, order)


def atom_measure(angle: float = 0.0) -> HerglotzMeasure:
    return HerglotzMeasure(((1.0, angle),))
