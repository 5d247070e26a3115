"""Shared helpers for drawing random but valid inputs, and the measure and
coefficient transforms that only the tests use."""

from __future__ import annotations

import cmath
import functools
import math
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


@functools.lru_cache(maxsize=2)
def _polar_grid(n_t: int, n_phi: int):
    """z = t exp(i phi) at n_t radii from 0 to 1 and n_phi angles, 1 - |z|**2,
    and delta = hypot(1/(2 (n_t - 1)), pi/n_phi), the farthest any point of
    the closed disk lies from the grid."""
    z = np.linspace(0.0, 1.0, n_t)[:, None] * np.exp(2j * np.pi * np.arange(n_phi) / n_phi)
    return z, 1.0 - np.abs(z) ** 2, math.hypot(1 / (2 * (n_t - 1)), math.pi / n_phi)


def phi_enclosure(a, b, c, k, n_t: int = 401, n_phi: int = 1024) -> tuple[float, float]:
    """(lower, upper) of Phi(a, b, c; k), the maximum over |z| <= 1 of
    |a + b z + c z**2| + k (1 - |z|**2), for complex a, b, c and k >= 0:
    the maximum over the polar grid, and that plus (|b| + 2|c| + 2k) delta,
    |b| + 2|c| + 2k bounding |d/dz| of the objective on the disk. Both ends
    are float values, a few ulps off."""
    z, ring, delta = _polar_grid(n_t, n_phi)
    lower = float(np.max(np.abs(a + z * (b + z * c)) + k * ring))
    return lower, lower + (abs(b) + 2 * abs(c) + 2 * k) * delta


def sharp_enclosure(par: ClassParams, mu: complex) -> tuple[float, float]:
    """(lower, upper) of the largest |a_3 - mu a_2**2| over the class at real
    or complex mu, max(2u + v, Phi(4E, 4F, 4G; 2u), Phi(4G, 4F, 4E; v)) /
    (3 sigma) with the bounds docstring's E, F and G at rho = mu sigma /
    tau**2: its homogeneity lemma, which holds for complex mu too, puts the
    maximum at the origin or on one of these two edges."""
    u, v = 1.0 - par.alpha, 1.0 - par.beta
    rho = mu * par.sigma / par.tau**2
    e = v + 2 * v * v - 3 * rho * v * v  # 4E, 4F and 4G
    f = 4 * u * v * (1 - 3 * rho / 2)
    g = 2 * u - 3 * rho * u * u
    edges = phi_enclosure(e, f, g, 2 * u), phi_enclosure(g, f, e, v)
    return tuple(max(2 * u + v, *ends) / (3 * par.sigma) for ends in zip(*edges))
