"""End-to-end acceptance checks.

Each test is one numbered criterion. Every criterion prints a single
PASS/FAIL line with its elapsed time (visible under pytest -s) and then
asserts, so the suite doubles as a human-readable report:

    1 classical-table        the fully reduced bound hits the known table
    2 branch-continuity      adjacent branches agree at every breakpoint
    3 sharpness              witnesses attain the bound across the domain
    4 middle-branch-sign     search confirms the continuous middle branch
    5 soundness-sweep        no sampled member exceeds the sharp real-mu bound
    6 route-domination       the complex route dominates the piecewise one
    7 coefficient-caps       all building-block coefficient bounds hold
    8 rotation-covariance    the functional rotates by exactly e^{2 i theta}
    9 transform-consistency  the second-order transform rescales as claimed

Tolerances are frozen here on purpose; loosening one is a library bug.

Criterion 5 sweeps bound_sharp, not the paper's four-branch value: that
value is exceeded by genuine class members on a case-3/4 window whenever
alpha > 0 (pinned counterexample in tests/test_bounds.py, full story in the
bounds module docstring and README). The sweep still counts the members
above the paper's value and asserts that each lies where bound_sharp exceeds
it, so the paper's value is checked as sound wherever it is the sharp one
and its defect stays visible in the report.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import random_member, random_params, rotate, sample_measure
from fslab import (
    ClassParams,
    HerglotzMeasure,
    SearchBudget,
    bound_complex,
    bound_real,
    bound_sharp,
    breakpoints,
    caratheodory_bound,
    fs_functional,
    herglotz_coeffs,
    libera_transform,
    maximize_fs,
    member_from_pq,
    sharpness_residual,
    transform_spotcheck,
)
from fslab.bounds import _branch, _rho

P0 = ClassParams(0, 0, 0, 0)


def _report(num: int, name: str, ok: bool, t0: float) -> float:
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({name}, {elapsed:.2f}s)")
    return elapsed


def _param_grid():
    for lam in np.linspace(0.0, 1.0, 5):
        for frac in np.linspace(0.0, 1.0, 5):
            for alpha in np.linspace(0.0, 0.8, 5):
                for beta in np.linspace(0.0, 0.8, 5):
                    yield ClassParams(float(lam), float(frac * lam), float(alpha), float(beta))


def test_criterion_1():
    """Fully reduced bound matches the classical table to 1e-12, < 1s."""
    t0 = time.perf_counter()
    table = [(0.0, 3.0), (1 / 3, 5 / 3), (2 / 3, 1.0), (1.0, 1.0), (2.0, 5.0)]
    errs = [abs(bound_real(P0, mu).value - want) for mu, want in table]
    ok = max(errs) <= 1e-12
    elapsed = _report(1, "classical-table", ok, t0)
    assert ok, f"table errors {errs}"
    assert elapsed < 1.0


def test_criterion_2():
    """Branch agreement at each breakpoint within 1e-9 over 1e4 random
    parameter draws, plus strict breakpoint ordering, < 5s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    ordered = True
    for _ in range(10_000):
        par = random_params(rng)
        mu1, mu2, mu3 = breakpoints(par)
        ordered &= 0.0 < mu1 < mu2 < mu3
        for mu, lo, hi in ((mu1, 1, 2), (mu2, 2, 3), (mu3, 3, 4)):
            rho = _rho(par, mu)
            worst = max(worst, abs(_branch(par, rho, lo) - _branch(par, rho, hi)))
    ok = ordered and worst <= 1e-9
    elapsed = _report(2, "branch-continuity", ok, t0)
    assert ok, f"ordered={ordered}, worst breakpoint mismatch {worst}"
    assert elapsed < 5.0


def test_criterion_3():
    """Witness members attain the bound: |residual| <= 1e-8 over 1e3 random
    (parameters, mu) draws with mu in [-2, 3], < 10s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(333)
    worst = 0.0
    for _ in range(1_000):
        par = random_params(rng)
        mu = float(rng.uniform(-2.0, 3.0))
        worst = max(worst, abs(sharpness_residual(par, mu)))
    ok = worst <= 1e-8
    elapsed = _report(3, "sharpness", ok, t0)
    assert ok, f"worst |residual| {worst}"
    assert elapsed < 10.0


def test_criterion_4():
    """Default search at the fully reduced parameters, mu = 1/2, finds 11/9
    to 1e-9; that value also refutes the minus-sign middle branch, whose
    prediction is only 5/9, < 5s."""
    t0 = time.perf_counter()
    r = maximize_fs(P0, 0.5, SearchBudget())
    ok = abs(r.best_value - 11 / 9) <= 1e-9 and r.best_value > 5 / 9
    elapsed = _report(4, "middle-branch-sign", ok, t0)
    assert ok, f"best {r.best_value}, bound {r.bound}, margin {r.margin}"
    assert elapsed < 5.0


def test_criterion_5():
    """Soundness: 625 parameter tuples x 100 sampled members x 21 mu values,
    no member value exceeds bound_sharp beyond relative 1e-9, and every value
    above the paper's bound_real (same tolerance) lies at a (params, mu)
    where bound_sharp > bound_real, < 60s."""
    t0 = time.perf_counter()
    mus = np.linspace(-2.0, 3.0, 21)
    violations = 0
    paper_excess = 0
    unexplained = 0
    idx = 0
    for par in _param_grid():
        rng = np.random.default_rng((777, idx))
        idx += 1
        a2s = np.empty(100, dtype=complex)
        a3s = np.empty(100, dtype=complex)
        for j in range(100):
            m = member_from_pq(par, sample_measure(rng, 3), sample_measure(rng, 3), 3)
            a2s[j], a3s[j] = m.a2, m.a3
        sharp = np.array([bound_sharp(par, float(mu)) for mu in mus])
        paper = np.array([bound_real(par, float(mu)).value for mu in mus])
        vals = np.abs(a3s[:, None] - mus[None, :] * a2s[:, None] ** 2)
        above_paper = vals > paper[None, :] * (1.0 + 1e-9)
        violations += int(np.sum(vals > sharp[None, :] * (1.0 + 1e-9)))
        paper_excess += int(np.sum(above_paper))
        unexplained += int(np.sum(above_paper & (sharp <= paper)[None, :]))
    ok = violations == 0 and unexplained == 0
    name = (
        f"soundness-sweep: {violations} above bound_sharp, "
        f"{paper_excess} above bound_real"
    )
    elapsed = _report(5, name, ok, t0)
    assert violations == 0, (
        f"{violations} member values exceeded bound_sharp, the sharp real-mu bound"
    )
    assert unexplained == 0, (
        f"{unexplained} of the {paper_excess} member values above the paper's "
        "four-branch value lie where bound_sharp equals it, so the paper's "
        "value fails outside its known case-3/4 window (alpha > 0)"
    )
    assert elapsed < 60.0


def test_criterion_6():
    """The any-mu route dominates the piecewise real route on the same grid
    (slack 1e-12) and agrees with it exactly at mu = 0 (within 1e-12)."""
    t0 = time.perf_counter()
    mus = np.linspace(-2.0, 3.0, 21)
    ok = True
    worst_gap = 0.0
    for par in _param_grid():
        for mu in mus:
            r = bound_real(par, float(mu)).value
            c = bound_complex(par, float(mu))
            ok &= r <= c + 1e-12
            if mu == 0.0:
                worst_gap = max(worst_gap, abs(r - c))
    ok = ok and worst_gap <= 1e-12
    elapsed = _report(6, "route-domination", ok, t0)
    assert ok, f"domination failed or mu=0 gap {worst_gap}"


def test_criterion_7():
    """Coefficient caps over 1e4 random members: |c_n| <= 2 and |q_n| <= 2,
    |b_2| <= 2(1-beta), |b_3| <= (1-beta)(3-2beta), tau |a_2| <= 2-alpha-beta,
    3 sigma |a_3| <= (3-2alpha-beta)(3-2beta), all with slack 1e-10; and the
    quadratic functional over positive-real-part functions stays within its
    bound and attains it on the two extremal functions."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7777)
    slack = 1e-10
    ok = True
    c1s = np.empty(10_000, dtype=complex)
    c2s = np.empty(10_000, dtype=complex)
    for i in range(10_000):
        m = random_member(rng)
        par = m.params
        tails = [max(abs(v) for v in seq[1:]) for seq in (m.c, m.qk)]
        ok &= max(tails) <= 2.0 + slack
        ok &= abs(m.b[2]) <= 2.0 * (1 - par.beta) + slack
        ok &= abs(m.b[3]) <= (1 - par.beta) * (3 - 2 * par.beta) + slack
        ok &= par.tau * abs(m.a2) <= (2 - par.alpha - par.beta) + slack
        ok &= 3 * par.sigma * abs(m.a3) <= (3 - 2 * par.alpha - par.beta) * (3 - 2 * par.beta) + slack
        c1s[i], c2s[i] = m.c[1], m.c[2]
    atom = herglotz_coeffs(HerglotzMeasure(((1.0, 0.0),)), 2)
    even = herglotz_coeffs(HerglotzMeasure(((0.5, 0.0), (0.5, math.pi))), 2)
    for _ in range(50):
        nu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        bnd = caratheodory_bound(nu)
        ok &= bool(np.all(np.abs(c2s - nu * c1s**2) <= bnd + slack))
        reached = max(abs(c[2] - nu * c[1] ** 2) for c in (atom, even))
        ok &= abs(reached - bnd) <= slack
    elapsed = _report(7, "coefficient-caps", ok, t0)
    assert ok
    assert elapsed < 60.0


def test_criterion_8():
    """Rotating a member multiplies the functional by exactly e^{2 i theta}:
    100 random members x 16 angles x real and complex mu, error <= 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(888)
    mus = (-1.0, 0.5, 2.0, 1j, 0.5 - 0.25j)
    worst = 0.0
    for _ in range(100):
        m = random_member(rng)
        base = {mu: fs_functional(m, mu) for mu in mus}
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            tail = rotate(m.a[1:], float(theta))
            phase = complex(math.cos(2 * theta), math.sin(2 * theta))
            for mu in mus:
                rotated = tail[2] - mu * tail[1] ** 2
                worst = max(worst, abs(rotated - phase * base[mu]))
    ok = worst <= 1e-12
    elapsed = _report(8, "rotation-covariance", ok, t0)
    assert ok, f"worst rotation mismatch {worst}"


def test_criterion_9():
    """The second-order transform satisfies A_2 = tau a_2 and A_3 = sigma a_3
    to 1e-14 on 1e3 random members, and every transformed member passes the
    positive-real-part grid check."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(999)
    ok = True
    worst = 0.0
    for _ in range(1_000):
        m = random_member(rng)
        big_a = libera_transform(m)
        worst = max(
            worst,
            abs(big_a[2] - m.params.tau * m.a2),
            abs(big_a[3] - m.params.sigma * m.a3),
        )
        ok &= transform_spotcheck(m)
    ok = ok and worst <= 1e-14
    elapsed = _report(9, "transform-consistency", ok, t0)
    assert ok, f"worst transform mismatch {worst}"
    assert elapsed < 60.0
