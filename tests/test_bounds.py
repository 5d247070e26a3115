"""Closed-form bound evaluation: branches, breakpoints, special cases."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import atom_measure, random_params, sample_measure
from hypothesis import given, settings
from hypothesis import strategies as st

from fslab import (
    ClassParams,
    DomainError,
    HerglotzMeasure,
    SearchBudget,
    bound_complex,
    bound_real,
    bound_sharp,
    breakpoints,
    caratheodory_bound,
    coeff_bounds,
    extremal_config,
    fs_functional,
    herglotz_coeffs,
    maximize_fs,
    member_from_pq,
    membership_spotcheck,
    sharp_witness,
    sharpness_residual,
    starlike_from_q,
    starlike_fs_bound,
)
from fslab.bounds import _branch, _grid_bounds, _psi, _rho

P0 = ClassParams(0, 0, 0, 0)
PMIX = ClassParams(0.5, 0.25, 0.25, 0.5)


# ----- breakpoints -----

def test_breakpoints_examples():
    np.testing.assert_allclose(breakpoints(P0), (1 / 3, 2 / 3, 1.0), rtol=1e-15)
    np.testing.assert_allclose(breakpoints(PMIX), (4 / 15, 2 / 3, 1.28), rtol=1e-15)


def test_breakpoints_ordered():
    rng = np.random.default_rng(17)
    for _ in range(500):
        mu1, mu2, mu3 = breakpoints(random_params(rng))
        assert 0 < mu1 < mu2 < mu3


# ----- the classical table -----

def test_classical_reduction_table():
    # mu: 0, 1/3, 2/3, 1, 2 -> 3, 5/3, 1, 1, 5 (ties resolve downward)
    for mu, want in [(0.0, 3.0), (1 / 3, 5 / 3), (2 / 3, 1.0), (1.0, 1.0), (2.0, 5.0)]:
        assert abs(bound_real(P0, mu).value - want) < 1e-12


def test_classical_middle_branch_sign():
    # 1/3 + 4/(9 mu) at mu = 1/2, not 1/3 - 4/(9 mu): the plus form is the
    # one explicit members reach (a two-atom p-measure gives 11/9 exactly)
    assert abs(bound_real(P0, 0.5).value - 11 / 9) < 1e-15
    minus_variant = 1 / 3 - 8 / 9
    assert bound_real(P0, 0.5).value > minus_variant + 1.0


def test_middle_branch_continuous_at_ends():
    assert abs(bound_real(P0, 1 / 3).value - 5 / 3) < 1e-14
    assert abs(bound_real(P0, 2 / 3).value - 1.0) < 1e-14


# ----- case selection and values -----

def test_mu_zero_general_params():
    r = bound_real(ClassParams(0.5, 0.25, 0, 0), 0.0)
    assert r.case_id == 1
    assert abs(r.scaled_value - 9.0) < 1e-14
    assert abs(r.value - 4 / 3) < 1e-14


def test_ties_go_to_lower_case():
    mu1, mu2, mu3 = breakpoints(PMIX)
    assert bound_real(PMIX, mu1).case_id == 1
    assert bound_real(PMIX, mu2).case_id == 2
    assert bound_real(PMIX, mu3).case_id == 3
    assert bound_real(PMIX, mu3 + 1e-12).case_id == 4


def test_bound_real_rejects_bad_mu():
    with pytest.raises(DomainError):
        bound_real(P0, 1j)
    with pytest.raises(DomainError):
        bound_real(P0, float("nan"))
    with pytest.raises(DomainError):
        bound_real(P0, float("inf"))


@pytest.mark.parametrize("mu", [np.complex64(1 + 1j), np.complex64(0.5)])
def test_numpy_complex_mu_is_rejected_not_projected(mu):
    # a numpy complex scalar is complex, as Python's complex is, even with a
    # zero imaginary part: no real route drops the imaginary part
    for route in (bound_real, bound_sharp):
        with pytest.raises(DomainError):
            route(P0, mu)
    with pytest.raises(DomainError):
        starlike_fs_bound(0.5, mu)
    assert bound_complex(PMIX, mu) == bound_complex(PMIX, complex(mu))


def test_numpy_real_mu_is_its_float():
    # a float32 mu is evaluated as the float it equals, not in float32
    for mu in np.linspace(-1, 3, 41, dtype=np.float32):
        x = float(mu)
        assert bound_real(PMIX, mu) == bound_real(PMIX, x)
        assert type(bound_real(PMIX, mu).scaled_value) is float
        assert bound_sharp(PMIX, mu) == bound_sharp(PMIX, x)
        assert starlike_fs_bound(0.5, mu) == starlike_fs_bound(0.5, x)


@pytest.mark.parametrize("mu", [True, np.True_, "0.5", "1+2j", None, np.array(0.5), 10**400])
@pytest.mark.parametrize("route", [bound_real, bound_sharp, bound_complex,
                                   lambda par, mu: maximize_fs(par, mu, SearchBudget(n_samples=1)),
                                   lambda par, nu: caratheodory_bound(nu)])
def test_non_number_mu_is_a_domain_error(route, mu):
    # as ClassParams does for its parameters: no bool, string, array or int
    # past the float range is read as a number
    with pytest.raises(DomainError, match="real or complex number"):
        route(PMIX, mu)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, complex(0, math.inf), complex(math.nan, 0)])
@pytest.mark.parametrize("route", [bound_real, bound_sharp, bound_complex,
                                   lambda par, mu: maximize_fs(par, mu, SearchBudget(n_samples=1)),
                                   lambda par, nu: caratheodory_bound(nu),
                                   lambda par, mu: starlike_fs_bound(0.5, mu),
                                   lambda par, mu: fs_functional(member_from_pq(par, atom_measure(), atom_measure()), mu),
                                   lambda par, mu: extremal_config(par, 2, mu),
                                   sharp_witness, sharpness_residual])
def test_non_finite_mu_is_a_domain_error(route, mu):
    # one check, members._scalar_mu, on every scalar route
    with pytest.raises(DomainError, match="finite"):
        route(PMIX, mu)


def test_branch_continuity_random_params():
    rng = np.random.default_rng(23)
    for _ in range(300):
        par = random_params(rng)
        mu1, mu2, mu3 = breakpoints(par)
        for mu, lo, hi in [(mu1, 1, 2), (mu2, 2, 3), (mu3, 3, 4)]:
            rho = _rho(par, mu)
            a = _branch(par, rho, lo)
            b = _branch(par, rho, hi)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_bound_positive():
    rng = np.random.default_rng(29)
    for _ in range(300):
        par = random_params(rng)
        for mu in np.linspace(-2, 3, 11):
            assert bound_real(par, float(mu)).value > 0


def test_outer_branch_slopes():
    # d(value)/d(mu) is -C**2/tau**2 in case 1 and +C**2/tau**2 in case 4
    rng = np.random.default_rng(31)
    for _ in range(20):
        par = random_params(rng)
        mu1, _, mu3 = breakpoints(par)
        c2t2 = (2 - par.alpha - par.beta) ** 2 / par.tau**2
        h = 1e-6
        for mu, sign in [(mu1 - 0.5, -1.0), (mu3 + 0.5, 1.0)]:
            slope = (bound_real(par, mu + h).value - bound_real(par, mu - h).value) / (2 * h)
            assert abs(slope - sign * c2t2) < 1e-6 * max(1.0, c2t2)


# ----- complex route -----

def test_complex_matches_real_at_zero():
    rng = np.random.default_rng(37)
    for _ in range(200):
        par = random_params(rng)
        assert abs(bound_complex(par, 0.0) - bound_real(par, 0.0).value) < 1e-12


def test_complex_frozen_value():
    # classical parameters at mu = i: terms 3 sqrt(2), 2 sqrt(3.25), 4 sqrt(3.25)
    want = (3 * math.sqrt(2) + 6 * math.sqrt(3.25)) / 3
    assert abs(bound_complex(P0, 1j) - want) < 1e-14
    assert abs(bound_complex(P0, 1j) - 5.019764837837084) < 1e-12


def test_complex_dominates_real():
    rng = np.random.default_rng(41)
    for _ in range(200):
        par = random_params(rng)
        mu = float(rng.uniform(-2, 3))
        assert bound_real(par, mu).value <= bound_complex(par, mu) + 1e-12


def test_complex_rejects_nonfinite():
    with pytest.raises(DomainError):
        bound_complex(P0, complex(float("nan"), 0))


# ----- sharp real-mu bound -----

def test_sharp_is_paper_value_on_cases_1_2():
    rng = np.random.default_rng(101)
    for _ in range(300):
        par = random_params(rng)
        mu1, mu2, _ = breakpoints(par)
        for mu in (-2.0, 0.0, float(rng.uniform(-2.0, mu1)), mu1,
                   float(rng.uniform(mu1, mu2)), mu2):
            assert bound_sharp(par, mu) == bound_real(par, mu).value


def test_sharp_is_paper_value_at_alpha_zero():
    # Koepf's classical result: at alpha = 0 the four-branch value is sharp
    rng = np.random.default_rng(103)
    for _ in range(300):
        lam = float(rng.random())
        par = ClassParams(lam, float(rng.random()) * lam, 0.0, float(rng.random()))
        for mu in (*breakpoints(par), *rng.uniform(-2.0, 6.0, 5)):
            assert bound_sharp(par, float(mu)) == bound_real(par, float(mu)).value


def test_sharp_between_paper_and_complex():
    rng = np.random.default_rng(107)
    for _ in range(500):
        par = random_params(rng)
        mu = float(rng.uniform(-2.0, 6.0))
        sharp = bound_sharp(par, mu)
        assert bound_real(par, mu).value <= sharp <= bound_complex(par, mu) + 1e-12


def test_sharp_pinned_counterexample():
    # the member of test_two_atom_member_exceeds_piecewise_value_in_window
    # reaches 0.68; bound_sharp is exactly that, not the paper's 0.65
    assert abs(bound_sharp(ClassParams(0, 0, 0.6, 0), 1.25) - 0.68) < 1e-12


def test_sharp_rejects_bad_mu():
    for mu in (1j, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            bound_sharp(P0, mu)


_unit = st.floats(0.0, 1.0 - 1e-9)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0),
    alpha=st.one_of(_unit, st.just(1.0 - 1e-9)),
    beta=st.one_of(_unit, st.just(1.0 - 1e-9)),
    mu=st.one_of(st.floats(-1e6, 1e6), st.sampled_from((0.0, 1.0, -1.0))),
    on_break=st.sampled_from((None, 0, 1, 2)),
)
def test_sharp_domain_edges(lam, frac, alpha, beta, mu, on_break):
    # alpha, beta -> 1, lam = delta = 1, mu on a breakpoint and |mu| large:
    # bound_sharp stays finite, positive and between the paper and complex routes
    par = ClassParams(lam, frac * lam, alpha, beta)
    if on_break is not None:
        mu = breakpoints(par)[on_break]
    sharp = bound_sharp(par, mu)
    paper = bound_real(par, mu).value
    assert math.isfinite(sharp) and sharp > 0.0
    assert paper <= sharp <= bound_complex(par, mu) * (1 + 1e-12) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0),
    alpha=st.one_of(_unit, st.sampled_from((0.0, 0.95, 1.0 - 2**-53))),
    beta=st.one_of(_unit, st.sampled_from((0.0, 0.95, 1.0 - 2**-53))),
    mus=st.lists(st.floats(-1e308, 1e308), max_size=8),
)
def test_grid_matches_scalar_routes(lam, frac, alpha, beta, mus):
    # the sweep's one array pass is bitwise the scalar routes, on the
    # breakpoints and an ulp either side of them too
    par = ClassParams(lam, frac * lam, alpha, beta)
    near = [float(np.nextafter(m, d)) for m in breakpoints(par) for d in (-np.inf, np.inf)]
    grid = np.array([*mus, *breakpoints(par), *near, 0.0, -0.0, 1.0])
    case_id, value, scaled, cb = _grid_bounds(par, grid)
    for i, mu in enumerate(grid.tolist()):
        rep = bound_real(par, mu)
        assert (case_id[i], value[i], scaled[i]) == (rep.case_id, rep.value, rep.scaled_value)
        assert cb[i] == bound_complex(par, mu)


# ----- helper quantities -----

def test_psi_examples():
    assert _psi(P0, 0.0) == 3.0
    assert _psi(P0, 0.5) == 1.5
    assert abs(_psi(PMIX, 0.0) - 3.0) < 1e-15  # tau**2 == sigma here


def test_coeff_bounds_examples():
    assert coeff_bounds(P0) == (2.0, 3.0)
    got = coeff_bounds(PMIX)
    assert abs(got[0] - 1.25 / 1.5) < 1e-15
    assert abs(got[1] - (2.0 * 2.0) / 6.75) < 1e-15


def test_functional_params_rho():
    # at alpha = beta = 0 case 1 reads A*B - 3 rho C**2 = 9 - 12 rho
    par = ClassParams(0.5, 0.25, 0, 0)
    rho = (9.0 - _branch(par, _rho(par, 0.5), 1)) / 12.0
    assert abs(rho - 0.5) < 1e-15  # sigma == tau**2
    with pytest.raises(DomainError):
        bound_real(P0, 1j)


# ----- quadratic functional over positive-real-part functions -----

def test_caratheodory_bound_attained():
    even = HerglotzMeasure(((0.5, 0.0), (0.5, math.pi)))  # (1+z^2)/(1-z^2)
    extreme = HerglotzMeasure(((1.0, 0.0),))  # (1+z)/(1-z)
    rng = np.random.default_rng(43)
    for _ in range(200):
        nu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        bnd = caratheodory_bound(nu)
        best = 0.0
        for m in (even, extreme):
            c = herglotz_coeffs(m, 2)
            best = max(best, abs(c[2] - nu * c[1] ** 2))
        assert abs(best - bnd) < 1e-12


def test_caratheodory_bound_is_inf_past_the_float_range():
    # 2 nu - 1 is finite here but its modulus is not, and abs() of it raises
    # OverflowError; the bound is inf, as bound_complex's is
    for nu in (8e307 + 8e307j, -8e307 + 8e307j):
        assert caratheodory_bound(nu) == math.inf


def test_caratheodory_rejects_nonfinite():
    with pytest.raises(DomainError):
        caratheodory_bound(complex(0, float("inf")))


# ----- starlike functional -----

def test_starlike_fs_examples():
    assert starlike_fs_bound(0.0, 0.0) == 3.0
    assert starlike_fs_bound(0.0, 1.0) == 1.0
    assert starlike_fs_bound(0.5, 0.0) == 1.0
    assert abs(starlike_fs_bound(0.0, 2.0) - 5.0) < 1e-15


def test_starlike_fs_attained():
    # the extreme q and the opposed-atom q realize the two max() regimes
    atom = HerglotzMeasure(((1.0, 0.0),))
    even = HerglotzMeasure(((0.5, 0.0), (0.5, math.pi)))
    rng = np.random.default_rng(47)
    for _ in range(100):
        beta = float(rng.uniform(0, 0.95))
        mu = float(rng.uniform(-1.5, 2.5))
        bnd = starlike_fs_bound(beta, mu)
        best = 0.0
        for q in (atom, even):
            b = starlike_from_q(herglotz_coeffs(q, 3), beta, 3)
            best = max(best, abs(b[3] - mu * b[2] ** 2))
        assert best <= bnd + 1e-12
        assert abs(best - bnd) < 1e-9


def test_starlike_fs_validation():
    with pytest.raises(DomainError):
        starlike_fs_bound(1.0, 0.5)
    with pytest.raises(DomainError):
        starlike_fs_bound(0.5, 1j)
    # beta is read as ClassParams reads its parameters: False is not 0
    for beta in ("0.5", False, np.False_, None, np.array(0.5), 10**400, 0.5j, math.inf):
        with pytest.raises(DomainError, match="need 0 <= beta < 1"):
            starlike_fs_bound(beta, 0.5)


# ----- sanity against actual members -----

def test_bound_not_beaten_on_first_two_cases():
    # soundness on mu <= mu2 only; cases 3-4 are exceeded for alpha > 0
    rng = np.random.default_rng(53)
    for _ in range(100):
        par = random_params(rng)
        mu2 = breakpoints(par)[1]
        m = member_from_pq(par, sample_measure(rng, 3), sample_measure(rng, 3), 3)
        for mu in (-1.0, 0.0, 0.25 * mu2, 0.8 * mu2, mu2):
            val = abs(fs_functional(m, mu))
            assert val <= bound_real(par, mu).value * (1 + 1e-9)


def test_bound_not_beaten_at_alpha_zero():
    # the alpha = 0 edge is sound for every mu, including cases 3-4
    rng = np.random.default_rng(54)
    for _ in range(100):
        lam = float(rng.uniform(0, 1))
        par = ClassParams(lam, float(rng.uniform(0, lam)), 0.0, float(rng.uniform(0, 0.95)))
        m = member_from_pq(par, sample_measure(rng, 3), sample_measure(rng, 3), 3)
        for mu in (-1.0, 0.5, 1.0, 1.5, 3.0):
            val = abs(fs_functional(m, mu))
            assert val <= bound_real(par, mu).value * (1 + 1e-9)


def test_two_atom_member_exceeds_piecewise_value_in_window():
    # pinned counterexample: the four-branch value is not an upper bound once
    # alpha > 0 and mu sits just past mu3. q concentrated at one angle, p split
    # evenly across +-arccos(0.7), exact functional value 0.68 vs value 0.65.
    par = ClassParams(0.0, 0.0, 0.6, 0.0)
    mu = 1.25
    rep = bound_real(par, mu)
    assert rep.case_id == 4
    phi = math.acos(0.7)
    member = member_from_pq(
        par,
        HerglotzMeasure(((0.5, -phi), (0.5, phi))),
        atom_measure(0.0),
        3,
    )
    val = abs(fs_functional(member, mu))
    assert abs(val - 0.68) < 1e-12
    assert abs(rep.value - 0.65) < 1e-12
    assert val > rep.value + 0.02
    # the member is genuinely in the class, and the triangle route still holds
    assert membership_spotcheck(member)
    assert bound_complex(par, mu) >= val
    # the excess dies out where case 4 merges with the triangle route; here
    # rho = mu and the merge point is max(4/3, 4/(3(1-alpha))) = 10/3
    rho_merge = max(4.0 / 3.0, 4.0 / (3.0 * (1.0 - par.alpha)))
    for mu_big in (rho_merge, rho_merge + 1.0, rho_merge + 5.0):
        assert abs(bound_real(par, mu_big).value - bound_complex(par, mu_big)) < 1e-12
