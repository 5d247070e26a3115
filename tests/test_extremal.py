"""Witness construction and the second-order transform."""

from __future__ import annotations

import math
import operator
from dataclasses import replace

import numpy as np
import pytest

from conftest import EDGE_PARAMS, atom_measure, random_member, random_params, spotcheck_verdicts
from fslab.extremal import _boundary_measure
from fslab import (
    CaseRangeError,
    ClassParams,
    DomainError,
    HerglotzMeasure,
    SearchBudget,
    bound_real,
    bound_sharp,
    breakpoints,
    extremal_config,
    extremal_member,
    fs_functional,
    herglotz_coeffs,
    libera_transform,
    maximize_fs,
    membership_spotcheck,
    sharp_witness,
    sharpness_residual,
    transform_spotcheck,
)

P0 = ClassParams(0, 0, 0, 0)
PI = math.pi


# ----- configuration shapes -----

def test_config_case1():
    p, q = extremal_config(P0, 1)
    assert p.atoms == ((1.0, 0.0),)
    assert q.atoms == ((1.0, 0.0),)


def test_config_case3():
    p, q = extremal_config(P0, 3)
    assert p.atoms == ((0.5, 0.0), (0.5, PI))
    assert p == q


def test_config_case4():
    p, _ = extremal_config(P0, 4)
    assert p.atoms == ((1.0, PI / 2),)


def test_config_pairs_equal_fresh_measures():
    rng = np.random.default_rng(53)
    atom0 = HerglotzMeasure(((1.0, 0.0),))
    fresh = {
        1: (atom0, atom0),
        3: (HerglotzMeasure(((0.5, 0.0), (0.5, PI))),) * 2,
        4: (HerglotzMeasure(((1.0, PI / 2.0),)),) * 2,
    }
    for par in (P0, *(random_params(rng) for _ in range(10))):
        mu1, mu2, _ = breakpoints(par)
        for case_id, pair in fresh.items():
            # one shared pair, whatever the parameters: measures are frozen
            got = extremal_config(par, case_id, 0.5)
            assert all(map(operator.is_, got, extremal_config(P0, case_id)))
            assert got == pair
        mu = 0.5 * (mu1 + mu2)
        p, q = extremal_config(par, 2, mu)
        assert q == atom0
        w = p.atoms[0][0]
        assert p == HerglotzMeasure(((w, 0.0), (1.0 - w, PI)))
        assert extremal_config(par, 2, mu1)[0] == atom0  # the case-1 witness


def test_config_case_validation():
    # a bool or float equal to a case id is no case id
    for case_id in (5, 0, True, 1.0, 3.0, "1", None):
        with pytest.raises(DomainError, match="^case_id must be 1..4, got "):
            extremal_config(P0, case_id)
    assert extremal_config(P0, np.int64(3)) == extremal_config(P0, 3)
    with pytest.raises(CaseRangeError):
        extremal_config(P0, 2)  # needs mu


def test_case2_midpoint_weights():
    # classical parameters at mu = 1/2: c_1 = 2/3, so w = (2 + 2/3)/4 = 2/3
    p, q = extremal_config(P0, 2, 0.5)
    (w0, t0), (w1, t1) = p.atoms
    assert abs(w0 - 2 / 3) < 1e-12 and t0 == 0.0
    assert abs(w1 - 1 / 3) < 1e-12 and abs(t1 - PI) < 1e-12
    assert q.atoms == ((1.0, 0.0),)


def test_case2_degenerates_at_lower_end():
    mu1, _, _ = breakpoints(P0)
    p, _ = extremal_config(P0, 2, mu1)
    assert p.atoms == ((1.0, 0.0),)  # same witness as case 1


@pytest.mark.parametrize("mu", [0.9, 0.2, -1.0, 0.0, 1j, 0.5 + 0j, np.complex64(0.5)])
def test_case2_rejects_out_of_window(mu):
    # complex mu (numpy's complex scalars too) is a CaseRangeError, not a
    # TypeError; a non-finite mu is a DomainError (tests/test_bounds.py)
    with pytest.raises(CaseRangeError):
        extremal_config(P0, 2, mu)


def test_float32_mu_is_its_float():
    # the case-2 witness and the residual are computed at the float a
    # float32 mu equals, not in float32
    par = ClassParams(0.3, 0.1, 0.2, 0.1)
    mu1, mu2, mu3 = breakpoints(par)
    for mu in np.linspace(mu1, mu2, 17, dtype=np.float32)[1:-1]:
        assert extremal_config(par, 2, mu) == extremal_config(par, 2, float(mu))
    for mu in np.linspace(mu1 - 1.0, mu3 + 1.0, 33, dtype=np.float32):
        got = sharpness_residual(par, mu)
        assert type(got) is float and got == sharpness_residual(par, float(mu))
        assert sharp_witness(par, mu) == sharp_witness(par, float(mu))


def test_case2_weight_monotone():
    # c_1 = 2(2w - 1) decreases strictly from 2 to 0 across the window
    mu1, mu2, _ = breakpoints(P0)
    mus = np.linspace(mu1 + 1e-6, mu2, 100)
    c1s = []
    for mu in mus:
        atoms = extremal_config(P0, 2, float(mu))[0].atoms
        w = atoms[0][0]
        c1s.append(2 * (2 * w - 1))
    assert all(x > y for x, y in zip(c1s, c1s[1:]))
    assert abs(c1s[0] - 2.0) < 1e-4
    assert abs(c1s[-1]) < 1e-12


# ----- witness members -----

def test_case1_witness_is_extreme():
    m = extremal_member(P0, 0.0, 1)
    assert abs(abs(fs_functional(m, 0.0)) - 3.0) < 1e-13


def test_case2_witness_values():
    m = extremal_member(P0, 0.5, 2)
    assert abs(m.a2 - 4 / 3) < 1e-13
    assert abs(m.a3 - 19 / 9) < 1e-13
    assert abs(fs_functional(m, 0.5) - 11 / 9) < 1e-13


def test_case3_witness_values():
    for params in (P0, ClassParams(0.6, 0.3, 0.2, 0.4)):
        m = extremal_member(params, 0.8, 3)
        assert abs(m.a2) < 1e-14
        want = 3 - 2 * params.alpha - params.beta
        assert abs(3 * params.sigma * m.a3 - want) < 1e-12


def test_case4_witness_values():
    m = extremal_member(P0, 2.0, 4)
    assert abs(m.a2 - 2j) < 1e-13
    assert abs(m.a3 + 3.0) < 1e-13
    assert abs(abs(fs_functional(m, 2.0)) - 5.0) < 1e-13


def test_witnesses_pass_membership():
    rng = np.random.default_rng(59)
    for _ in range(30):
        par = random_params(rng)
        mu1, mu2, _ = breakpoints(par)
        for case_id, mu in [(1, 0.0), (2, 0.5 * (mu1 + mu2)), (3, 0.9 * mu2 + 0.4), (4, 5.0)]:
            m = extremal_member(par, mu, case_id)
            assert membership_spotcheck(m)


# ----- sharpness -----

def test_residual_vanishes_on_grid():
    rng = np.random.default_rng(61)
    for _ in range(50):
        par = random_params(rng)
        for mu in np.linspace(-2, 3, 21):
            r = sharpness_residual(par, float(mu))
            assert abs(r) < 1e-9


def test_residual_is_the_order_n_witness_residual():
    # the residual's order-3 witness has bitwise the a_2 and a_3 of the
    # order-n one, on the breakpoints and an ulp either side of them too
    rng = np.random.default_rng(71)
    for par in (P0, *EDGE_PARAMS[:3], *(random_params(rng) for _ in range(20))):
        for bp in breakpoints(par):
            for mu in (bp, math.nextafter(bp, -math.inf), math.nextafter(bp, math.inf)):
                report = bound_real(par, mu)
                for n in range(3, 13):
                    witness = extremal_member(par, mu, report.case_id, n)
                    want = report.value - abs(fs_functional(witness, mu))
                    assert sharpness_residual(par, mu, n).hex() == want.hex()
    for order in (2, 3.5, 8.0, True, "8"):
        with pytest.raises(ValueError, match="order must be at least 3"):
            sharpness_residual(P0, 0.5, order)


def test_residual_classical_spot_values():
    for mu in (0.0, 0.5, 0.75, 2.0):
        assert abs(sharpness_residual(P0, mu)) < 1e-12


@pytest.mark.parametrize(
    "par,mu",
    [
        (P0, 1e308),  # inf - inf would be nan
        (P0, -1e308),
        (ClassParams(1.0, 1.0, 1 - 2**-52, 1 - 2**-52), 1e308),  # inf - finite
    ],
)
def test_residual_overflowing_bound_is_a_domain_error(par, mu):
    with pytest.raises(DomainError, match="the bound overflows"):
        sharpness_residual(par, mu)


def test_sharp_witness_attains_bound_sharp():
    # three draws in four sit past mu2, where the two-atom term beats the
    # paper's value about one time in eight, so both witness kinds are covered
    rng = np.random.default_rng(79)
    two_atom = 0
    for i in range(800):
        par = random_params(rng)
        _, mu2, mu3 = breakpoints(par)
        mu = float(rng.uniform(-2.0, 3.0) if i % 4 == 1 else rng.uniform(mu2, 2.0 * mu3))
        bound = bound_sharp(par, mu)
        two_atom += bound > bound_real(par, mu).value
        m = sharp_witness(par, mu)
        assert abs(bound - abs(fs_functional(m, mu))) <= 1e-12
    assert two_atom >= 50


def test_sharp_witness_pinned_counterexample():
    m = sharp_witness(ClassParams(0, 0, 0.6, 0), 1.25)
    assert m.q_measure.atoms == ((1.0, 0.0),)
    (w0, t0), (w1, t1) = m.p_measure.atoms
    assert w0 == w1 == 0.5
    assert abs(math.cos(t0) - 0.7) < 1e-12 and abs(math.cos(t1) - 0.7) < 1e-12
    assert abs(abs(fs_functional(m, 1.25)) - 0.68) < 1e-12


def test_sharp_witness_passes_membership():
    rng = np.random.default_rng(83)
    for _ in range(30):
        par = random_params(rng)
        _, mu2, mu3 = breakpoints(par)
        m = sharp_witness(par, float(rng.uniform(mu2, 2.0 * mu3)))
        assert membership_spotcheck(m)


def _sharp_draws(seed, n):
    """(params, mu) pairs on all four cases, half of them past mu2, with the
    edge parameters among them."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        par = EDGE_PARAMS[i % 4] if i % 10 == 0 else random_params(rng)
        _, mu2, mu3 = breakpoints(par)
        yield par, float(rng.uniform(-2.0, 3.0) if i % 2 else rng.uniform(mu2, 2.0 * mu3))


def test_sharp_witness_has_distinct_angles():
    # a two-atom term won by roundoff at x = 1 once gave p = {(1/2, 0), (1/2, 0)}
    for par, mu in _sharp_draws(89, 2000):
        m = sharp_witness(par, mu)
        for measure in (m.p_measure, m.q_measure):
            angles = [t for _, t in measure.atoms]
            assert len(set(angles)) == len(angles), (par, mu, measure)


def test_bound_sharp_is_bound_real_where_the_witness_is_the_case_witness():
    paper = 0
    for par, mu in _sharp_draws(97, 2000):
        report = bound_real(par, mu)
        m = sharp_witness(par, mu)
        pair = (m.p_measure, m.q_measure)
        if pair == extremal_config(par, report.case_id, mu):
            paper += 1
            assert bound_sharp(par, mu).hex() == report.value.hex(), (par, mu)
        else:
            assert bound_sharp(par, mu) > report.value, (par, mu)
    assert paper >= 1000


@pytest.mark.parametrize("zeta", [1.0, -1.0])
def test_boundary_measure_coefficients(zeta):
    # c_1 = 2x and c_2 = 2x**2 + 2(1 - x**2) zeta up to roundoff; the angle
    # 2 pi - acos x is stored to an ulp of 2 pi, and the largest error seen
    # on this grid is 2.2e-15 (in c_2 at zeta = -1); zeta = +1 reaches x = 1
    xs = np.linspace(-1.0, 1.0, 401)[1:] if zeta > 0 else np.linspace(-1.0, 1.0, 401)[1:-1]
    for x in map(float, xs):
        c1, c2 = herglotz_coeffs(_boundary_measure(x, zeta), 2)[1:]
        assert abs(c1 - 2.0 * x) <= 4e-15, x
        assert abs(c2 - (2.0 * x * x + 2.0 * (1.0 - x * x) * zeta)) <= 4e-15, x


# a 1 - alpha of 2.6e-8 puts roundoff of -8.6e-9 into case 2's c_1 at mu = mu2
NEAR_ONE = ClassParams(0.3950893773108496, 0.0, 0.9999999736028787, 0.0)


def test_case2_measure_is_the_written_out_weight():
    rng = np.random.default_rng(101)
    # near alpha = 1, where 1/(1 - alpha) amplifies the roundoff in c_1
    edge_rng = np.random.default_rng(102)
    near_one = [
        replace(random_params(edge_rng), alpha=1.0 - eps)
        for eps in (1e-8, 1e-12, 2.0**-52)
        for _ in range(10)
    ]
    for par in (P0, *EDGE_PARAMS, *(random_params(rng) for _ in range(50)), NEAR_ONE, *near_one):
        mu1, mu2, _ = breakpoints(par)
        for mu in (mu1, mu2, *map(float, rng.uniform(mu1, mu2, 20))):
            t2, s3 = par.tau**2, 3.0 * par.sigma
            c1 = 2.0 * (1.0 - par.beta) * (2.0 * t2 - s3 * mu) / (s3 * (1.0 - par.alpha) * mu)
            w = (2.0 + min(max(c1, 0.0), 2.0)) / 4.0
            want = ((1.0, 0.0),) if w >= 1.0 - 1e-12 else ((w, 0.0), (1.0 - w, PI))
            p, q = extremal_config(par, 2, mu)
            assert p.atoms == HerglotzMeasure(want).atoms, (par, mu)
            assert q.atoms == ((1.0, 0.0),)


def test_case2_witness_near_alpha_one():
    mu = breakpoints(NEAR_ONE)[1]
    assert mu == 0.7247970314550558 and bound_real(NEAR_ONE, mu).case_id == 2
    assert abs(sharpness_residual(NEAR_ONE, mu)) <= 1e-8
    bound = bound_sharp(NEAR_ONE, mu)
    assert abs(bound - abs(fs_functional(sharp_witness(NEAR_ONE, mu), mu))) <= 1e-12
    result = maximize_fs(NEAR_ONE, mu, SearchBudget(n_samples=200, n_refine=1))
    assert result.bound == bound_real(NEAR_ONE, mu).value and result.attained


# ----- transform -----

def test_transform_scales_first_coefficients():
    par = ClassParams(0.5, 0.25, 0, 0)  # tau = 1.5, sigma = 2.25
    rng = np.random.default_rng(67)
    m = random_member(rng, params=par)
    big_a = libera_transform(m)
    assert big_a[0] == 0 and abs(big_a[1] - 1.0) < 1e-15
    assert abs(big_a[2] - 1.5 * m.a2) < 1e-14
    assert abs(big_a[3] - 2.25 * m.a3) < 1e-14


def test_transform_identity_when_untransformed():
    rng = np.random.default_rng(71)
    m = random_member(rng, params=P0)
    big_a = libera_transform(m)
    np.testing.assert_allclose(
        np.asarray(big_a, dtype=complex), np.asarray(m.a, dtype=complex), atol=1e-15
    )


def test_transform_spotcheck_random_members(monkeypatch):
    # order 8, and orders 3, 60, 400 and 1000 with up to four atoms a
    # measure, each boolean the one numpy's polyval gives
    rng = np.random.default_rng(73)
    members = [random_member(rng) for _ in range(30)]
    members += [random_member(rng, order=n, max_atoms=4) for n in (3, 60, 400) for _ in range(6)]
    members.append(random_member(rng, order=1000, max_atoms=4))
    assert spotcheck_verdicts(monkeypatch, transform_spotcheck, members) == [(True, True)] * len(members)


def test_transform_of_koebe_member():
    from fslab import member_from_pq

    par = ClassParams(1.0, 1.0, 0, 0)  # tau = 3, sigma = 7
    m = member_from_pq(par, atom_measure(), atom_measure())
    big_a = libera_transform(m)
    # F lands back on the Koebe jet regardless of (lam, delta)
    np.testing.assert_allclose(
        np.asarray(big_a[:5], dtype=complex), [0, 1, 2, 3, 4], atol=1e-12
    )
