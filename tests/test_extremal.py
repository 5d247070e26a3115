"""Witness construction and the second-order transform."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import atom_measure, random_member, random_params
from fslab import (
    CaseRangeError,
    ClassParams,
    DomainError,
    bound_real,
    bound_sharp,
    breakpoints,
    extremal_config,
    extremal_member,
    fs_functional,
    libera_transform,
    membership_spotcheck,
    sharp_witness,
    sharpness_residual,
    transform_spotcheck,
)

P0 = ClassParams(0, 0, 0, 0)
PI = math.pi


# ----- configuration shapes -----

def test_config_case1():
    cfg = extremal_config(P0, 1)
    assert cfg.p_measure.atoms == ((1.0, 0.0),)
    assert cfg.q_measure.atoms == ((1.0, 0.0),)


def test_config_case3():
    cfg = extremal_config(P0, 3)
    assert cfg.p_measure.atoms == ((0.5, 0.0), (0.5, PI))
    assert cfg.p_measure == cfg.q_measure


def test_config_case4():
    cfg = extremal_config(P0, 4)
    assert cfg.p_measure.atoms == ((1.0, PI / 2),)


def test_config_case_validation():
    with pytest.raises(DomainError):
        extremal_config(P0, 5)
    with pytest.raises(CaseRangeError):
        extremal_config(P0, 2)  # needs mu


def test_case2_midpoint_weights():
    # classical parameters at mu = 1/2: c_1 = 2/3, so w = (2 + 2/3)/4 = 2/3
    cfg = extremal_config(P0, 2, 0.5)
    (w0, t0), (w1, t1) = cfg.p_measure.atoms
    assert abs(w0 - 2 / 3) < 1e-12 and t0 == 0.0
    assert abs(w1 - 1 / 3) < 1e-12 and abs(t1 - PI) < 1e-12
    assert cfg.q_measure.atoms == ((1.0, 0.0),)


def test_case2_degenerates_at_lower_end():
    mu1, _, _ = breakpoints(P0)
    cfg = extremal_config(P0, 2, mu1)
    assert cfg.p_measure.atoms == ((1.0, 0.0),)  # same witness as case 1


@pytest.mark.parametrize("mu", [0.9, 0.2, -1.0, 0.0])
def test_case2_rejects_out_of_window(mu):
    with pytest.raises(CaseRangeError):
        extremal_config(P0, 2, mu)


def test_case2_weight_monotone():
    # c_1 = 2(2w - 1) decreases strictly from 2 to 0 across the window
    mu1, mu2, _ = breakpoints(P0)
    mus = np.linspace(mu1 + 1e-6, mu2, 100)
    c1s = []
    for mu in mus:
        atoms = extremal_config(P0, 2, float(mu)).p_measure.atoms
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
            assert membership_spotcheck(m, radius=0.3, grid=32)


# ----- sharpness -----

def test_residual_vanishes_on_grid():
    rng = np.random.default_rng(61)
    for _ in range(50):
        par = random_params(rng)
        for mu in np.linspace(-2, 3, 21):
            r = sharpness_residual(par, float(mu))
            assert abs(r) < 1e-9


def test_residual_classical_spot_values():
    for mu in (0.0, 0.5, 0.75, 2.0):
        assert abs(sharpness_residual(P0, mu)) < 1e-12


def test_sharp_witness_attains_bound_sharp():
    # half of the draws sit past mu2, where the two-atom term beats the
    # paper's value about half the time, so both witness kinds are covered
    rng = np.random.default_rng(79)
    two_atom = 0
    for i in range(400):
        par = random_params(rng)
        _, mu2, mu3 = breakpoints(par)
        mu = float(rng.uniform(-2.0, 3.0) if i % 2 else rng.uniform(mu2, 2.0 * mu3))
        bound = bound_sharp(par, mu)
        two_atom += bound > bound_real(par, mu).value
        m = sharp_witness(par, mu, order=3)
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
        assert membership_spotcheck(m, radius=0.3, grid=32)


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


def test_transform_spotcheck_random_members():
    rng = np.random.default_rng(73)
    for _ in range(30):
        m = random_member(rng)
        assert transform_spotcheck(m, radius=0.3, grid=32)
    for bad in ({"radius": 0.7}, {"grid": 4}, {"grid": 0}):
        with pytest.raises(ValueError):
            transform_spotcheck(m, **bad)


def test_transform_of_koebe_member():
    from fslab import member_from_pq

    par = ClassParams(1.0, 1.0, 0, 0)  # tau = 3, sigma = 7
    m = member_from_pq(par, atom_measure(), atom_measure())
    big_a = libera_transform(m)
    # F lands back on the Koebe jet regardless of (lam, delta)
    np.testing.assert_allclose(
        np.asarray(big_a[:5], dtype=complex), [0, 1, 2, 3, 4], atol=1e-12
    )
