"""Randomized maximization: determinism, attainment, violation detection."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fslab.search
from conftest import random_params
from fslab import (
    ClassParams,
    DomainError,
    SearchBudget,
    ViolationError,
    breakpoints,
    maximize_fs,
    membership_spotcheck,
    sample_measure,
    verify_inequality,
)

P0 = ClassParams(0, 0, 0, 0)
SMALL = SearchBudget(n_samples=300, n_refine=1, max_atoms=3, seed=7)


# ----- sampling -----

def test_sample_measure_deterministic():
    a = sample_measure(np.random.default_rng(99), 3)
    b = sample_measure(np.random.default_rng(99), 3)
    assert a == b


def test_sample_measure_valid():
    rng = np.random.default_rng(101)
    for _ in range(500):
        m = sample_measure(rng, 4)
        assert 1 <= len(m.atoms) <= 4
        assert abs(sum(w for w, _ in m.atoms) - 1.0) < 1e-12
        assert all(w > 0 for w, _ in m.atoms)
        assert all(0 <= t < 2 * math.pi for _, t in m.atoms)


def test_budget_validation():
    with pytest.raises(DomainError):
        SearchBudget(n_samples=0)
    with pytest.raises(DomainError):
        SearchBudget(n_refine=-1)
    with pytest.raises(DomainError):
        SearchBudget(max_atoms=0)
    with pytest.raises(DomainError):
        SearchBudget(max_atoms=9)
    with pytest.raises(DomainError):
        SearchBudget(seed=-1)


# ----- attainment -----

@pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
def test_seeded_floor_attains(mu):
    r = maximize_fs(P0, mu, SMALL)
    assert r.margin >= -1e-9 * max(1.0, r.bound)
    assert r.best_value >= r.bound - 1e-9


def test_attains_for_general_params():
    # mu capped at mu2: past it the piecewise value can be exceeded (alpha > 0)
    # and margin stops being a pure attainment gauge
    rng = np.random.default_rng(103)
    for _ in range(5):
        par = random_params(rng)
        mu = float(rng.uniform(-1, breakpoints(par)[1]))
        r = maximize_fs(par, mu, SMALL)
        assert abs(r.margin) <= 1e-6 * max(1.0, r.bound)


def test_search_beats_piecewise_value_on_window():
    # past mu3 with alpha > 0 the sampler outruns the four-branch value; the
    # seeded witness attains 0.65 but random pairs reach 0.68 (see bounds
    # module docstring), so verify reports a violation rather than attainment
    par = ClassParams(0, 0, 0.6, 0)
    r = maximize_fs(par, 1.25, SMALL)
    assert r.bound == pytest.approx(0.65, abs=1e-12)
    assert r.best_value > r.bound + 0.02
    with pytest.raises(ViolationError):
        verify_inequality(par, 1.25, SMALL)
    # same point, triangle route: sound, not attained
    rep = verify_inequality(par, complex(1.25), SMALL)
    assert rep.margin > 0


def test_best_member_is_a_member():
    r = maximize_fs(P0, 0.5, SMALL)
    assert membership_spotcheck(r.best_member, radius=0.3, grid=32)
    assert r.best_member.order >= 3


def test_evaluation_count_floor():
    r = maximize_fs(P0, 0.5, SMALL)
    assert r.evaluations >= SMALL.n_samples


# ----- determinism -----

def test_bitwise_repeatable():
    a = maximize_fs(P0, 0.7, SMALL)
    b = maximize_fs(P0, 0.7, SMALL)
    assert a.best_value == b.best_value
    assert a.best_member.p_measure == b.best_member.p_measure
    assert a.best_member.q_measure == b.best_member.q_measure


def test_refinement_only_improves():
    base = SearchBudget(n_samples=200, n_refine=0, max_atoms=3, seed=11)
    more = SearchBudget(n_samples=200, n_refine=2, max_atoms=3, seed=11)
    v0 = maximize_fs(ClassParams(0.3, 0.1, 0.2, 0.1), 0.4, base).best_value
    v2 = maximize_fs(ClassParams(0.3, 0.1, 0.2, 0.1), 0.4, more).best_value
    assert v2 >= v0


# ----- verification wrapper -----

def test_verify_attains_real_mu():
    rep = verify_inequality(P0, 0.5, SMALL)
    assert rep.attained
    assert rep.margin >= -1e-9
    assert abs(rep.bound - 11 / 9) < 1e-12


def test_verify_complex_mu_valid_not_attained():
    # the triangle-inequality route is only known to be an upper bound
    rep = verify_inequality(P0, 1j, SMALL)
    assert rep.margin > 0
    assert not rep.attained


def test_verify_raises_on_violation(monkeypatch):
    # force an absurdly small bound so the seeded witnesses exceed it
    def tiny_bound(params, mu):
        real = fslab.search.bound_complex(params, complex(mu))
        return type("R", (), {"value": real * 1e-3})()

    monkeypatch.setattr(fslab.search, "bound_real", tiny_bound)
    with pytest.raises(ViolationError):
        verify_inequality(P0, 0.5, SMALL)
