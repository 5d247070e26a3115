"""Randomized maximization: determinism, attainment, violation detection."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fslab.search
from conftest import EDGE_PARAMS, random_params, sample_measure
from fslab import (
    ClassParams,
    DomainError,
    SearchBudget,
    ViolationError,
    bound_real,
    breakpoints,
    fs_functional,
    maximize_fs,
    member_from_pq,
    membership_spotcheck,
    verify_inequality,
)
from fslab.members import MAX_ATOMS

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
    with pytest.raises(ViolationError) as info:
        verify_inequality(par, 1.25, SMALL)
    # the error carries the member that beat the bound
    exc = info.value
    assert exc.params == par and exc.mu == 1.25
    member = member_from_pq(exc.params, exc.p_measure, exc.q_measure)
    assert abs(fs_functional(member, exc.mu)) == r.best_value
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


@pytest.mark.parametrize("chunk", [1, 7, 2048, SMALL.n_samples])
@pytest.mark.parametrize("mu", [1.25, complex(0.4, -0.8)])
def test_chunk_size_is_invisible(monkeypatch, chunk, mu):
    # at both mu a random sample beats the seeded floor, so the result
    # depends on the random phase
    par = ClassParams(0.0, 0.0, 0.6, 0.0)

    def run():
        r = maximize_fs(par, mu, SMALL)
        return r.best_value, r.evaluations, r.best_member.p_measure, r.best_member.q_measure

    reference = run()
    monkeypatch.setattr(fslab.search, "_CHUNK", chunk)
    assert run() == reference
    assert reference[1] >= SMALL.n_samples


@pytest.mark.parametrize("par", [P0, ClassParams(0.3, 0.1, 0.2, 0.1), *EDGE_PARAMS])
@pytest.mark.parametrize("mu", [0.5, 1.7, complex(0.5, 1.0)])
def test_best_value_is_the_members_functional(par, mu):
    budget = SearchBudget(n_samples=100, n_refine=1, max_atoms=3, seed=3)
    r = maximize_fs(par, mu, budget)
    assert r.best_value == abs(fs_functional(r.best_member, mu))
    assert r.margin == r.bound - r.best_value


def _padded(measures):
    """(weights, angles), each (len(measures), MAX_ATOMS), zero-padded."""
    w = np.zeros((len(measures), MAX_ATOMS))
    t = np.zeros((len(measures), MAX_ATOMS))
    for i, m in enumerate(measures):
        for j, (wj, tj) in enumerate(m.atoms):
            w[i, j], t[i, j] = wj, tj
    return w, t


def test_closed_form_matches_member_from_pq():
    # the batched kernel and the one-pair form against full construction,
    # 20 parameter tuples x 100 measure pairs x 2 values of mu
    from fslab.search import _a2_a3, _batch_values, _c12, _pair_value

    rng = np.random.default_rng(211)
    tuples = EDGE_PARAMS + [random_params(rng) for _ in range(16)]
    worst = 0.0
    for par in tuples:
        ps = [sample_measure(rng, MAX_ATOMS) for _ in range(100)]
        qs = [sample_measure(rng, MAX_ATOMS) for _ in range(100)]
        (pw, pt), (qw, qt) = _padded(ps), _padded(qs)
        a2r, a2i, a3r, a3i = _a2_a3(
            par, _c12(zip(pw.T, pt.T), np.cos, np.sin), _c12(zip(qw.T, qt.T), np.cos, np.sin)
        )
        for mu in (float(rng.uniform(-2, 4)), complex(rng.uniform(-2, 4), rng.uniform(-2, 2))):
            values = _batch_values(par, mu, pw, pt, qw, qt)
            for i, (p, q) in enumerate(zip(ps, qs)):
                m = member_from_pq(par, p, q, 3)
                ref = abs(fs_functional(m, mu))
                for got, want in (
                    (complex(a2r[i], a2i[i]), m.a2),
                    (complex(a3r[i], a3i[i]), m.a3),
                    (values[i], ref),
                    (_pair_value(par, mu, p, q), ref),
                ):
                    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 2e-15, worst


def test_seeded_floor_evaluates_each_case_once():
    # at the classical parameters mu = 1/2 admits all four cases; the one
    # random sample is the fifth evaluation
    r = maximize_fs(P0, 0.5, SearchBudget(n_samples=1, n_refine=0))
    assert r.evaluations == 5
    r = maximize_fs(P0, 0.5j, SearchBudget(n_samples=1, n_refine=0))
    assert r.evaluations == 4  # case 2 needs real mu


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_seeded_floor_reaches_the_paper_value(case_id):
    # without rotated copies the seeds alone still attain bound_real in
    # every case, so sharpness never rests on the random phase
    rng = np.random.default_rng(400 + case_id)
    floor = SearchBudget(n_samples=1, n_refine=0)
    for _ in range(100):
        par = random_params(rng)
        mu1, mu2, mu3 = breakpoints(par)
        lo, hi = {1: (mu1 - 2.0, mu1), 2: (mu1, mu2), 3: (mu2, mu3), 4: (mu3, mu3 + 2.0)}[case_id]
        mu = float(rng.uniform(lo, hi))
        report = bound_real(par, mu)
        if report.case_id != case_id:  # uniform() may return lo itself
            continue
        r = maximize_fs(par, mu, floor)
        assert r.best_value >= report.value * (1.0 - 1e-12), (par, mu)


def test_refinement_only_improves():
    base = SearchBudget(n_samples=200, n_refine=0, max_atoms=3, seed=11)
    more = SearchBudget(n_samples=200, n_refine=2, max_atoms=3, seed=11)
    v0 = maximize_fs(ClassParams(0.3, 0.1, 0.2, 0.1), 0.4, base).best_value
    v2 = maximize_fs(ClassParams(0.3, 0.1, 0.2, 0.1), 0.4, more).best_value
    assert v2 >= v0


# ----- verification wrapper -----

def test_verify_returns_the_search_result():
    assert verify_inequality(P0, 0.5, SMALL) == maximize_fs(P0, 0.5, SMALL)


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
