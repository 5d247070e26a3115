"""Member construction: parameters, measures, recurrences, closed form, rotation, spot checks."""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import astuple, replace
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest

import fslab.members
from conftest import (
    EDGE_PARAMS,
    atom_measure,
    capture_spotcheck_jets,
    random_member,
    random_params,
    rotate,
    sample_measure,
    shift_measure,
    spotcheck_verdicts,
)
from fslab import (
    ClassMember,
    ClassParams,
    DomainError,
    HerglotzMeasure,
    bound_complex,
    bound_real,
    bound_sharp,
    breakpoints,
    denominators,
    extremal_config,
    fs_functional,
    herglotz_coeffs,
    libera_transform,
    member_from_pq,
    membership_spotcheck,
    starlike_from_q,
    transform_spotcheck,
)
from fslab.extremal import _ATOM0, _HALF, _SIDE, _sharp_pair, extremal_member
from fslab.members import MAX_ATOMS, SPOTCHECK_TOL, _CIRCLE, _jet, _powers, _scalar_mu, _total
from fslab.search import (
    _c12,
    _coefficients,
    _draw_chunk,
    _evaluator,
    _folded,
    _held,
    _measure,
    _pair_value,
    _values,
)

PI = math.pi


# ----- parameters -----

def test_params_scale_factors():
    assert (ClassParams(0, 0, 0, 0).tau, ClassParams(0, 0, 0, 0).sigma) == (1.0, 1.0)
    p = ClassParams(0.5, 0.25, 0, 0)
    assert (p.tau, p.sigma) == (1.5, 2.25)
    p = ClassParams(1, 1, 0, 0)
    assert (p.tau, p.sigma) == (3.0, 7.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(lam=0.2, delta=0.3, alpha=0, beta=0),  # delta > lam
        dict(lam=1.1, delta=0, alpha=0, beta=0),
        dict(lam=0, delta=-0.1, alpha=0, beta=0),
        dict(lam=0, delta=0, alpha=1.0, beta=0),
        dict(lam=0, delta=0, alpha=0, beta=1.0),
        dict(lam=0, delta=0, alpha=-0.2, beta=0),
        dict(lam=float("nan"), delta=0, alpha=0, beta=0),
    ],
)
def test_params_validation(bad):
    with pytest.raises(DomainError):
        ClassParams(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        (True, False, 0.0, 0.0), (0.5, 0.0, np.bool_(False), 0.0), ("0.5", 0, 0, 0), (0.5j, 0, 0, 0),
        (None, 0, 0, 0), (10**400, 0, 0, 0), (0.5, 0, Fraction(-(10**400)), 0),
    ],
)
def test_params_reject_non_reals(bad):
    # a bool is an int to Python, but not a parameter; an int or a Fraction
    # past the float range is not finite as a float
    with pytest.raises(DomainError, match="parameters must be finite reals"):
        ClassParams(*bad)


def test_params_store_numpy_reals_as_float():
    par = ClassParams(np.float32(0.5), np.int64(0), np.float64(0.3), np.float16(0.25))
    plain = ClassParams(0.5, 0.0, 0.3, 0.25)
    assert par == plain and repr(par) == repr(plain)
    assert all(type(v) is float for v in astuple(par))
    assert ClassParams(np.int64(1), 1, 0, 0) == ClassParams(1.0, 1.0, 0.0, 0.0)
    for mu in (-1.5, 0.7, 2.0, 40.0):
        assert bound_real(par, mu) == bound_real(plain, mu)
        assert bound_complex(par, complex(mu, 1.0)) == bound_complex(plain, complex(mu, 1.0))


# ----- measures -----

def test_measure_renormalizes_tiny_drift():
    m = HerglotzMeasure(((0.5 + 2e-10, 0.0), (0.5, 1.0)))
    assert math.isclose(sum(w for w, _ in m.atoms), 1.0, abs_tol=1e-15)


def test_measure_rejects_large_drift():
    with pytest.raises(DomainError):
        HerglotzMeasure(((0.6, 0.0), (0.5, 1.0)))


def test_measure_rejects_bad_atoms():
    with pytest.raises(DomainError):
        HerglotzMeasure(((1.0, float("inf")),))
    with pytest.raises(DomainError):
        HerglotzMeasure(((-0.2, 0.0), (1.2, 1.0)))
    with pytest.raises(DomainError):
        HerglotzMeasure(tuple((0.2, 0.0) for _ in range(5)))
    with pytest.raises(DomainError):
        HerglotzMeasure(())
    # as ClassParams does: no string, bool, array, None or int or Fraction
    # past the float range is read as a weight or an angle
    for atoms in (
        (("0.5", 0), ("0.5", "1")), ((True, 0),), ((1.0, np.True_),), ((np.array(1.0), 0.0),),
        ((1.0, np.array(0.5)),), ((10**400, 0),), ((1.0, Fraction(10**400)),), ((None, 0),),
        ((1.0, None),), ((1.0, 0.5j),),
    ):
        with pytest.raises(DomainError, match="^non-finite atom data$"):
            HerglotzMeasure(atoms)


def test_measure_wraps_angles():
    m = HerglotzMeasure(((1.0, -PI),))
    assert abs(m.atoms[0][1] - PI) < 1e-12
    m = HerglotzMeasure(((1.0, 2 * PI),))
    assert m.atoms[0][1] == 0.0
    m = HerglotzMeasure(((1.0, -1e-20),))  # -1e-20 % (2 pi) rounds to 2 pi
    assert m.atoms[0][1] == 0.0


def test_measure_rebuild_is_a_fixed_point():
    # what lets a printed violation reproduce its member bit for bit; the
    # draws follow sample_measure, whose weights are normalized by a plain sum
    rng = np.random.default_rng(307)
    for _ in range(20_000):
        n = int(rng.integers(1, MAX_ATOMS + 1))
        w = 1.0 - rng.random(n)
        raw = tuple(zip(map(float, w / w.sum()), map(float, rng.uniform(0, 2 * PI, n))))
        m = HerglotzMeasure(raw)
        assert HerglotzMeasure(m.atoms) == m
        assert math.fsum(w for w, _ in m.atoms) == 1.0
        total = math.fsum(w for w, _ in raw)
        for (w0, _), (w1, _) in zip(raw, m.atoms):
            assert abs(w1 - w0 / total) <= 4 * math.ulp(w0 / total)


# ----- Herglotz coefficients -----

def test_atom_at_zero_gives_all_twos():
    c = herglotz_coeffs(atom_measure(0.0), 5)
    np.testing.assert_allclose(c, [1, 2, 2, 2, 2, 2], atol=1e-15)


def test_atom_at_quarter_turn():
    # (1 + iz)/(1 - iz): c_1 = 2i, c_2 = -2
    c = herglotz_coeffs(atom_measure(PI / 2), 2)
    assert abs(c[1] - 2j) < 1e-15 and abs(c[2] + 2) < 1e-15


def test_two_atom_example():
    m = HerglotzMeasure(((2 / 3, 0.0), (1 / 3, PI)))
    c = herglotz_coeffs(m, 2)
    assert abs(c[1] - 2 / 3) < 1e-15 and abs(c[2] - 2) < 1e-15


# counts are whole numbers: no float, bool or string, even one equal to a count
_NOT_COUNTS = [2.0, 3.5, True, np.bool_(True), "8", None]


@pytest.mark.parametrize("n", [0, -1, *_NOT_COUNTS])
def test_coeffs_need_a_positive_order(n):
    with pytest.raises(ValueError, match="^need n >= 1$"):
        herglotz_coeffs(atom_measure(0.0), n)


def test_coefficient_modulus_capped_at_two():
    rng = np.random.default_rng(11)
    for _ in range(500):
        m = sample_measure(rng, 4)
        c = herglotz_coeffs(m, 8)
        assert c[0] == 1
        assert max(abs(v) for v in c[1:]) <= 2.0 + 1e-12


def _ref_total(terms):
    """The terms added one by one from 0j, as builtin sum adds complex
    numbers on Python 3.10 to 3.13 (3.14 compensates them)."""
    total = 0j
    for t in terms:
        total = total + t
    return total


def _per_order_coeffs(measure: HerglotzMeasure, n: int) -> tuple[complex, ...]:
    """The reference recurrence: every atom's power rebuilt in one list per
    order, with the same products and sums as herglotz_coeffs' power chains."""
    units = [cmath.exp(1j * t) for _, t in measure.atoms]
    powers = [1.0 + 0.0j] * len(units)
    out = [1.0 + 0.0j]
    for _ in range(n):
        powers = [pw * u for pw, u in zip(powers, units)]
        out.append(2.0 * _ref_total([w * pw for (w, _), pw in zip(measure.atoms, powers)]))
    return tuple(out)


def _bits(values) -> list[tuple[str, str]]:
    # hex tells -0.0 from 0.0, which == does not
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def test_coeffs_match_the_per_order_recurrence():
    rng = np.random.default_rng(1009)
    angles = [0.0, -0.0, PI / 2, PI, 2 * PI, 3 * PI / 2, 5e-324, -1e-17, 1e6]
    edge = [atom_measure(t) for t in angles]
    edge += [HerglotzMeasure(((0.5, s), (0.5, t))) for s in angles for t in angles]
    edge += [
        HerglotzMeasure(tuple((0.25, float(t)) for t in rng.choice(angles, MAX_ATOMS)))
        for _ in range(50)
    ]
    measures = edge + [sample_measure(rng, MAX_ATOMS) for _ in range(300)]
    for m in measures:
        n = int(rng.integers(1, 40))
        assert _bits(herglotz_coeffs(m, n)) == _bits(_per_order_coeffs(m, n))
    for m in measures[:: len(measures) // 12]:
        assert _bits(herglotz_coeffs(m, 1000)) == _bits(_per_order_coeffs(m, 1000))


def test_c12_pairs_are_the_herglotz_coeffs():
    # the search's seeded floor (_pair_value) and its polish sum _c12 over
    # (w, exp(1j t)) pairs: on random measures and on the floor's own, the
    # search's _c12 is members' reference herglotz_coeffs, signed zeros included
    rng = np.random.default_rng(1013)
    measures = [_ATOM0, _HALF, _SIDE] + [sample_measure(rng, MAX_ATOMS) for _ in range(2000)]
    cases, window = set(), 0
    for _ in range(1000):  # the real-mu floor: every case, and x* on the defect window
        par = random_params(rng)
        measures += [*extremal_config(par, 1), *extremal_config(par, 3)]  # the complex-mu floor
        mu1, mu2, mu3 = breakpoints(par)
        for mu in (rng.uniform(-1.0, mu1), rng.uniform(mu1, mu2), rng.uniform(mu2, 2.0 * mu3)):
            report, p, q = _sharp_pair(par, float(mu))
            cases.add(report.case_id)
            window += bound_sharp(par, float(mu)) != report.value
            measures += [p, q]
    assert cases == {1, 2, 3, 4} and window >= 50
    for m in measures:
        pairs = _c12([(w, cmath.exp(1j * t)) for w, t in m.atoms])
        assert repr(pairs) == repr(herglotz_coeffs(m, 2)[1:]), m


@pytest.mark.parametrize(
    "coeffs,message",
    [
        ([], "a jet needs at least one coefficient"),
        ([1.0, math.nan], "non-finite jet coefficient"),
        ([0j, complex(1.0, -math.inf)], "non-finite jet coefficient"),
        ([1.0, 1e308 * 10.0], "non-finite jet coefficient"),  # an overflowed value
        ((v for v in [complex(1e308, 1e308) * 2]), "non-finite jet coefficient"),
    ],
)
def test_jet_errors(coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _jet(coeffs)


# ----- starlike factor -----

def test_starlike_koebe():
    q = herglotz_coeffs(atom_measure(0.0), 6)
    b = starlike_from_q(q, 0.0, 6)
    np.testing.assert_allclose(b, [0, 1, 2, 3, 4, 5, 6], atol=1e-12)


def test_starlike_low_order_closed_forms():
    # b_2 = 2(1-beta), b_3 = (1-beta)(3-2beta) for the extreme q
    q = herglotz_coeffs(atom_measure(0.0), 3)
    for beta in (0.0, 0.25, 0.5, 0.9):
        b = starlike_from_q(q, beta, 3)
        assert abs(b[2] - 2 * (1 - beta)) < 1e-14
        assert abs(b[3] - (1 - beta) * (3 - 2 * beta)) < 1e-14


def test_starlike_needs_enough_q_coefficients():
    with pytest.raises(ValueError):
        starlike_from_q((1.0, 2.0), 0.0, 3)


@pytest.mark.parametrize("n", [0, -1, *_NOT_COUNTS])
def test_starlike_needs_a_positive_order(n):
    with pytest.raises(ValueError, match="^need n >= 1$"):
        starlike_from_q(herglotz_coeffs(atom_measure(0.0), 3), 0.0, n)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -0.5, 1.0, "x", None, True, 0.5j])
def test_starlike_needs_beta_in_the_class(beta):
    # starlike_fs_bound's check: 0 <= beta < 1 as a finite real
    with pytest.raises(DomainError, match="^need 0 <= beta < 1, got "):
        starlike_from_q((1, 2, 2, 2), beta, 3)


def test_member_build_reads_the_checked_params_beta(monkeypatch):
    # ClassParams checks beta once; a member build does not check it again,
    # while starlike_from_q, which takes a raw beta, still does
    params = ClassParams(0.3, 0.1, 0.2, 0.4)
    want = member_from_pq(params, atom_measure(1.0), atom_measure(2.0))

    def refuse(beta):
        raise DomainError(f"need 0 <= beta < 1, got {beta!r}")

    monkeypatch.setattr(fslab.members, "_starlike_beta", refuse)
    assert member_from_pq(params, atom_measure(1.0), atom_measure(2.0)) == want
    with pytest.raises(DomainError, match="^need 0 <= beta < 1, got 0.4$"):
        starlike_from_q(want.qk, 0.4, 8)
    with pytest.raises(DomainError, match="^need 0 <= beta < 1, got "):
        ClassParams(0.3, 0.1, 0.2, 0.4)


@pytest.mark.parametrize("beta", [1.0, -0.5, 1.5])
def test_params_and_starlike_share_the_beta_message(beta):
    for build in (lambda: ClassParams(0, 0, 0, beta), lambda: starlike_from_q((1, 2, 2, 2), beta, 3)):
        with pytest.raises(DomainError, match=f"^need 0 <= beta < 1, got {beta}$"):
            build()


# ----- denominators -----

def test_denominators_examples():
    p = ClassParams(0, 0, 0, 0)
    assert denominators(p, 4) == (0.0, 1.0, 2.0, 3.0, 4.0)
    p = ClassParams(0.5, 0.25, 0, 0)
    d = denominators(p, 3)
    assert d[1] == 1.0 and d[2] == 3.0 and d[3] == 6.75
    assert d[2] == 2 * p.tau and d[3] == 3 * p.sigma
    # D_1 = 1 exactly, where 1 - lam + delta + (lam - delta) rounds to 1 - 2**-53
    for lam, delta in ((0.3, 0.1), (0.3, 0.2)):
        p = ClassParams(lam, delta, 0, 0)
        assert denominators(p, 1) == (0.0, 1.0)
        assert libera_transform(member_from_pq(p, atom_measure(), atom_measure()))[1] == 1


@pytest.mark.parametrize("n", [0, -1, *_NOT_COUNTS])
def test_denominators_need_a_positive_order(n):
    with pytest.raises(ValueError, match="^need n >= 1$"):
        denominators(ClassParams(0, 0, 0, 0), n)


def test_denominators_positive_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = denominators(random_params(rng), 8)
        assert all(v > 0 for v in d[1:])


# ----- the jet caches -----

_HERGLOTZ, _DENOMINATORS = fslab.members._herglotz, fslab.members._denominators


def _hexes(values) -> list[str]:
    return [v.hex() for v in values]


def _clear_jet_caches():
    _HERGLOTZ.cache_clear()
    _DENOMINATORS.cache_clear()


def test_cached_jets_are_the_uncached_bits():
    # cold and warm: every cached jet is bitwise the one computed afresh,
    # for the extremal constants and random measures, at every low order and
    # at order 1000
    rng = np.random.default_rng(1019)
    measures = [_ATOM0, _HALF, _SIDE] + [sample_measure(rng, MAX_ATOMS) for _ in range(20)]
    tuples = EDGE_PARAMS + [random_params(rng) for _ in range(20)]
    orders = [*range(1, 13), 1000]
    _clear_jet_caches()
    for _ in range(2):
        for n in orders:
            for m in measures:
                assert _bits(herglotz_coeffs(m, n)) == _bits(_HERGLOTZ.__wrapped__(m.atoms, n))
            for par in tuples:
                want = _DENOMINATORS.__wrapped__(par.lam, par.delta, n)
                assert _hexes(denominators(par, n)) == _hexes(want)
    # 0.0 == -0.0, so a signed zero finds the other zero's entry, and no D_k
    # can tell them apart
    for lam in (0.0, 0.5, 1.0):
        signed = (-0.0 if lam == 0.0 else lam, -0.0)
        for n in (3, 8):
            _clear_jet_caches()
            cached = denominators(ClassParams(lam, 0.0, 0, 0), n)
            assert denominators(ClassParams(*signed, 0, 0), n) is cached
            assert _hexes(cached) == _hexes(_DENOMINATORS.__wrapped__(*signed, n))


def test_repeated_jets_are_one_tuple():
    # an equal measure or parameter tuple built anew finds the same entry
    par = ClassParams(0.3, 0.1, 0.2, 0.1)
    for m in (_ATOM0, _HALF, sample_measure(np.random.default_rng(5), 3)):
        c = herglotz_coeffs(m, 8)
        assert herglotz_coeffs(m, 8) is c
        assert herglotz_coeffs(HerglotzMeasure(m.atoms), 8) is c
    d = denominators(par, 8)
    assert denominators(par, 8) is d
    assert denominators(ClassParams(*astuple(par)), 8) is d
    # members share the cached jets
    member = member_from_pq(par, _ATOM0, _SIDE)
    assert member.c is herglotz_coeffs(_ATOM0, 8) and member.qk is herglotz_coeffs(_SIDE, 8)
    assert member.d is d


def test_cached_orders_still_check_their_type():
    # True == 1 and 2.0 == 2 hash as their ints, and "8" is no count: each
    # still fails _whole's check after the int key is cached
    par = ClassParams(0.3, 0.1, 0.2, 0.1)
    for n in (1, 2, 8):
        herglotz_coeffs(_ATOM0, n)
        denominators(par, n)
    for bad in (True, 2.0, "8"):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            herglotz_coeffs(_ATOM0, bad)
        with pytest.raises(ValueError, match="^need n >= 1$"):
            denominators(par, bad)
    # numpy's integers are counts, and find the int entry
    assert herglotz_coeffs(_ATOM0, np.int64(8)) is herglotz_coeffs(_ATOM0, 8)
    assert denominators(par, np.int64(8)) is denominators(par, 8)


def test_other_measures_bypass_the_cache():
    # only a HerglotzMeasure's atoms are known to be free of -0.0 and NaN
    class Atoms:
        atoms = ((0.5, 0.0), (0.5, math.pi))

    _clear_jet_caches()
    got = herglotz_coeffs(Atoms(), 8)
    assert _HERGLOTZ.cache_info().currsize == 0
    assert _bits(got) == _bits(herglotz_coeffs(_HALF, 8))


def test_jet_caches_stay_bounded():
    rng = np.random.default_rng(1021)
    for _ in range(1000):
        herglotz_coeffs(sample_measure(rng, MAX_ATOMS), 8)
        denominators(random_params(rng), 8)
    for cache in (_HERGLOTZ, _DENOMINATORS):
        info = cache.cache_info()
        assert info.maxsize == 16 and info.currsize <= info.maxsize


# ----- member construction -----

def test_koebe_member():
    p0 = ClassParams(0, 0, 0, 0)
    m = member_from_pq(p0, atom_measure(), atom_measure())
    np.testing.assert_allclose(m.a[:5], [0, 1, 2, 3, 4], atol=1e-12)
    assert abs(fs_functional(m, 1.0) + 1.0) < 1e-14


def test_opposed_atoms_kill_a2():
    half = HerglotzMeasure(((0.5, 0.0), (0.5, PI)))
    for params in (ClassParams(0, 0, 0, 0), ClassParams(0.7, 0.2, 0.3, 0.6)):
        m = member_from_pq(params, half, half)
        assert abs(m.a2) < 1e-14
        want = 3 - 2 * params.alpha - params.beta
        assert abs(3 * params.sigma * m.a3 - want) < 1e-12


def test_member_recurrence_identities():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = random_member(rng)
        par = m.params
        lhs2 = 2 * par.tau * m.a2
        rhs2 = m.b[2] + (1 - par.alpha) * m.c[1]
        assert abs(lhs2 - rhs2) < 1e-12
        lhs3 = 3 * par.sigma * m.a3
        rhs3 = m.b[3] + (1 - par.alpha) * m.b[2] * m.c[1] + (1 - par.alpha) * m.c[2]
        assert abs(lhs3 - rhs3) < 1e-12


def test_member_order_floor():
    par = ClassParams(0, 0, 0, 0)
    for order in (2, *_NOT_COUNTS):
        for build in (lambda: member_from_pq(par, atom_measure(), atom_measure(), order),
                      lambda: extremal_member(par, 0.5, 1, order)):
            with pytest.raises(ValueError, match="^order must be at least 3$"):
                build()
    # numpy's integers are counts
    assert member_from_pq(par, atom_measure(), atom_measure(), np.int64(3)).order == 3


# ----- the closed form of a_2 and a_3 -----

def test_closed_form_matches_member_from_pq():
    # the search's exact pass on drawn uniforms, its one closed form
    # (_evaluator) with either side moving, the held terms and the seeds' floor
    # against full construction from the measures _measure
    # decodes, 20 parameter tuples x 100 measure pairs x 2 values of mu
    rng = np.random.default_rng(211)
    tuples = EDGE_PARAMS + [random_params(rng) for _ in range(16)]
    worst = 0.0
    for par in tuples:
        coef = _coefficients(par)
        u = _draw_chunk(rng, 100, MAX_ATOMS)
        ps, qs = ([_measure(side[:, i], MAX_ATOMS) for i in range(100)] for side in u)
        polish = [_c12([(w, cmath.exp(1j * t)) for w, t in m.atoms]) for m in ps + qs]
        for mu in (float(rng.uniform(-2, 4)), complex(rng.uniform(-2, 4), rng.uniform(-2, 2))):
            values = _values(_folded(coef, mu), u, MAX_ATOMS, np.float64)
            for i, (p, q) in enumerate(zip(ps, qs)):
                m = member_from_pq(par, p, q, 3)
                ref = abs(fs_functional(m, mu))
                held = _held(coef, 0, polish[i]), _held(coef, 1, polish[100 + i])
                (uc1, uc2), (b2, b3) = held
                for got, want in (
                    (uc1, (1.0 - par.alpha) * m.c[1]),
                    (uc2, (1.0 - par.alpha) * m.c[2]),
                    (b2, m.b[2]),
                    (b3, m.b[3]),
                    (_evaluator(coef, mu, 0, held[1])(*polish[i]), ref),
                    (_evaluator(coef, mu, 1, held[0])(*polish[100 + i]), ref),
                    (values[i], ref),
                    (_pair_value(coef, mu, p, q), ref),
                ):
                    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 2e-15, worst


def test_fs_functional_at_a_numpy_scalar_mu_is_the_python_scalars():
    # a numpy scalar mu is computed as the Python float or complex it
    # equals, not in numpy's precision (float32 gave complex64 0.5666144)
    member = extremal_member(ClassParams(0.3, 0.1, 0.2, 0.1), None, 1)
    for mu in (np.float32(0.5), np.float32(0.1), np.float16(0.3), np.float16(-2.5),
               np.complex64(0.5 + 0.25j), np.complex64(0.1 - 1.3j), np.float64(0.1)):
        got = fs_functional(member, mu)
        want = fs_functional(member, complex(mu) if np.iscomplexobj(mu) else float(mu))
        assert type(got) is complex and type(want) is complex
        assert got == want, (mu, got, want)
    assert fs_functional(member, np.float32(0.5)) == 0.5666143625757851


class _Float(float):
    pass


class _Complex(complex):
    pass


def _abc_routes(mu):
    """mu as numpy's scalar and as a subclass instance: neither is an exact
    float or complex, so _scalar_mu reads them through its ABC checks."""
    if type(mu) is complex:
        return np.complex128(mu), _Complex(mu)
    return np.float64(mu), _Float(mu)


@pytest.mark.parametrize("mu", [1.25, -0.0, 5e-324, 1e308, 1 + 2j, complex(-0.0, 0.0)])
def test_scalar_mu_exact_types_read_as_their_abc_route(mu):
    # an exact float or complex skips the ABC checks and comes back as it
    # is; every route returns the same type and bits
    assert type(_scalar_mu(mu)) is type(mu) and repr(_scalar_mu(mu)) == repr(mu)
    for other in _abc_routes(mu):
        got = _scalar_mu(other)
        assert type(got) is type(mu) and repr(got) == repr(mu), other


@pytest.mark.parametrize("mu", [math.nan, math.inf, complex(0.0, math.inf)])
def test_scalar_mu_non_finite_is_one_error_on_every_route(mu):
    for v in (mu, *_abc_routes(mu)):
        with pytest.raises(DomainError) as err:
            _scalar_mu(v)
        assert str(err.value) == f"mu must be finite, got {mu!r}", v
    for v in (True, np.bool_(True)):
        with pytest.raises(DomainError, match="mu must be a real or complex number"):
            _scalar_mu(v)


def test_total_adds_left_to_right_from_its_start():
    # no compensation and no reordering: bit for bit a left-to-right reduce,
    # signed zeros included, where an exactly rounded sum differs
    floats = [1e100, 1.0, -1e100, 0.1, 0.2, 0.3]
    assert math.fsum(floats) != reduce(add, floats, 0.0)
    for start in (0.0, -0.0):
        assert _total(floats, start).hex() == reduce(add, floats, start).hex()
        assert _total([-0.0], start).hex() == reduce(add, [-0.0], start).hex()
    complexes = [complex(-0.0, -0.0), complex(1e100, -0.0), complex(1.0, 0.5), complex(-1e100, -0.0)]
    for terms in (complexes, complexes[:1]):
        for start in (0j, complex(-0.0, -0.0)):
            got, want = _total(terms, start), reduce(add, terms, start)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


# ----- rotation -----

def test_rotate_tail_coefficients():
    got = rotate((1, 2, 3), PI)
    np.testing.assert_allclose(got, [1, -2, 3], atol=1e-15)


def test_rotate_composes():
    rng = np.random.default_rng(9)
    tail = tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    one = rotate(rotate(tail, 0.4), 1.1)
    two = rotate(tail, 1.5)
    np.testing.assert_allclose(one, two, atol=1e-13)


def test_rotated_koebe_functional():
    p0 = ClassParams(0, 0, 0, 0)
    r = member_from_pq(
        p0, shift_measure(atom_measure(), PI / 4), shift_measure(atom_measure(), PI / 4)
    )
    # phi_mu picks up e^{2 i theta}: at theta = pi/4, mu = 1 the -1 becomes -i
    assert abs(fs_functional(r, 1.0) + 1j) < 1e-12


def test_rotate_member_matches_coefficient_rule():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = random_member(rng)
        theta = float(rng.uniform(0, 2 * PI))
        r = member_from_pq(
            m.params,
            shift_measure(m.p_measure, theta),
            shift_measure(m.q_measure, theta),
            m.order,
        )
        want = rotate(m.a[1:], theta)
        np.testing.assert_allclose(r.a[1:], want, atol=1e-10)


def test_shift_measure_wraps():
    m = shift_measure(atom_measure(PI), 1.5 * PI)
    assert abs(m.atoms[0][1] - PI / 2) < 1e-12


# ----- membership spot check -----

def test_spotcheck_accepts_constructed_members(monkeypatch):
    # order 8 as the benchmark builds them, and the power tables of orders
    # 3, 60, 400 and 1000 (whose last powers underflow to 0), each boolean
    # the one numpy's polyval gives
    rng = np.random.default_rng(21)
    members = [random_member(rng) for _ in range(40)]
    members += [random_member(rng, order=n, max_atoms=MAX_ATOMS) for n in (3, 60, 400) for _ in range(6)]
    members.append(random_member(rng, order=1000, max_atoms=MAX_ATOMS))
    assert spotcheck_verdicts(monkeypatch, membership_spotcheck, members) == [(True, True)] * len(members)


# Floors under the minimum of (Re(N_n/g_n) - alpha) / (1 - alpha) on the
# circle for a member of order n. The exact ratio's minimum is at least
# Re p >= 0.7 / 1.3 = 0.538; truncation moves it lower: the lowest minima that
# a Nelder-Mead search over two atoms each for p and q found (60 starts) were
# 0.190, 0.317 and 0.532 at orders 3, 4 and 8.
_SPOTCHECK_FLOORS = {3: 0.15, 4: 0.3, 8: 0.5}


def test_spotcheck_margin_holds_at_low_orders():
    # N_n = alpha g_n + (1 - alpha)(g p)_n exactly, so the normalized minimum
    # does not depend on alpha: members built at alpha = 0 and checked as if
    # alpha were the floor pass exactly where their minimum exceeds the floor
    # (less SPOTCHECK_TOL). One-atom p and q at eight angles each on beta = 0,
    # where g is a rotated Koebe function, and random measures and beta
    rng = np.random.default_rng(36)
    angles = [k * PI / 4 for k in range(8)]
    for order, floor in _SPOTCHECK_FLOORS.items():
        members = [
            member_from_pq(ClassParams(lam, delta, 0.0, 0.0), atom_measure(s), atom_measure(t), order)
            for lam, delta in ((0, 0), (0.5, 0), (0.5, 0.5), (1, 0), (1, 0.5), (1, 1))
            for s in angles for t in angles
        ]
        for _ in range(300):
            members.append(random_member(rng, replace(random_params(rng), alpha=0.0), order, MAX_ATOMS))
        for m in members:
            at_floor = replace(m, params=replace(m.params, alpha=floor))
            for check in (membership_spotcheck, transform_spotcheck):
                assert check(at_floor), (order, m.params, m.p_measure, m.q_measure)


def test_spotcheck_circle_is_fixed():
    # 64 points on |z| = 0.3, shared by every spot check and never written
    want = 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert _CIRCLE.tobytes() == want.tobytes()
    assert not _CIRCLE.flags.writeable
    with pytest.raises(ValueError):
        _CIRCLE[0] = 0.0


def _ref_csum(terms):
    return complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))


def _ref_member(params, p, q, order):
    # member_from_pq term by term: one generator or list per sum
    c, qk = _per_order_coeffs(p, order), _per_order_coeffs(q, order)
    v = 1.0 - params.beta
    b = [0.0, 1.0]
    for k in range(2, order + 1):
        acc = _ref_total([qk[j] * b[k - j] for j in range(1, k)])
        b.append(v * acc / (k - 1))
    d = denominators(params, order)
    u = 1.0 - params.alpha
    mix = [params.alpha * complex(k == 0) + u * ck for k, ck in enumerate(c)]
    g = tuple(map(complex, b))
    a = (0.0 + 0.0j, 1.0 + 0.0j) + tuple(
        _ref_csum([g[j] * mix[k - j] for j in range(k + 1)]) / d[k] for k in range(2, order + 1)
    )
    return c, qk, tuple(b), a


def test_member_and_spotcheck_kernels_are_the_per_term_sums(monkeypatch):
    # the exact sums may take their terms in any form, but every product,
    # and every signed zero, is the per-term reference's
    rng = np.random.default_rng(29)
    quarter = [HerglotzMeasure(((1.0, t),)) for t in (0.0, PI / 2, PI, 3 * PI / 2)]
    measures = [
        *quarter,
        HerglotzMeasure(((0.5, 0.0), (0.5, PI))),
        HerglotzMeasure(((0.25, PI / 2), (0.75, 3 * PI / 2))),
        HerglotzMeasure(tuple((0.25, t) for t in (0.0, PI / 2, PI, 3 * PI / 2))),
        *(sample_measure(rng, n) for n in range(1, MAX_ATOMS + 1) for _ in range(2)),
    ]
    params = [ClassParams(0, 0, 0, 0), ClassParams(0.3, 0.1, 0, 0.4), ClassParams(0.3, 0.1, 0.2, 0),
              *EDGE_PARAMS, random_params(rng)]
    jets = capture_spotcheck_jets(monkeypatch)
    polyval = np.polynomial.polynomial.polyval
    for order in (3, 8, 60):
        for i, par in enumerate(params):
            for j, p in enumerate(measures):
                q = measures[(i + 3 * j) % len(measures)]
                m = member_from_pq(par, p, q, order)
                c, qk, b, a = _ref_member(par, p, q, order)
                for got, want in ((m.a, a), (m.b, b), (m.c, c), (m.qk, qk)):
                    assert _bits(got) == _bits(want), (order, par, p, q)
                    assert list(map(type, got)) == list(map(type, want))
                jets.clear()
                verdicts = [membership_spotcheck(m), transform_spotcheck(m)]
                assert len(jets) == 2
                for verdict, (top, g) in zip(verdicts, jets):
                    # the check's product on the captured jets rounds
                    # otherwise than Horner's recurrence, within a few ulps
                    # of the terms' sizes on the circle
                    n = len(top)
                    both = (np.array((top, g)).view(np.float64) @ _powers(n)).view(np.complex128)
                    for vals, jet in zip(both, (top, g)):
                        bound = 4 * n * 2**-52 * sum(abs(r) * 0.3**k for k, r in enumerate(jet))
                        err = np.abs(vals - polyval(_CIRCLE, np.asarray(jet))).max()
                        assert err <= bound, (order, par, p, q)
                    want = (polyval(_CIRCLE, np.asarray(top)) / polyval(_CIRCLE, np.asarray(g))).real
                    assert (verdict, bool(want.min() > par.alpha - SPOTCHECK_TOL)) == (True, True)


def _fake_member_with_constant_c(value: float, order: int) -> ClassMember:
    # raw coefficient data that no probability measure on the circle produces
    params = ClassParams(0, 0, 0, 0)
    q = atom_measure()
    c = (1.0,) + (complex(value),) * order
    qk = herglotz_coeffs(q, order)
    b = starlike_from_q(qk, params.beta, order)
    d = denominators(params, order)
    # D_k a_k = [z^k] g p at alpha = 0; every term is a small integer, so the
    # plain sum is exact
    a = (0j, 1 + 0j) + tuple(
        sum(b[j] * c[k - j] for j in range(k + 1)) / d[k] for k in range(2, order + 1)
    )
    return ClassMember(params, q, q, c, qk, b, a, d)


def test_spotcheck_rejects_non_measure_data():
    # c_k = 5 for every k is no measure's data (|c_k| <= 2 for those): at
    # z = -0.3 on the spot checks' circle, Re p = 1 - 5 (0.3 / 1.3) < 0 puts
    # the ratio below alpha = 0. c_k = 3 keeps Re p = 1 - 3 (0.3 / 1.3) > 0,
    # so the check reads the data, not the size of the coefficients
    for order in (8, 9, 10):
        assert membership_spotcheck(_fake_member_with_constant_c(5.0, order)) is False
        assert membership_spotcheck(_fake_member_with_constant_c(3.0, order)) is True


# hand-built members: coefficient data that did not come from member_from_pq
_MEMBER = member_from_pq(ClassParams(0.3, 0.1, 0.2, 0.4), atom_measure(), atom_measure())


def test_spotcheck_rejects_non_finite_coefficients():
    bad = replace(_MEMBER, a=_MEMBER.a[:3] + (complex("nan"),) + _MEMBER.a[4:])
    # finite data whose quotient by a normalized g overflows
    huge = replace(_MEMBER, a=(0j, 1.5e308 + 0j) + _MEMBER.a[2:])
    # a finite quotient, 1.7e308 + 1e308 z at lam = delta = 0 over g = z,
    # whose value at z = 0.3 is past DBL_MAX: no warning, a ValueError
    plain = member_from_pq(ClassParams(0, 0, 0, 0), atom_measure(), atom_measure())
    tail = (0j,) * (plain.order - 2)
    past = replace(plain, b=(0j, 1 + 0j, *tail, 0j), a=(0j, 1.7e308 + 0j, 0.5e308 + 0j, *tail))
    # as large a quotient, 1e308 + 1e308 z, whose values are finite
    near = replace(past, a=(0j, 1e308 + 0j, 0.5e308 + 0j, *tail))
    for check in (membership_spotcheck, transform_spotcheck):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for member in (bad, huge, past):
                with pytest.raises(ValueError):
                    check(member)
            assert check(near) is True


def test_spotcheck_rejects_near_singular_g():
    # the class normalizes g to b_1 = 1 exactly, and the spot checks divide
    # by no other g: not by one whose b_1 is near 0, nor by one a bit from
    # 1, where the division itself would be harmless
    for b1 in (1e-13, 1.0 + 2**-52):
        flat = replace(_MEMBER, b=(0.0, b1) + _MEMBER.b[2:])
        for check in (membership_spotcheck, transform_spotcheck):
            with pytest.raises(DomainError, match="b_1 = 1"):
                check(flat)
