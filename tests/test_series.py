"""Truncated series arithmetic: frozen examples plus structural properties."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fslab import (
    NearSingular,
    PowerSeries,
    ps_derivative,
    ps_div,
    ps_linear,
    ps_mul,
    ps_shift,
)


def coeffs(series: PowerSeries) -> np.ndarray:
    return np.asarray(series.coeffs)


# Oracle for the product z/(1-z)^2 * (1+z)/(1-z) = z(1+z)(1-z)^{-3}:
# (1-z)^{-3} has coefficients C(k+2, 2), so the product's k-th coefficient is
# C(k+1, 2) + C(k, 2) = k^2.
def _square_coeff(k: int) -> int:
    return math.comb(k + 1, 2) + math.comb(k, 2)


def test_mul_koebe_times_halfplane():
    g = PowerSeries((0, 1, 2, 3))
    p = PowerSeries((1, 2, 2, 2))
    got = coeffs(ps_mul(g, p))
    want = [_square_coeff(k) for k in range(4)]
    assert want == [0, 1, 4, 9]
    np.testing.assert_allclose(got, want, atol=0)


def test_mul_identity():
    a = PowerSeries((1, 2, 2, 2))
    one = PowerSeries((1, 0, 0, 0))
    assert ps_mul(a, one).coeffs == a.coeffs


def test_mul_truncates_to_smaller_order():
    a = PowerSeries((1, 1, 1, 1, 1))
    b = PowerSeries((1, 1))
    assert ps_mul(a, b).order == 1


def test_linear_mixes_constant_with_series():
    # alpha + (1 - alpha) p at alpha = 1/2 for p = 1 + 2z + 2z^2
    one = PowerSeries((1, 0, 0))
    p = PowerSeries((1, 2, 2))
    got = ps_linear(0.5, one, 0.5, p)
    np.testing.assert_allclose(coeffs(got), [1, 1, 1], atol=0)


def test_derivative_drops_order():
    got = ps_derivative(PowerSeries((0, 1, 0, 0)))
    np.testing.assert_allclose(coeffs(got), [1, 0, 0], atol=0)
    assert ps_derivative(PowerSeries((5,))).coeffs == (0.0,)


def test_derivative_of_koebe_jet():
    got = ps_derivative(PowerSeries((0, 1, 2, 3)))
    np.testing.assert_allclose(coeffs(got), [1, 4, 9], atol=0)


def test_shift_multiplies_by_power_of_z():
    got = ps_shift(PowerSeries((1, 2)), 2)
    np.testing.assert_allclose(coeffs(got), [0, 0, 1, 2], atol=0)
    with pytest.raises(ValueError):
        ps_shift(PowerSeries((1,)), -1)


def test_div_halfplane_series():
    # (1+z)/(1-z) = 1 + 2z + 2z^2 + 2z^3, by long division:
    # q0 = 1, q1 = 1 - (-1) = 2, q2 = 0 - (-2) = 2, q3 = 2
    got = ps_div(PowerSeries((1, 1, 0, 0)), PowerSeries((1, -1, 0, 0)))
    np.testing.assert_allclose(coeffs(got), [1, 2, 2, 2], atol=0)


def test_div_rejects_near_zero_leading_coefficient():
    with pytest.raises(NearSingular):
        ps_div(PowerSeries((1, 1)), PowerSeries((1e-13, 1)))


def test_non_finite_coefficients_rejected():
    with pytest.raises(ValueError):
        PowerSeries((1.0, float("nan")))
    with pytest.raises(ValueError):
        PowerSeries((complex(float("inf"), 0), 1.0))
    with pytest.raises(ValueError):
        PowerSeries(())


_coeff = st.complex_numbers(
    max_magnitude=4.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
)
_series = st.lists(_coeff, min_size=1, max_size=17).map(lambda cs: PowerSeries(tuple(cs)))


@given(_series, _series)
@settings(max_examples=150, deadline=None)
def test_mul_commutative_bitwise(a, b):
    # exactly rounded coefficient sums make the order of factors irrelevant
    assert ps_mul(a, b).coeffs == ps_mul(b, a).coeffs


@given(_series, _series, _series)
@settings(max_examples=100, deadline=None)
def test_mul_associative_scale_aware(a, b, c):
    lhs = coeffs(ps_mul(ps_mul(a, b), c))
    rhs = coeffs(ps_mul(a, ps_mul(b, c)))
    # tolerance follows the a-priori roundoff bound: the difference in
    # coefficient k is a few ulps of B_k = sum |a_i||b_j||c_l| over i+j+l=k
    absprod = np.convolve(np.convolve(np.abs(coeffs(a)), np.abs(coeffs(b))), np.abs(coeffs(c)))
    scale = np.maximum(1.0, absprod[: len(lhs)])
    assert np.all(np.abs(lhs - rhs) <= 1e-14 * scale)


_tail = st.complex_numbers(
    max_magnitude=0.25, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


@given(
    st.lists(_coeff, min_size=1, max_size=9),
    st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.lists(_tail, min_size=0, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_mul_div_roundtrip(a_coeffs, b0, b_tail):
    a = PowerSeries(tuple(a_coeffs))
    b = PowerSeries((b0,) + tuple(b_tail))
    back = ps_mul(b, ps_div(a, b))
    n = min(a.order, b.order)
    diff = np.abs(coeffs(back) - coeffs(a)[: n + 1])
    assert np.all(diff <= 1e-10 * np.maximum(1.0, np.abs(coeffs(a)[: n + 1])))


@given(_series, _series)
@settings(max_examples=100, deadline=None)
def test_derivative_product_rule(a, b):
    lhs = ps_derivative(ps_mul(a, b))
    rhs = ps_linear(1.0, ps_mul(ps_derivative(a), b), 1.0, ps_mul(a, ps_derivative(b)))
    # differentiating the truncated product loses its top index, so only
    # indices below min(order) of the inputs are faithful on the left
    n = min(a.order, b.order) - 1
    assume(n >= 0)
    n = min(n, lhs.order, rhs.order)
    absprod = np.convolve(np.abs(coeffs(a)), np.abs(coeffs(b)))
    scale = np.maximum(1.0, len(absprod) * absprod[: n + 1])
    assert np.all(np.abs(coeffs(lhs)[: n + 1] - coeffs(rhs)[: n + 1]) <= 1e-13 * scale)


def test_roundtrip_seeded_sweep():
    # representative (non-adversarial) draws at the documented scale
    rng = np.random.default_rng(7)
    for _ in range(300):
        na, nb = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        a = PowerSeries(tuple(rng.uniform(-4, 4, na) + 1j * rng.uniform(-4, 4, na)))
        b_head = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        b_tail = (rng.uniform(-0.5, 0.5, nb - 1) + 1j * rng.uniform(-0.5, 0.5, nb - 1)) if nb > 1 else []
        b = PowerSeries((complex(b_head),) + tuple(b_tail))
        back = ps_mul(b, ps_div(a, b))
        n = min(a.order, b.order)
        assert np.all(
            np.abs(coeffs(back) - coeffs(a)[: n + 1])
            <= 1e-10 * np.maximum(1.0, np.abs(coeffs(a)[: n + 1]))
        )
