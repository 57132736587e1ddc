import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwimm.series import (
    identity_series,
    series_compose_poly,
    series_exp,
    series_mul,
    series_mul_direct,
    series_pow,
    series_recip,
    series_square,
    trim,
)

coeff_arrays = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
).map(np.array)


@given(coeff_arrays, coeff_arrays, st.integers(min_value=1, max_value=2200))
@settings(max_examples=60, deadline=None)
def test_mul_direct_and_fft_agree(a, b, K):
    # pad so K straddles the direct/FFT switchover with real content
    a = np.resize(a, K + 1)
    b = np.resize(b, K + 1)
    fast = series_mul(a, b, K)
    slow = series_mul_direct(a, b, K)
    assert np.max(np.abs(fast - slow)) < 1e-12


@pytest.mark.parametrize("x, y, K", [
    (0.90039062, 0.90039062, 1981),  # falsified the 1e-12 agreement above
    (1.0, 0.95727793, 1077),
    (1.0, -1.0, 2200),
])
def test_products_of_constant_series_round_correctly(x, y, K):
    # coefficient k is (k + 1) x y exactly; a running sum drifts by several ulps
    a, b = np.full(K + 1, x), np.full(K + 1, y)
    exact = np.array([float((k + 1) * Fraction(x) * Fraction(y)) for k in range(K + 1)])
    ulp = np.spacing(np.abs(exact))
    for got in (series_mul(a, b, K), series_mul_direct(a, b, K)):
        assert np.all(np.abs(got - exact) <= ulp)
    if x == y:
        assert np.all(np.abs(series_square(a, K) - exact) <= ulp)


def test_mul_truncates_exactly():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0])
    assert np.allclose(series_mul(a, b, 1), [4.0, 13.0])
    assert np.allclose(series_mul(a, b, 4), [4.0, 13.0, 22.0, 15.0, 0.0])


@given(coeff_arrays, st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_pow_matches_repeated_multiplication(a, m):
    K = 24
    want = np.zeros(K + 1)
    want[0] = 1.0
    for _ in range(m):
        want = series_mul(want, a, K)
    got = series_pow(a, m, K)
    assert np.max(np.abs(got - want)) < 1e-10


def test_recip_is_multiplicative_inverse():
    # shaped like the actual use: 1/(2 - g) with g a probability series
    rng = np.random.default_rng(5)
    for K in (7, 100, 900):
        g = rng.uniform(0.0, 1.0, K + 1)
        g /= g.sum()
        a = -g
        a[0] += 2.0
        r = series_recip(a, K)
        prod = series_mul(a, r, K)
        unit = np.zeros(K + 1)
        unit[0] = 1.0
        assert np.max(np.abs(prod - unit)) < 1e-12


def test_recip_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        series_recip(np.array([0.0, 1.0]), 4)


def test_compose_poly_matches_naive():
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(0, 1, 5)
    g = rng.uniform(-0.3, 0.3, 9)
    K = 8
    want = np.zeros(K + 1)
    for m, c in enumerate(coeffs):
        want += c * series_pow(g, m, K)
    got = series_compose_poly(coeffs, g, K)
    assert np.max(np.abs(got - want)) < 1e-12


def _exp_recurrence_mp(a, K):
    """e_0 = exp(a_0), k e_k = sum_i i a_i e_{k-i}, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(x)) for x in a]
        e = [mpmath.exp(a[0])]
        for k in range(1, K + 1):
            e.append(mpmath.fsum(i * a[i] * e[k - i] for i in range(1, k + 1)) / k)
        return [float(x) for x in e]


@pytest.mark.parametrize("K", [0, 1, 5, 63, 64, 65, 200])
def test_exp_matches_mpmath_recurrence(K):
    rng = np.random.default_rng(K)
    g = rng.uniform(0.0, 1.0, K + 1)
    g /= 1.01 * g.sum()
    a = 4.0 * g
    a[0] = -4.0 * (1.0 - g[0])
    want = np.array(_exp_recurrence_mp(a, K))
    got = series_exp(a, K)
    assert got.shape == (K + 1,)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_exp_keeps_relative_accuracy_of_tiny_coefficients():
    # coefficients fall geometrically from 1 to 1e-200; so do those of exp
    K = 150
    a = 10.0 ** (-200.0 * np.arange(K + 1) / K)
    a[0] = -0.5
    want = np.array(_exp_recurrence_mp(a, K))
    assert want[-1] < 1e-190
    got = series_exp(a, K)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("K", [1, 6, 20])
def test_exp_matches_poisson_composed_by_horner(K):
    # exp(lam (g - 1)) = sum_m poisson_pmf(m) g**m; 120 terms leave < 1e-140
    rng = np.random.default_rng(3)
    g = rng.uniform(0.0, 1.0, K + 1)
    g /= g.sum()
    lam = 3.0
    pmf = np.array([math.exp(m * math.log(lam) - math.lgamma(m + 1) - lam)
                    for m in range(120)])
    a = lam * g
    a[0] = -lam * (1.0 - g[0])
    got = series_exp(a, K)
    want = series_compose_poly(pmf, g, K)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


def test_identity_and_trim():
    s = identity_series(4)
    assert list(s) == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert list(trim(np.array([1.0, 2.0]), 3)) == [1.0, 2.0, 0.0, 0.0]
    assert list(trim(np.array([1.0, 2.0, 3.0]), 1)) == [1.0, 2.0]
