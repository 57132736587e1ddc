import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwimm.models import make_law
from gwimm.series import (
    identity_series,
    series_compose_poly,
    series_exp,
    series_exp_rows,
    series_mul,
    series_pow,
    series_recip,
    trim,
)

coeff_arrays = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
).map(np.array)


def _geometric_products_mp(x, y, K):
    """[s^k] of 1/((1 - xs)(1 - ys)), sum_{i<=k} x**i y**(k-i), in 50 digits."""
    with mpmath.workdps(50):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        if x == y:
            return [float((k + 1) * x**k) for k in range(K + 1)]
        return [float((x ** (k + 1) - y ** (k + 1)) / (x - y)) for k in range(K + 1)]


@given(st.floats(min_value=20.0, max_value=200.0),
       st.floats(min_value=20.0, max_value=200.0),
       st.integers(min_value=256, max_value=1024))
@example(200.0, 150.0, 600)
@example(200.0, 200.0, 1024)
@settings(max_examples=20, deadline=None)
def test_products_keep_relative_accuracy_of_tiny_coefficients(dx, dy, K):
    # x**K = 10**-dx: coefficients fall by up to 200 decades across 0..K
    x, y = 10.0 ** (-dx / K), 10.0 ** (-dy / K)
    a, b = x ** np.arange(K + 1.0), y ** np.arange(K + 1.0)
    want = np.array(_geometric_products_mp(x, y, K))
    assert np.max(np.abs(series_mul(a, b, K) / want - 1.0)) <= 1e-13
    square = np.array(_geometric_products_mp(x, x, K))
    assert np.max(np.abs(series_mul(a, a, K) / square - 1.0)) <= 1e-13


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


def _recip_recurrence_mp(a, K):
    """x_0 = 1/a_0, a_0 x_k = -sum_i a_i x_{k-i}, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(v)) for v in a]
        x = [1 / a[0]]
        for k in range(1, K + 1):
            x.append(-mpmath.fsum(a[i] * x[k - i] for i in range(1, k + 1)) / a[0])
        return [float(v) for v in x]


@pytest.mark.parametrize("K", [64, 150, 300])
def test_recip_keeps_relative_accuracy_of_tiny_coefficients(K):
    # 1/(2 - g) for a pgf g whose coefficients fall from about 1 to 1e-200
    rng = np.random.default_rng(K)
    g = rng.uniform(0.2, 1.0, K + 1) * 10.0 ** (-200.0 * np.arange(K + 1) / K)
    g /= g.sum()
    a = -g
    a[0] += 2.0
    want = np.array(_recip_recurrence_mp(a, K))
    assert g[-1] < 1e-190 and want[-1] < 1e-100
    got = series_recip(a, K)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


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


@pytest.mark.parametrize("a0", [-720.0, -745.5, -900.0])
def test_exp_with_subnormal_constant_keeps_each_coefficient(a0):
    # exp(a_0) is subnormal or 0, but most coefficients are normal floats:
    # each keeps its own relative accuracy instead of exp(a_0)'s
    K = 64
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, K + 1)
    a *= -0.1 * a0 / a[1:].sum()
    a[0], a[1] = a0, a[1] - 0.9 * a0
    want = np.array(_exp_recurrence_mp(a, K))
    normal = want >= 2.2250738585072014e-308
    assert normal[K] and normal.sum() >= 8
    for got in (series_exp(a, K), series_exp_rows(a[None], K)[0]):
        assert np.max(np.abs(got[normal] / want[normal] - 1.0)) <= 1e-12
        assert np.all(got[~normal] <= 2.2250738585072014e-308)


def test_exp_coefficients_above_the_float_range_do_not_overflow():
    # Poisson(2000): p_600 = exp(-678) is a normal float, p_600 / p_0 = e^1322
    # is not, so the recurrence must not run on exp(a - a_0) unscaled
    lam, K = 2000.0, 600
    a = np.zeros(K + 1)
    a[0], a[1] = -lam, lam
    with mpmath.workdps(30):
        want = np.array([float(mpmath.exp(-lam + k * mpmath.log(lam) - mpmath.loggamma(k + 1)))
                         for k in range(K + 1)])
    normal = want >= 2.2250738585072014e-308
    assert normal[K] and not normal[0]
    for got in (series_exp(a, K), series_exp_rows(a[None], K)[0]):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got[normal] / want[normal] - 1.0)) <= 1e-12


@pytest.mark.parametrize("K", [0, 1, 5, 63, 64, 65, 130])
def test_exp_rows_are_one_row_calls_and_agree_with_series_exp(K):
    rng = np.random.default_rng(K + 100)
    a = rng.uniform(0.0, 1.0, (37, K + 1)) * rng.uniform(0.01, 5.0, (37, 1))
    a[:, 0] = -rng.uniform(0.0, 5.0, 37)
    a[3, 0], a[5, 0] = -730.0, -1e4  # subnormal and zero exp(a_0)
    got = series_exp_rows(a, K)
    assert got.shape == (37, K + 1)
    for i in (0, 3, 5, 17, 36):
        assert np.array_equal(got[i], series_exp_rows(a[i : i + 1], K)[0])
    assert np.array_equal(got[10:20], series_exp_rows(a[10:20], K))
    want = np.array([series_exp(row, K) for row in a])
    nz = want > 2.2250738585072014e-308
    assert np.array_equal(got[~nz] <= 2.2250738585072014e-308, np.ones((~nz).sum(), bool))
    assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 1e-13


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


def _pgf_rows(rows, K, seed):
    """Series shaped like the engine's: coefficients of random size that
    fall from about 1 to 1e-200 and sum to 0.99, one series per row."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.2, 1.0, (rows, K + 1)) * 10.0 ** (-200.0 * np.arange(K + 1) / max(K, 1))
    return 0.99 * g / g.sum(axis=1, keepdims=True)


# Relative error of the forward recurrence against mpmath, fixed before
# the first run: every term is nonnegative, so rounding errors average
# over the k terms of each coefficient instead of cancelling
_FORWARD_RTOL = 1e-12


@pytest.mark.parametrize("K", [0, 1, 63, 64, 65, 512])
def test_forward_recurrence_against_mpmath(K):
    # exp(3 (g - 1)), 1/(2 - g), and 1/(2 - g) as the geometric law's map
    # of a stack of series: every coefficient, the tiny ones included
    rows = _pgf_rows(3, K, seed=K + 7)
    denom = -rows
    denom[:, 0] += 2.0
    recips = np.array([_recip_recurrence_mp(d, K) for d in denom])
    for g, d, want in zip(rows, denom, recips):
        a = 3.0 * g
        a[0] = -3.0 * (1.0 - g[0])
        assert np.max(np.abs(series_exp(a, K) / _exp_recurrence_mp(a, K) - 1.0)) <= _FORWARD_RTOL
        assert np.max(np.abs(series_recip(d, K) / want - 1.0)) <= _FORWARD_RTOL
    block = make_law("geometric-critical").apply_to_series(rows, K)
    assert block.shape == (3, K + 1)
    assert np.max(np.abs(block / recips - 1.0)) <= _FORWARD_RTOL


@pytest.mark.parametrize("K", [0, 1, 5, 64, 130])
def test_recip_rows_are_one_row_calls(K):
    denom = -_pgf_rows(37, K, seed=K + 200)
    denom[:, 0] += 2.0
    got = series_recip(denom, K)
    assert got.shape == (37, K + 1)
    for i in (0, 3, 17, 36):
        assert np.array_equal(got[i], series_recip(denom[i], K))
        assert np.array_equal(got[i], series_recip(denom[i : i + 1], K)[0])
    assert np.array_equal(got[10:20], series_recip(denom[10:20], K))
    denom[5, 0] = 0.0
    with pytest.raises(ValueError, match="nonzero constant term"):
        series_recip(denom, K)


def test_identity_and_trim():
    s = identity_series(4)
    assert list(s) == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert list(trim(np.array([1.0, 2.0]), 3)) == [1.0, 2.0, 0.0, 0.0]
    assert list(trim(np.array([1.0, 2.0, 3.0]), 1)) == [1.0, 2.0]
