import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate

from gwimm import exact_pmf_Y, exact_pmf_Z, extinction_iterates
from gwimm.asymptotics import (
    build_report_row,
    conjecture_sup,
    gamma_limit_cdf,
    gw_llt_eval,
    lemma5_ratio,
    lemma5_sandwich,
    main1_eval,
    main2_eval,
    main3_mu_estimate,
    mellein_local,
)
from gwimm.pgf import full_law_truncation


def gamma_cdf_by_quadrature(gamma: float, x: float) -> float:
    """Regularized lower incomplete gamma via direct numeric quadrature
    (independent of the special-function implementation)."""
    if x <= 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda u: u ** (gamma - 1.0) * math.exp(-u), 0.0, x,
        epsabs=1e-14, epsrel=1e-12, limit=200,
    )
    return val / math.gamma(gamma)


class TestGammaLimitCdf:
    def test_exponential_case(self):
        assert gamma_limit_cdf(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_at_zero(self):
        assert gamma_limit_cdf(0.5, 0.0) == 0.0

    def test_shape_two_by_parts(self):
        # integration by parts gives 1 - 3 e^-2
        assert gamma_limit_cdf(2.0, 2.0) == pytest.approx(
            1.0 - 3.0 * math.exp(-2.0), abs=1e-14)

    def test_against_quadrature_oracle(self):
        for g, x in [(0.5, 0.3), (0.5, 4.0), (1.0, 1.0), (2.7, 2.2)]:
            assert gamma_limit_cdf(g, x) == pytest.approx(
                gamma_cdf_by_quadrature(g, x), abs=1e-10)

    def test_array_is_its_scalar_calls(self):
        xs = np.array([0.0, 1e-3, 0.3, 1.0, 2.2, 4.0, 40.0])
        for g in (0.5, 1.0, 2.7):
            got = gamma_limit_cdf(g, xs)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape
            want = [gamma_limit_cdf(g, float(x)) for x in xs]
            assert all(type(w) is float for w in want)
            assert got.tolist() == want

    @pytest.mark.parametrize("g, tol", [
        (0.5, 3e-14), (1.0, 3e-14), (2.7, 3e-14), (8.0, 3e-14),
        (20.0, 5e-13), (200.0, 5e-13), (1000.0, 3e-12),
    ])
    def test_against_mpmath(self, g, tol):
        # relative error against 40 digits, x from 1e-300 to 1e3; below the
        # least normal float the error is taken relative to that float
        xs = np.concatenate((np.logspace(-300, 3, 304), [g * 0.9, g, g + 1.0, g * 1.1]))
        got = gamma_limit_cdf(g, xs)
        with mpmath.workdps(40):
            for x, p in zip(xs.tolist(), got.tolist()):
                ref = float(mpmath.gammainc(g, 0, x, regularized=True))
                assert abs(p - ref) <= tol * max(ref, sys.float_info.min), (x, p, ref)

    def test_nan_and_inf(self):
        assert math.isnan(gamma_limit_cdf(2.0, math.nan))
        assert gamma_limit_cdf(2.0, math.inf) == 1.0
        got = gamma_limit_cdf(0.5, np.array([math.nan, 0.0, math.inf]))
        assert math.isnan(got[0]) and got[1:].tolist() == [0.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_limit_cdf(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_limit_cdf(1.0, -0.5)
        with pytest.raises(ValueError):
            gamma_limit_cdf(1.0, np.array([0.5, -0.5]))


class TestMellein:
    def test_hand_value(self, bin_bern):
        assert mellein_local(bin_bern, 100, 50) == pytest.approx(
            0.02 * math.exp(-1.0), rel=1e-12)

    def test_k_dependence_drops_for_gamma_one(self, bin_bern):
        # gamma = 1: only the exponential factor moves with k
        v1 = mellein_local(bin_bern, 1000, 10)
        v2 = mellein_local(bin_bern, 1000, 20)
        assert v1 / v2 == pytest.approx(math.exp(2.0 * 10 / 1000.0), rel=1e-12)

    def test_exponential_factor_vanishes_for_small_k(self, bin_bern):
        n, k = 10**6, 3
        free = math.exp(
            bin_bern.gamma * math.log(2.0 / bin_bern.B)
            + (bin_bern.gamma - 1.0) * math.log(k) - bin_bern.gamma * math.log(n))
        assert mellein_local(bin_bern, n, k) / free == pytest.approx(1.0, abs=1e-5)


class TestMainFormulas:
    def test_main2_over_mellein_near_one(self, geo_bern):
        cache = extinction_iterates(geo_bern, 10**5)
        ratio = main2_eval(geo_bern, cache, 10**5, 100) / mellein_local(
            geo_bern, 10**5, 100)
        assert abs(ratio - 1.0) < 0.02

    def test_main1_at_k_equals_n(self, geo_bern):
        cache = extinction_iterates(geo_bern, 1000)
        val = main1_eval(geo_bern, cache, 1000, 1000)
        expected = math.exp(-math.lgamma(geo_bern.gamma + 1.0)) * (
            2.0 / geo_bern.B) ** geo_bern.gamma
        assert val == pytest.approx(expected, rel=1e-12)

    def test_positivity(self, bin_bern):
        cache = extinction_iterates(bin_bern, 4096)
        for n in (64, 512, 4096):
            for k in (1, 8, n):
                assert main2_eval(bin_bern, cache, n, k) > 0.0
                assert main1_eval(bin_bern, cache, n, k) > 0.0

    def test_domain_checks(self, bin_bern):
        cache = extinction_iterates(bin_bern, 64)
        with pytest.raises(ValueError):
            main2_eval(bin_bern, cache, 128, 8)
        with pytest.raises(ValueError):
            main2_eval(bin_bern, cache, 32, 0)


class TestMain3:
    def test_k0_identity(self, bin_bern):
        cache = extinction_iterates(bin_bern, 1024)
        seq = main3_mu_estimate(bin_bern, cache, [128, 256, 1024], 0)
        assert np.allclose(seq, 1.0, atol=1e-12)

    def test_stabilizes_with_positive_limit(self, bin_bern):
        cache = extinction_iterates(bin_bern, 2048)
        seq = main3_mu_estimate(bin_bern, cache, [256, 512, 1024, 2048], 2)
        assert np.all(seq > 0.0)
        diffs = np.abs(np.diff(seq))
        # successive differences shrink (or sit at float-noise level)
        floor = 1e-9
        for a, b in zip(diffs[:-1], diffs[1:]):
            assert b < a or b < floor

    def test_geometric_variant(self, geo_bern):
        cache = extinction_iterates(geo_bern, 2048)
        seq = main3_mu_estimate(geo_bern, cache, [256, 512, 1024, 2048], 1)
        assert np.all(seq > 0.0)
        assert abs(seq[-1] - seq[-2]) < abs(seq[0] - seq[1]) + 1e-12


class TestGwLocalLimit:
    def test_quartering_under_doubling(self):
        v1 = gw_llt_eval(0.5, 1.0, 100, 10)
        v2 = gw_llt_eval(0.5, 1.0, 200, 20)  # same j/n
        assert v1 / v2 == pytest.approx(4.0, rel=1e-12)

    def test_aperiodic_cohort_ratio(self, geo_bern):
        n = 256
        pz = exact_pmf_Z(geo_bern, n, 4 * n, deficit_ceiling=1.0)
        for j in range(n // 10, n + 1, 16):
            ratio = pz[j] / gw_llt_eval(geo_bern.lam, geo_bern.B, n, j)
            assert 0.9 <= ratio <= 1.1

    def test_periodic_cohort_needs_span_factor(self, bin_bern):
        n = 256
        pz = exact_pmf_Z(bin_bern, n, 4 * n, deficit_ceiling=1.0)
        span = bin_bern.offspring.lattice_span
        assert span == 2
        for j in range(26, n + 1, span):
            ratio = pz[j] / (span * gw_llt_eval(bin_bern.lam, bin_bern.B, n, j))
            assert 0.9 <= ratio <= 1.1
        assert pz[27] == 0.0  # odd sites carry no mass


class TestConjecture:
    @pytest.mark.slow
    def test_sup_decreases_in_n(self, bin_bern, geo_bern):
        for model in (bin_bern, geo_bern):
            sups = []
            for n in (128, 256, 512):
                K = full_law_truncation(model, n, 1e-8)
                sups.append(conjecture_sup(model, n, 0.25, K))
            assert sups[0] > sups[1] > sups[2]
            assert all(s >= 0.0 for s in sups)

    def test_empty_range_is_zero(self, bin_bern):
        assert conjecture_sup(bin_bern, 64, 10.0, 128) == 0.0

    def test_requires_K_at_least_n(self, bin_bern):
        with pytest.raises(ValueError):
            conjecture_sup(bin_bern, 128, 0.5, 64)


class TestLemma5:
    def test_sweep_stays_in_fixed_band(self, geo_bern):
        cache = extinction_iterates(geo_bern, 4096)
        lo, hi = lemma5_sandwich(geo_bern, cache, [256, 1024, 4096], [8, 16, 32], 32)
        assert lo > 0.05
        assert hi < 20.0

    def test_k_equals_n_is_positive(self, geo_bern):
        cache = extinction_iterates(geo_bern, 64)
        r = lemma5_ratio(geo_bern, cache, 64, 64, 512)
        assert r > 0.0

    def test_positivity_pointwise(self, bin_bern):
        cache = extinction_iterates(bin_bern, 256)
        assert lemma5_ratio(bin_bern, cache, 256, 16, 64) > 0.0

    @pytest.mark.parametrize("n, k, K", [(256, 16, 16), (1024, 8, 32), (64, 3, 8)])
    def test_window_needs_no_deficit_knob(self, geo_bern, n, k, K):
        # P(Y_n <= k) is exact at any K >= k; a window this narrow loses
        # most of the mass, which used to raise DeficitError
        cache = extinction_iterates(geo_bern, 1024)
        window = exact_pmf_Y(geo_bern, n, K, deficit_ceiling=1.0)
        assert window.deficit > 1e-6
        expected = float(window.cdf()[k]) / cache.F_ratio(n, k)
        assert lemma5_ratio(geo_bern, cache, n, k, K) == expected
        assert lemma5_sandwich(geo_bern, cache, n, k, K) == (expected, expected)


class TestReportRows:
    def test_ratio_and_untrusted_flag(self):
        row = build_report_row(10, 2, 0.5, 0.25, "main2", deficit=0.0)
        assert row.ratio == 2.0 and not row.untrusted
        row = build_report_row(10, 2, 1e-9, 0.25, "main2", deficit=1e-9)
        assert row.untrusted and row.ratio is None
