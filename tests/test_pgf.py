import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwimm import (
    DeficitError,
    TruncatedPmf,
    charfn_modulus,
    exact_pmf_Y,
    exact_pmf_Y_multi,
    exact_pmf_Z,
    extinction_iterates,
    kolmogorov_diagnostic,
    make_law,
    make_model,
)
from gwimm.models import PGF_DOMAIN_TOL
from gwimm.oracles import enumerate_population_pmf, step_pmf
from gwimm.pgf import (
    _CHAINS,
    _STORES,
    CIRCLE_WINDOW,
    ITER_BLOCK,
    _chain_store,
    _circle_products,
    full_law_truncation,
)
from gwimm.series import identity_series, series_mul, series_mul_direct


# every array an IterateCache exposes: its four fields, views of the store,
# and the five arrays it derives from them on first read
CACHE_ARRAYS = ("fj0", "one_minus_fj0", "one_minus_hfj0", "logF", "F", "logL", "L",
                "logF_pos", "zero_factors")


class TestIterates:
    def test_geometric_closed_form(self, geo_bern):
        cache = extinction_iterates(geo_bern, 1000)
        ns = np.arange(1001, dtype=float)
        assert np.max(np.abs(cache.fj0 - ns / (ns + 1.0))) < 1e-12
        assert cache.fj0[0] == 0.0

    def test_F_product_values(self, geo_bern):
        cache = extinction_iterates(geo_bern, 30)
        assert cache.F[1] == pytest.approx(0.5, abs=1e-15)
        assert cache.F[2] == pytest.approx(3.0 / 8.0, abs=1e-15)
        assert cache.F[3] == pytest.approx(5.0 / 16.0, abs=1e-15)
        for n in range(1, 31):
            assert cache.F[n] == pytest.approx(
                math.comb(2 * n, n) / 4.0**n, rel=1e-12)

    def test_L_values(self, geo_bern):
        cache = extinction_iterates(geo_bern, 10)
        assert cache.L[1] == pytest.approx(2.0, abs=1e-14)
        assert cache.L[4] == pytest.approx(64.0 / 35.0, abs=1e-14)

    def test_L_cache_identity(self, geo_bern):
        cache = extinction_iterates(geo_bern, 100)
        n = np.arange(1, 101, dtype=float)
        assert np.max(np.abs(cache.L[1:] * n**geo_bern.gamma * cache.F[1:] - 1.0)) < 1e-12

    def test_monotonicity(self, bin_bern):
        cache = extinction_iterates(bin_bern, 500)
        assert np.all(np.diff(cache.fj0) > 0)
        assert np.all(np.diff(cache.F) < 0)
        assert np.all((cache.F > 0) & (cache.F <= 1))

    def test_cache_grows_consistently(self, geo_bern):
        small = extinction_iterates(geo_bern, 50)
        big = extinction_iterates(geo_bern, 200)
        assert np.array_equal(small.logF, big.logF[:51])

    def test_horizon_validation(self, geo_bern):
        with pytest.raises(ValueError):
            extinction_iterates(geo_bern, 0)

    def test_arrays_are_read_only(self, geo_bern):
        cache = extinction_iterates(geo_bern, 40)
        stored = {f.name for f in dataclasses.fields(cache)
                  if isinstance(getattr(cache, f.name), np.ndarray)}
        assert stored < set(CACHE_ARRAYS)
        for name in CACHE_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(cache, name)[1] = 0

    def test_views_survive_store_reallocation(self):
        model = make_model("geometric-critical",
                           {"family": "bernoulli01", "params": {"q1": 0.3125}})
        _STORES.pop(model, None)
        small = extinction_iterates(model, 100)
        before = {name: getattr(small, name).tobytes() for name in CACHE_ARRAYS}
        big = extinction_iterates(model, 5000)  # past the store's first capacity
        assert not np.shares_memory(small.one_minus_fj0, big.one_minus_fj0)
        for name in CACHE_ARRAYS:
            assert getattr(small, name).tobytes() == before[name], name

    def test_kolmogorov_diagnostic(self, geo_bern, bin_bern):
        kd = kolmogorov_diagnostic(extinction_iterates(geo_bern, 10**4))
        assert kd[98] == pytest.approx(0.99, abs=1e-12)   # n = 99
        assert kd[9998] == pytest.approx(0.9999, abs=1e-12)
        kb = kolmogorov_diagnostic(extinction_iterates(bin_bern, 10))
        assert kb[0] == pytest.approx(0.25, abs=1e-15)    # n = 1
        # converges to 1
        assert abs(kd[-1] - 1.0) < 1e-3

    def test_slow_variation(self, geo_bern, bin_bern):
        for model in (geo_bern, bin_bern):
            cache = extinction_iterates(model, 5 * 10**5)
            for c in (2, 5):
                ratio = cache.L[c * 10**5] / cache.L[10**5]
                assert abs(ratio - 1.0) < 0.01

    def test_lemma4_product_identity(self, geo_bern):
        cache = extinction_iterates(geo_bern, 10**4)
        k, n = 100, 10**4
        prod = cache.F_ratio(n, k)
        rhs = (k / n) ** geo_bern.gamma * math.exp(cache.logL[k] - cache.logL[n])
        assert 0.99 <= prod / rhs <= 1.01


_BERN = {"family": "bernoulli01", "params": {"q1": 0.4}}


class TestIterStore:
    """The store runs one scalar recursion per generation; the rest is on
    arrays, one block of ITER_BLOCK generations at a time."""

    @pytest.mark.parametrize("model", [
        make_model("geometric-critical", _BERN),
        make_model("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}}),
        # h(0) = 0: a zero factor at j = 0
        make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}),
        make_model("binary", {"family": "log-heavy-immigration", "params": {"beta": 1.5}}),
        make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}}, _BERN),
    ], ids=["geo-bern", "geo-poisson", "bin-explicit", "heavy-imm", "heavy-off"])
    def test_history_independent(self, model):
        N = 2 * ITER_BLOCK + 17
        _STORES.pop(model, None)
        for n in (1, 5, ITER_BLOCK - 1, ITER_BLOCK, ITER_BLOCK + 3, 2 * ITER_BLOCK + 1, N):
            grown = extinction_iterates(model, n)
        _STORES.pop(model)
        fresh = extinction_iterates(model, N)
        for name in ("logF", "logF_pos", "one_minus_hfj0", "one_minus_fj0", "zero_factors"):
            assert np.array_equal(getattr(grown, name), getattr(fresh, name)), name
        assert fresh.zero_factors[-1] == (1 if model.immigration.kind == "explicit" else 0)

    def test_interrupted_growth_resumes_exactly(self, monkeypatch):
        model = make_model("geometric-critical", _BERN)
        imm, calls = model.immigration, []

        def failing_third_call(u):
            calls.append(u)
            if len(calls) == 3:  # the store's first value, block 1, then block 2
                raise RuntimeError("interrupted")
            return type(imm).one_minus_pgf(imm, u)

        _STORES.pop(model, None)
        monkeypatch.setattr(imm, "one_minus_pgf", failing_third_call, raising=False)
        with pytest.raises(RuntimeError):
            extinction_iterates(model, 3 * ITER_BLOCK)
        monkeypatch.undo()
        resumed = extinction_iterates(model, 3 * ITER_BLOCK)
        _STORES.pop(model)
        fresh = extinction_iterates(model, 3 * ITER_BLOCK)
        assert np.array_equal(resumed.logF, fresh.logF)
        assert np.array_equal(resumed.one_minus_hfj0, fresh.one_minus_hfj0)

    def test_log_F_matches_harmonic_number(self):
        # geometric offspring: u_j = 1/(j+1); poisson(2) immigration:
        # log h(f_j(0)) = -2 u_j, so log F(n) = -2 H_n
        mpmath = pytest.importorskip("mpmath")
        model = make_model("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}})
        n = 300000
        with mpmath.workdps(40):
            ref = float(-2 * mpmath.harmonic(n))
        assert abs(extinction_iterates(model, n).logF[n] - ref) <= 1e-13

    def test_log_F_is_the_rounded_exact_prefix_sum(self, bin_bern):
        cache = extinction_iterates(bin_bern, 3 * ITER_BLOCK)
        exact, ref = Fraction(0), [0.0]
        for term in np.log1p(-cache.one_minus_hfj0[:-1]).tolist():
            exact += Fraction(term)
            ref.append(float(exact))
        err = np.abs(cache.logF - np.array(ref))
        assert np.max(err / np.spacing(np.abs(ref))) <= 1.0


class TestFRatio:
    """log_F_ratio and F_ratio, the one reader of the stored F."""

    @pytest.mark.parametrize("model", [
        make_model("geometric-critical", _BERN),
        # h(0) = 0: a zero factor at j = 0, so F(n) = 0 for n >= 1
        make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}),
    ], ids=["geo-bern", "bin-explicit"])
    def test_arrays_equal_scalar_calls(self, model):
        N = 48
        cache = extinction_iterates(model, N)
        ns, ms = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
        log_ratio, ratio = cache.log_F_ratio(ns, ms), cache.F_ratio(ns, ms)
        for n in range(N + 1):
            for m in range(N + 1):
                scalar = cache.F_ratio(n, m)
                assert type(scalar) is float
                assert scalar == ratio[n, m]
                assert cache.log_F_ratio(n, m) == log_ratio[n, m]
        assert np.array_equal(cache.F_ratio(N, np.arange(N + 1)), ratio[N])
        assert np.array_equal(np.diag(ratio), np.ones(N + 1))
        assert np.array_equal(cache.logF_at(np.arange(N + 1)), log_ratio[:, 0])

    def test_zero_factor_ratios(self):
        cache = extinction_iterates(
            make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}), 16)
        assert cache.F_ratio(5, 0) == 0.0
        assert cache.log_F_ratio(5, 0) == -np.inf
        # both F values vanish, their ratio does not
        assert 0.0 < cache.F_ratio(5, 1) < 1.0
        assert cache.F_ratio(5, 1) == pytest.approx(
            math.prod(1.0 - cache.one_minus_hfj0[1:5]), rel=1e-14)


class TestStepPmf:
    def test_two_steps_match_enumeration(self, bin_bern):
        start = TruncatedPmf(np.array([1.0] + [0.0] * 16))
        y1 = step_pmf(bin_bern, start)
        y2 = step_pmf(bin_bern, y1)
        assert np.allclose(y2.probs[:4], [0.375, 0.375, 0.125, 0.125], atol=1e-15)

    def test_single_step_from_zero_is_immigration(self, geo_bern):
        start = TruncatedPmf(np.array([1.0] + [0.0] * 8))
        y1 = step_pmf(geo_bern, start)
        assert np.allclose(y1.probs, geo_bern.immigration.pmf_array(8))

    def test_zero_probability_matches_F(self, bin_bern):
        cache = extinction_iterates(bin_bern, 4)
        y = TruncatedPmf(np.array([1.0] + [0.0] * 16))
        y = step_pmf(bin_bern, step_pmf(bin_bern, y))
        assert y.probs[0] == pytest.approx(cache.F[2], abs=1e-15)
        assert cache.F[2] == pytest.approx(3.0 / 8.0)

    def test_rejects_tiny_truncation(self, bin_bern):
        with pytest.raises(ValueError):
            step_pmf(bin_bern, TruncatedPmf(np.array([1.0])))

    def test_chain_agrees_with_engine_bounded(self, bin_bern):
        # bounded support: both routes are exact in the truncated ring
        y = TruncatedPmf(np.array([1.0] + [0.0] * 64))
        for _ in range(5):
            y = step_pmf(bin_bern, y)
        engine = exact_pmf_Y(bin_bern, 5, 64)
        assert np.max(np.abs(y.probs - engine.probs)) < 1e-14

    def test_chain_agrees_with_engine_unbounded(self, geo_bern):
        # unbounded support: the composition route drops extra tail mass, so
        # both are lower bounds agreeing to the deficit scale only
        y = TruncatedPmf(np.array([1.0] + [0.0] * 64))
        for _ in range(6):
            y = step_pmf(geo_bern, y)
        engine = exact_pmf_Y(geo_bern, 6, 64, deficit_ceiling=1.0)
        assert np.all(engine.probs >= y.probs - 1e-12)
        assert np.max(np.abs(y.probs - engine.probs)) <= y.deficit

    def test_deficit_monotone_across_steps(self, geo_bern):
        y = TruncatedPmf(np.array([1.0] + [0.0] * 24))
        prev = 0.0
        for _ in range(8):
            y = step_pmf(geo_bern, y)
            assert y.deficit >= prev - 1e-15
            prev = y.deficit


critical_quads = st.tuples(
    st.floats(min_value=0.0, max_value=0.4),
    st.floats(min_value=0.0, max_value=0.15),
).filter(lambda ab: 0.01 <= 2 * ab[0] + 3 * ab[1] <= 0.98)


class TestExactEngine:
    def test_n0_is_point_mass(self, bin_bern):
        pmf = exact_pmf_Y(bin_bern, 0, 8, initial=5)
        assert pmf[5] == 1.0
        assert pmf.deficit == 0.0

    def test_bounded_two_steps(self, bin_bern):
        pmf = exact_pmf_Y(bin_bern, 2, 16)
        assert np.allclose(pmf.probs[:4], [0.375, 0.375, 0.125, 0.125], atol=1e-15)
        assert pmf.deficit == 0.0

    def test_zero_coefficient_equals_F(self, geo_bern):
        cache = extinction_iterates(geo_bern, 64)
        pmf = exact_pmf_Y(geo_bern, 64, 4096)
        assert abs(pmf.probs[0] - cache.F[64]) < 1e-10

    @given(critical_quads, st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_enumeration(self, ab, n):
        a, b = ab
        offspring = [a + 2 * b, 1.0 - 2 * a - 3 * b, a, b]
        model = make_model({"family": "explicit", "probs": offspring},
                           {"family": "explicit", "probs": [0.25, 0.5, 0.25]})
        engine = exact_pmf_Y(model, n, 80)
        oracle = enumerate_population_pmf(
            [Fraction(p) for p in offspring],
            [Fraction(0.25), Fraction(0.5), Fraction(0.25)], n)
        for k in range(81):
            assert abs(engine[k] - float(oracle.get(k, 0))) < 1e-12

    def test_initial_particles(self, bin_bern):
        # founders evolve as plain offspring lines on top of the immigration flow
        pmf = exact_pmf_Y(bin_bern, 1, 8, initial=1)
        # Y_1 = ξ + η: ξ ∈ {0,2}, η ∈ {0,1} each w.p. 1/2
        assert np.allclose(pmf.probs[:4], [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_multi_checkpoints_match_single(self, geo_bern):
        multi = exact_pmf_Y_multi(geo_bern, [3, 7], 64, deficit_ceiling=1.0)
        for n in (3, 7):
            single = exact_pmf_Y(geo_bern, n, 64, deficit_ceiling=1.0)
            assert np.array_equal(multi[n].probs, single.probs)

    def test_deficit_ceiling_raises(self, geo_bern):
        with pytest.raises(DeficitError, match="increase"):
            exact_pmf_Y(geo_bern, 256, 64)

    def test_negative_truncation_rejected(self, geo_bern):
        with pytest.raises(ValueError, match="K=-5"):
            exact_pmf_Y_multi(geo_bern, [4], -5)
        with pytest.raises(ValueError, match="K=-5"):
            exact_pmf_Z(geo_bern, 4, -5)
        with pytest.raises(ValueError, match="m=-1"):
            exact_pmf_Z(geo_bern, -1, 8)

    def test_normalization_invariant(self, geo_bern, bin_bern):
        for model, n, K in ((geo_bern, 40, 512), (bin_bern, 25, 256)):
            pmf = exact_pmf_Y(model, n, K, deficit_ceiling=1.0)
            assert abs(math.fsum(pmf.probs.tolist()) + pmf.deficit - 1.0) < 1e-12

    @pytest.mark.parametrize("K", [8, 16])
    def test_poisson_window_zero_coefficient_equals_F(self, K):
        # gamma = 8: P(Y_256 = 0) = 1.5e-16, the lower-deviation regime
        model = make_model("binary", {"family": "poisson", "params": {"mean": 4.0}})
        F = extinction_iterates(model, 256).F[256]
        pmf = exact_pmf_Y(model, 256, K, deficit_ceiling=math.inf)
        assert pmf.probs[0] == pytest.approx(F, rel=1e-12, abs=0.0)

    def test_poisson_window_independent_of_K(self):
        model = make_model("binary", {"family": "poisson", "params": {"mean": 4.0}})
        small = exact_pmf_Y(model, 256, 8, deficit_ceiling=math.inf).probs
        large = exact_pmf_Y(model, 256, 64, deficit_ceiling=math.inf).probs
        assert np.all(small > 0.0)
        assert np.max(np.abs(small / large[:9] - 1.0)) <= 1e-12


def _bpo4():
    return make_model("binary", {"family": "poisson", "params": {"mean": 4.0}})


class TestLowerTailFullLaw:
    """Full laws (K > DIRECT_CONV_MAX) keep the lower tail's relative accuracy."""

    @pytest.mark.parametrize("n, K", [(128, None), (512, 4096)])
    def test_zero_coefficient_equals_F(self, n, K):
        model = _bpo4()
        K = full_law_truncation(model, n, 1e-8) if K is None else K
        pmf = exact_pmf_Y(model, n, K, deficit_ceiling=math.inf)
        F = extinction_iterates(model, n).F[n]
        assert pmf.path == "circle"
        assert pmf.probs[0] == pytest.approx(F, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, K", [(128, None), (512, 4096)])
    def test_low_coefficients_equal_window(self, n, K):
        model = _bpo4()
        K = full_law_truncation(model, n, 1e-8) if K is None else K
        full = exact_pmf_Y(model, n, K, deficit_ceiling=math.inf).probs[:17]
        window = exact_pmf_Y(model, n, 64, deficit_ceiling=math.inf).probs[:17]
        assert np.all(window > 0.0)
        assert np.max(np.abs(full / window - 1.0)) <= 1e-13


def _offspring_iterate_direct(family, m, K):
    """Coefficients 0..K of f_m, m >= 1: schoolbook squaring for binary,
    the closed form f_m(s) = (m - (m-1) s) / ((m+1) - m s) for geometric."""
    if family == "geometric-critical":
        ks = np.arange(1, K + 1, dtype=float)
        g = np.empty(K + 1)
        g[0] = m / (m + 1.0)
        g[1:] = np.exp((ks - 1.0) * math.log(m) - (ks + 1.0) * math.log(m + 1.0))
        return g
    g = np.zeros(K + 1)
    g[1] = 1.0
    for _ in range(m):
        g = 0.5 * series_mul_direct(g, g, K)
        g[0] += 0.5
    return g


def _cohort_direct(immigration, g, K):
    if immigration == "bern":
        out = 0.5 * g
        out[0] += 0.5
        return out
    # 1 / (2 - g) by the reciprocal recurrence
    d = 2.0 - g[0]
    out = np.zeros(K + 1)
    out[0] = 1.0 / d
    for k in range(1, K + 1):
        out[k] = np.dot(g[1 : k + 1], out[k - 1 :: -1]) / d
    return out


class TestCirclePath:
    @pytest.mark.parametrize("offspring, immigration, m, K", [
        ("binary", "bern", 256, 2048),
        ("binary", "geo", 256, 2048),
        ("geometric-critical", "geo", 256, 2048),
        ("geometric-critical", "geo", 1024, 600),  # large tail beyond K
    ])
    def test_cohort_against_direct_reference(self, offspring, immigration, m, K):
        imm = ({"family": "bernoulli01", "params": {"q1": 0.5}} if immigration == "bern"
               else "geometric-critical")
        model = make_model(offspring, imm)
        pmf = exact_pmf_Z(model, m, K, deficit_ceiling=math.inf)
        ref = _cohort_direct(immigration, _offspring_iterate_direct(offspring, m, K), K)
        assert pmf.path == "circle"
        assert np.max(np.abs(pmf.probs - ref)) <= 1e-13

    def test_binary_window_keeps_lattice_zeros(self, bin_bern):
        pmf = exact_pmf_Z(bin_bern, 256, 2048, deficit_ceiling=math.inf)
        assert np.all(pmf.probs[1 : CIRCLE_WINDOW + 1 : 2] == 0.0)
        assert np.all(pmf.probs[0 : CIRCLE_WINDOW + 1 : 2] > 0.0)

    def test_multi_matches_single(self, geo_bern):
        multi = exact_pmf_Y_multi(geo_bern, [64, 128, 256], 2048, deficit_ceiling=1.0)
        for n in (64, 128, 256):
            single = exact_pmf_Y(geo_bern, n, 2048, deficit_ceiling=1.0)
            assert multi[n].path == single.path == "circle"
            assert np.array_equal(multi[n].probs, single.probs)

    def test_initial_particles_match_series(self, bin_bern):
        # the series route at a K below DIRECT_CONV_MAX is exact here too
        circle = exact_pmf_Y(bin_bern, 24, 600, initial=3, deficit_ceiling=1.0)
        series = exact_pmf_Y(bin_bern, 24, 400, initial=3, deficit_ceiling=1.0)
        assert circle.path == "circle" and series.path == "series"
        assert np.max(np.abs(circle.probs[:401] - series.probs)) <= 1e-13

    def test_heavy_law_stays_on_series(self):
        model = make_model("binary", {"family": "log-heavy-immigration",
                                      "params": {"beta": 1.5}})
        pmf = exact_pmf_Y(model, 2, 600, deficit_ceiling=math.inf)
        assert pmf.path == "series"

    def test_short_truncation_stays_on_series(self, geo_bern):
        assert exact_pmf_Y(geo_bern, 8, 512, deficit_ceiling=1.0).path == "series"
        assert exact_pmf_Z(geo_bern, 8, 512, deficit_ceiling=1.0).path == "series"


def _one_generation_at_a_time(model, ns, K):
    """{n: (series of f_n, series of H_n)} for n in ns, and the joint rows
    R_0..R_{max(ns)-1}, by a fresh chain at order K that steps one
    generation at a time: per generation one immigration factor, one
    product per row and per H, then one offspring iterate."""
    off, imm = model.offspring, model.immigration
    g = identity_series(K)
    acc = np.zeros(K + 1)
    acc[0] = 1.0
    states, rows = {}, np.zeros((max(ns), K + 1))
    for m in range(max(ns) + 1):
        if m in ns:
            states[m] = (g, acc)
        if m == max(ns):
            return states, rows
        factor = imm.apply_to_series(g, K)
        z = factor.copy()
        z[0] = 0.0
        rows[m] = series_mul(acc, z, K)
        acc = series_mul(acc, factor, K)
        g = off.iterate_series(g, m, 1, K)[0]


def _plain_window(model, n, K):
    """Coefficients 0..K of Y_n by a fresh series chain at order K."""
    return _one_generation_at_a_time(model, [n], K)[0][n][1]


def _heavy_imm():
    return make_model("binary", {"family": "log-heavy-immigration", "params": {"beta": 1.5}})


def _bern(q1):
    return {"family": "bernoulli01", "params": {"q1": q1}}


class TestBlockWalk:
    """The chain steps CHAIN_BLOCK generations per block; every state,
    window and joint row keeps the bits of the one-generation walk."""

    NS = [63, 64, 65, 129, 4097]

    @pytest.mark.parametrize("model, K", [
        (make_model("geometric-critical", _bern(0.5)), CIRCLE_WINDOW),
        (make_model("binary", _bern(0.37)), CIRCLE_WINDOW),
        (make_model("binary", {"family": "poisson", "params": {"mean": 2.3}}), CIRCLE_WINDOW),
        (make_model("geometric-critical", "geometric-critical"), CIRCLE_WINDOW),
        (make_model("binary", {"family": "explicit", "probs": [0.25, 0.5, 0.25]}),
         CIRCLE_WINDOW),
        (_heavy_imm(), 16),
        (make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}}, _bern(0.5)),
         8),
    ], ids=["geo-bern", "bin-bern", "bin-po", "geo-geo", "bin-explicit", "heavy-imm",
            "heavy-off"])
    def test_equals_one_generation_at_a_time(self, model, K):
        ref, ref_rows = _one_generation_at_a_time(model, self.NS, K)
        _CHAINS.clear()
        store = _chain_store(model, K)
        assert store.K == K
        # continued from the horizon kept before it, so blocks start off the grid
        for n in self.NS:
            g, acc = store.state(n)
            assert np.array_equal(g, ref[n][0]) and np.array_equal(acc, ref[n][1])
            assert np.array_equal(store.rows(n), ref_rows[:n])
        # a log-heavy law is cut at the window's order, so only k = K is a slice
        light = model.offspring.vectorised_pgf and model.immigration.vectorised_pgf
        for n in self.NS:
            _CHAINS.clear()
            for k in ({1, 8, K} if light else {K}):
                window = exact_pmf_Y(model, n, k, deficit_ceiling=math.inf).probs
                assert np.array_equal(window, ref[n][1][: k + 1])

    @pytest.mark.parametrize("K", [0, 1, 64, 600])
    def test_geometric_block_hook_is_the_closed_form(self, K):
        def closed_form(m):
            # m-th iterate (m - (m-1)s)/((m+1) - m s), one m at a time
            out = np.zeros(K + 1)
            out[0] = m / (m + 1.0)
            if K >= 1:
                j = np.arange(1, K + 1, dtype=float)
                if m == 0:
                    out[1] = 1.0
                else:
                    out[1:] = np.exp((j - 1.0) * math.log(m) - (j + 1.0) * math.log(m + 1.0))
            return out

        law = make_law("geometric-critical")
        unused = np.full(K + 1, np.nan)  # the closed form ignores f_m
        assert np.array_equal(identity_series(K), closed_form(0))
        for m in (1, 2, 1000, 4096):
            assert np.array_equal(law.iterate_series(unused, m - 1, 1, K)[0], closed_form(m))
            first = max(m - 5, 0)
            block = law.iterate_series(unused, first, 9, K)
            assert block.shape == (9, K + 1)
            assert np.array_equal(block[m - first - 1], closed_form(m))


class TestStackedApply:
    @pytest.mark.parametrize("spec", [
        _bern(0.3),
        "geometric-critical",
        "binary",
        {"family": "poisson", "params": {"mean": 2.3}},
        {"family": "explicit", "probs": [0.2, 0.3, 0.0, 0.5]},
        {"family": "log-heavy-immigration", "params": {"beta": 1.5}},
        {"family": "log-heavy-offspring", "params": {"beta": 2.5}},
    ], ids=["bernoulli", "geometric", "binary", "poisson", "explicit", "heavy-imm",
            "heavy-off"])
    @pytest.mark.parametrize("K", [0, 5, 64])
    def test_each_row_is_the_single_series_call(self, spec, K):
        law = make_law(spec)
        # iterates of the binary pgf: series of pgfs, some with g[0] = 0
        stack = [identity_series(K + 3)]
        for _ in range(6):
            g = 0.5 * series_mul(stack[-1], stack[-1], K + 3)
            g[0] += 0.5
            stack.append(g)
        for width in (K + 1, K + 4, min(K + 1, 2)):
            rows = np.array([s[:width] for s in stack])
            out = law.apply_to_series(rows, K)
            assert out.shape == (len(rows), K + 1)
            for row, got in zip(rows, out):
                assert np.array_equal(got, law.apply_to_series(row, K))


class TestChainStore:
    """Windows are read off one stored series chain per (model, order)."""

    @pytest.mark.parametrize("model", [
        _bpo4(),
        make_model("geometric-critical", "geometric-critical"),
        make_model("binary", _bern(0.5)),
        _heavy_imm(),
    ], ids=["bpo4", "geo-geo", "bin-bern", "heavy-imm"])
    def test_history_independent(self, model):
        # horizons on both sides of the block edges at 64 and 128
        queries = [(n, k, init) for n in (0, 3, 16, 40, 63, 65, 128, 129)
                   for k in (1, 5, 32, 64) for init in (0, 2)]
        alone = {}
        for q in queries:
            _CHAINS.clear()
            alone[q] = exact_pmf_Y(model, q[0], q[1], q[2], deficit_ceiling=math.inf).probs
        _CHAINS.clear()
        order = np.random.default_rng(5).permutation(len(queries))
        for i in order:
            n, k, init = queries[i]
            probs = exact_pmf_Y(model, n, k, init, deficit_ceiling=math.inf).probs
            assert np.array_equal(probs, alone[queries[i]])

    @pytest.mark.parametrize("model", [
        make_model("geometric-critical", {"family": "bernoulli01", "params": {"q1": 0.5}}),
        make_model("binary", "geometric-critical"),
        _bpo4(),
        make_model({"family": "poisson", "params": {"mean": 1.0}}, "geometric-critical"),
    ], ids=["geo-bern", "bin-geo", "bpo4", "po1-geo"])
    def test_closed_form_windows_agree_across_orders(self, model):
        # the stored chain runs at CIRCLE_WINDOW; a chain at K = k gives the
        # same coefficients up to rounding
        for n in (4, 64, 1024):
            full = exact_pmf_Y(model, n, CIRCLE_WINDOW, deficit_ceiling=math.inf).probs
            for k in (1, 8, 32):
                window = exact_pmf_Y(model, n, k, deficit_ceiling=math.inf).probs
                plain = _plain_window(model, n, k)
                assert np.all(plain > 0.0)
                assert np.max(np.abs(window / plain - 1.0)) <= 1e-14
                assert np.max(np.abs(full[: k + 1] / plain - 1.0)) <= 1e-14

    def test_log_heavy_windows_stay_at_their_order(self):
        # log-heavy laws are cut at K, so each K keeps its own chain
        model = _heavy_imm()
        for n, k in [(12, 20), (3, 20), (12, 9), (20, 9)]:
            pmf = exact_pmf_Y(model, n, k, deficit_ceiling=math.inf)
            assert np.array_equal(pmf.probs, _plain_window(model, n, k))

    def test_returned_arrays_do_not_alias_the_store(self, geo_bern):
        first = exact_pmf_Y(geo_bern, 30, 16, deficit_ceiling=1.0)
        before = first.probs.copy()
        first.probs[:] = 7.0
        circle = exact_pmf_Y(geo_bern, 30, 1024, deficit_ceiling=1.0)
        circle.probs[:] = 7.0
        assert np.array_equal(exact_pmf_Y(geo_bern, 30, 16, deficit_ceiling=1.0).probs, before)
        assert np.array_equal(
            exact_pmf_Y(geo_bern, 30, 1024, deficit_ceiling=1.0).probs[:17], before)
        for store in _CHAINS.values():
            for g, acc in store.states:
                assert not g.flags.writeable and not acc.flags.writeable


class TestExactCohort:
    def test_age_zero_is_immigration(self, geo_bern):
        pmf = exact_pmf_Z(geo_bern, 0, 8)
        assert np.allclose(pmf.probs, geo_bern.immigration.pmf_array(8))

    def test_one_step_binary(self, bin_bern):
        pmf = exact_pmf_Z(bin_bern, 1, 4)
        assert np.allclose(pmf.probs[:3], [0.75, 0.0, 0.25], atol=1e-15)

    def test_normalization(self, bin_bern):
        pmf = exact_pmf_Z(bin_bern, 12, 128, deficit_ceiling=1.0)
        assert abs(math.fsum(pmf.probs.tolist()) + pmf.deficit - 1.0) < 1e-12


class TestCharfn:
    def test_bit_identical_to_plain_iteration(self, bin_bern, geo_bern):
        ts = np.linspace(-math.pi, math.pi, 257)
        for model in (bin_bern, geo_bern):
            z = np.exp(1j * ts)
            w = np.ones_like(z)
            for _ in range(300):
                w = w * model.immigration.pgf(z)
                z = model.offspring.pgf(z)
            assert np.array_equal(charfn_modulus(model, 300, ts), np.abs(w))

    def test_circle_iterates_stay_in_disk(self, bin_bern, geo_bern):
        # only the first generation checks the domain; the rest rely on a
        # pgf mapping the closed disk into itself
        z = np.exp(1j * np.linspace(-math.pi, math.pi, 257))
        for model in (bin_bern, geo_bern):
            for _, w, fz in _circle_products(model, z, range(1, 4097)):
                assert np.max(np.abs(fz)) <= 1.0 + PGF_DOMAIN_TOL
                assert np.max(np.abs(w)) <= 1.0 + PGF_DOMAIN_TOL

    def test_rejects_negative_n(self, geo_bern):
        with pytest.raises(ValueError, match="n=-3"):
            charfn_modulus(geo_bern, -3, [0.0, 1.0])

    def test_at_zero(self, geo_bern):
        assert charfn_modulus(geo_bern, 17, [0.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self, bin_bern):
        ts = np.linspace(-math.pi / 2, math.pi / 2, 101)
        H = charfn_modulus(bin_bern, 64, ts)
        assert np.all(H <= 1.0 + 1e-12)

    def test_decay_scale_stable_under_doubling(self, bin_bern):
        ts = np.geomspace(1e-3, math.pi / 2, 200)
        sups = []
        for n in (128, 256, 512):
            sups.append(float(np.max(charfn_modulus(bin_bern, n, ts) * (n * ts) ** 0.5)))
        assert max(sups) < math.inf
        assert (sups[2] - sups[1]) / sups[1] < 0.05


class TestTruncatedPmf:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TruncatedPmf(np.array([0.5, -0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(FloatingPointError, match="non-finite"):
            TruncatedPmf(np.array([0.5, bad]))

    def test_K_and_deficit_come_from_probs(self):
        pmf = TruncatedPmf(np.array([0.5, 0.25]))
        assert pmf.K == 1 and pmf.deficit == 0.25
        assert pmf[5] == 0.0 and pmf[1] == 0.25
        for knob in ({"K": 7}, {"deficit": 0.0}):
            with pytest.raises(TypeError):
                TruncatedPmf(np.array([0.5, 0.25]), **knob)

    def test_clips_fft_noise(self):
        pmf = TruncatedPmf(np.array([1.0, -1e-18]))
        assert pmf.probs[1] == 0.0
        assert pmf.deficit <= 1e-15
