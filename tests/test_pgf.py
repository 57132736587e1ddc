import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gwimm import (
    DeficitError,
    TruncatedPmf,
    charfn_modulus,
    exact_pmf_Y,
    exact_pmf_Z,
    extinction_iterates,
    make_law,
    make_model,
)
from gwimm.models import HEAVY_BETA_MAX, PGF_DOMAIN_TOL, Law, LogHeavyOffspringLaw
from gwimm.oracles import enumerate_population_pmf, step_pmf
from gwimm.pgf import (
    _CHAINS,
    _STORES,
    CIRCLE_WINDOW,
    DEFAULT_DEFICIT_CEILING,
    ITER_BLOCK,
    _chain_store,
    _circle_products,
    _circle_points,
    _sum_walk,
    full_law_truncation,
    gamma_upper_quantile,
    next_fast_len,
)
from gwimm.series import identity_series, series_exp, series_exp_rows, series_mul, trim

# the length of a corrected run of log-heavy offspring iterates
_GRANULE = LogHeavyOffspringLaw.iterate_granule

# every array an IterateCache exposes: its three fields, views of the store,
# and the two arrays it derives from them on first read
CACHE_ARRAYS = ("one_minus_fj0", "logF", "F", "logF_pos", "zero_generations")


class TestIterates:
    def test_geometric_closed_form(self, geo_bern):
        cache = extinction_iterates(geo_bern, 1000)
        ns = np.arange(1001, dtype=float)
        fj0 = 1.0 - cache.one_minus_fj0
        assert np.max(np.abs(fj0 - ns / (ns + 1.0))) < 1e-12
        assert fj0[0] == 0.0

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
        L1, L4 = np.exp(cache.logL_at([1, 4]))
        assert L1 == pytest.approx(2.0, abs=1e-14)
        assert L4 == pytest.approx(64.0 / 35.0, abs=1e-14)

    def test_L_cache_identity(self, geo_bern):
        cache = extinction_iterates(geo_bern, 100)
        n = np.arange(1, 101)
        L = np.exp(cache.logL_at(n))
        assert np.max(np.abs(L * n**geo_bern.gamma * cache.F[1:] - 1.0)) < 1e-12

    def test_monotonicity(self, bin_bern):
        cache = extinction_iterates(bin_bern, 500)
        assert np.all(np.diff(1.0 - cache.one_minus_fj0) > 0)
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
        # n u_n B / 2 for n = 1..N converges to 1 when B < inf
        def kolmogorov(model, N):
            u = extinction_iterates(model, N).one_minus_fj0[1:]
            return np.arange(1, N + 1, dtype=float) * u * (model.B / 2.0)

        kd = kolmogorov(geo_bern, 10**4)
        assert kd[98] == pytest.approx(0.99, abs=1e-12)   # n = 99
        assert kd[9998] == pytest.approx(0.9999, abs=1e-12)
        kb = kolmogorov(bin_bern, 10)
        assert kb[0] == pytest.approx(0.25, abs=1e-15)    # n = 1
        # converges to 1
        assert abs(kd[-1] - 1.0) < 1e-3

    def test_slow_variation(self, geo_bern, bin_bern):
        for model in (geo_bern, bin_bern):
            cache = extinction_iterates(model, 5 * 10**5)
            for c in (2, 5):
                L_lo, L_hi = np.exp(cache.logL_at([10**5, c * 10**5]))
                ratio = L_hi / L_lo
                assert abs(ratio - 1.0) < 0.01

    def test_lemma4_product_identity(self, geo_bern):
        cache = extinction_iterates(geo_bern, 10**4)
        k, n = 100, 10**4
        prod = cache.F_ratio(n, k)
        logL_k, logL_n = cache.logL_at([k, n])
        rhs = (k / n) ** geo_bern.gamma * math.exp(logL_k - logL_n)
        assert 0.99 <= prod / rhs <= 1.01


_BERN = {"family": "bernoulli01", "params": {"q1": 0.4}}


class TestIterStore:
    """The store runs the offspring recursion through one_minus_iterates
    (a scalar loop, a closed form or corrected runs); the rest is on
    arrays, one block of ITER_BLOCK generations at a time."""

    @pytest.mark.parametrize("model", [
        make_model("geometric-critical", _BERN),
        make_model("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}}),
        # h(0) = 0: a zero factor at j = 0
        make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}),
        make_model("binary", {"family": "log-heavy-immigration", "params": {"beta": 1.5}}),
        make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}}, _BERN),
        make_model({"family": "log-heavy-offspring", "params": {"beta": HEAVY_BETA_MAX}}, _BERN),
    ], ids=["geo-bern", "geo-poisson", "bin-explicit", "heavy-imm", "heavy-off",
            "heavy-off-beta-max"])
    def test_history_independent(self, model):
        N = 2 * ITER_BLOCK + 17
        _STORES.pop(model, None)
        for n in (1, 5, _GRANULE - 1, _GRANULE, _GRANULE + 1, ITER_BLOCK - 1, ITER_BLOCK,
                  ITER_BLOCK + 3, 2 * ITER_BLOCK + 1, N):
            grown = extinction_iterates(model, n)
        _STORES.pop(model)
        fresh = extinction_iterates(model, N)
        for name in ("logF", "logF_pos", "one_minus_fj0", "zero_generations"):
            assert np.array_equal(getattr(grown, name), getattr(fresh, name)), name
        assert np.array_equal(grown.one_minus_hfj0_at(slice(None)),
                              fresh.one_minus_hfj0_at(slice(None)))
        assert fresh.zero_generations.tolist() == ([0] if model.immigration.kind == "explicit"
                                                   else [])

    @pytest.mark.parametrize("model, granule", [
        (make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}}, _BERN), _GRANULE),
        (make_model("geometric-critical", _BERN), 1),
        (make_model("binary", {"family": "log-heavy-immigration", "params": {"beta": 1.5}}), 1),
    ], ids=["heavy-off", "geo-bern", "heavy-imm"])
    def test_fills_round_up_to_the_granule_only_for_log_heavy_offspring(self, model, granule):
        _STORES.pop(model, None)
        for n in (5, _GRANULE + 1):
            cache = extinction_iterates(model, n)
            assert _STORES[model].filled == -(-n // granule) * granule
            assert cache.one_minus_fj0.shape == (n + 1,)

    def test_interrupted_growth_resumes_exactly(self, monkeypatch):
        model = make_model("geometric-critical", _BERN)
        imm, calls = model.immigration, []

        def failing_third_call(u):
            calls.append(u)
            if len(calls) == 3:  # blocks 1 and 2 are filled, block 3 is not
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
        assert np.array_equal(resumed.one_minus_hfj0_at(slice(None)),
                              fresh.one_minus_hfj0_at(slice(None)))

    def test_geometric_iterates_are_the_closed_form(self):
        # f_j(0) = j/(j+1): the store holds 1/(j+1), correctly rounded
        model = make_model("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}})
        n = 300000
        got = extinction_iterates(model, n).one_minus_fj0
        assert np.array_equal(got, 1.0 / np.arange(1, n + 2))

    def test_log_F_matches_harmonic_number(self):
        # geometric offspring: u_j = 1/(j+1); poisson(2) immigration:
        # log h(f_j(0)) = -2 u_j, so log F(n) = -2 H_n
        model = make_model("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}})
        n = 300000
        with mpmath.workdps(40):
            ref = float(-2 * mpmath.harmonic(n))
        assert abs(extinction_iterates(model, n).logF[n] - ref) <= 1e-13

    def test_log_F_is_the_rounded_exact_prefix_sum(self, bin_bern):
        cache = extinction_iterates(bin_bern, 3 * ITER_BLOCK)
        exact, ref = Fraction(0), [0.0]
        for term in np.log1p(-cache.one_minus_hfj0_at(slice(None, -1))).tolist():
            exact += Fraction(term)
            ref.append(float(exact))
        err = np.abs(cache.logF - np.array(ref))
        assert np.max(err / np.spacing(np.abs(ref))) <= 1.0


    def test_store_keeps_two_float_arrays_per_generation(self):
        # u_j and the log F prefix, 16 bytes a generation; v_j is derived
        # and the zero factors are a list of generations
        model = make_model("binary", {"family": "poisson", "params": {"mean": 200.0}})
        _STORES.pop(model, None)
        extinction_iterates(model, 3 * ITER_BLOCK)
        store = _STORES[model]
        per_generation = {name: value for name, value in vars(store).items()
                          if isinstance(value, np.ndarray) and value.shape[0] > store.filled}
        assert sorted(per_generation) == ["logFp", "u"]
        assert all(a.dtype == np.float64 and a.ndim == 1 for a in per_generation.values())
        assert store.zeros.tolist() == list(range(7))

    @pytest.mark.parametrize("model", [
        make_model("geometric-critical", _BERN),
        make_model("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}}),
        make_model("binary", "geometric-critical"),
        make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}),
        make_model({"family": "explicit", "probs": [0.3, 0.45, 0.2, 0.05]},
                   {"family": "explicit", "probs": [0.2, 0.3, 0.5]}),
        make_model({"family": "poisson", "params": {"mean": 1.0}}, _BERN),
        make_model("binary", {"family": "poisson", "params": {"mean": 200.0}}),
        make_model("binary", {"family": "log-heavy-immigration", "params": {"beta": 1.5}}),
        make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}}, _BERN),
    ], ids=["geo-bern", "geo-poisson", "bin-geo", "bin-explicit(q0=0)", "explicit-explicit",
            "poisson-bern", "bin-poisson(200)", "heavy-imm", "heavy-off"])
    def test_derived_factors_have_the_blockwise_bits(self, model):
        # v_j as the store once kept it: v_0 alone, then one immigration
        # call per block of generations a+1..b
        N = 2 * ITER_BLOCK + 17
        cache = extinction_iterates(model, N)
        u, imm = cache.one_minus_fj0, model.immigration
        ref = np.empty(N + 1)
        ref[0] = imm.one_minus_pgf(u[:1])[0]
        for a in range(0, N, ITER_BLOCK):
            b = min(a + ITER_BLOCK, N)
            ref[a + 1 : b + 1] = imm.one_minus_pgf(u[a + 1 : b + 1])
        js = np.arange(N + 1)
        assert cache.one_minus_hfj0_at(slice(None)).tobytes() == ref.tobytes()
        assert cache.one_minus_hfj0_at(js[::-1]).tobytes() == ref[::-1].tobytes()
        for j in (0, 1, ITER_BLOCK - 1, ITER_BLOCK, ITER_BLOCK + 1, N):
            v = cache.one_minus_hfj0_at(j)
            assert type(v) is float and v == ref[j]
        assert cache.zero_generations.tolist() == np.flatnonzero(ref[:-1] >= 1.0).tolist()

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

    @pytest.mark.parametrize("model", [
        make_model("geometric-critical", _BERN),
        make_model("binary", {"family": "poisson", "params": {"mean": 200.0}}),
        make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}),
    ], ids=["geo-bern", "bin-poisson(200)", "bin-explicit"])
    def test_ratios_match_the_zero_factor_counts(self, model):
        # the counts of zero factors below each n, formed from the derived
        # factors, give the ratios bit for bit, with or without zeros
        N = 48
        cache = extinction_iterates(model, N)
        zero = cache.one_minus_hfj0_at(slice(None, -1)) >= 1.0
        counts = np.concatenate(([0], np.cumsum(zero)))
        ns, ms = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
        ref = np.where(counts[ns] == counts[ms], cache.logF_pos[ns] - cache.logF_pos[ms], -np.inf)
        assert cache.log_F_ratio(ns, ms).tobytes() == ref.tobytes()
        if model.immigration.kind == "poisson":
            # binary + poisson(200): h(f_j(0)) = exp(-200 u_j) is 0 for j <= 6
            assert cache.zero_generations.tolist() == list(range(7))
            assert np.all(np.isinf(cache.logF_at(np.arange(1, N + 1))))
            assert np.all(np.isfinite(cache.log_F_ratio(np.arange(7, N + 1), 7)))
            assert cache.log_F_ratio(8, 6) == -np.inf

    def test_zero_factor_ratios(self):
        cache = extinction_iterates(
            make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}), 16)
        assert cache.F_ratio(5, 0) == 0.0
        assert cache.log_F_ratio(5, 0) == -np.inf
        # both F values vanish, their ratio does not
        assert 0.0 < cache.F_ratio(5, 1) < 1.0
        assert cache.F_ratio(5, 1) == pytest.approx(
            math.prod(1.0 - cache.one_minus_hfj0_at(slice(1, 5))), rel=1e-14)


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

    def test_deficit_ceiling_raises(self, geo_bern):
        # bernoulli01 immigrants never exceed K: the message names no tail bound
        with pytest.raises(DeficitError) as err:
            exact_pmf_Y(geo_bern, 256, 64)
        assert str(err.value).endswith("at n=256; increase the truncation bound K=64")

    def test_heavy_refusal_names_the_immigrants_tail(self):
        # Y_16 >= the last batch, whose tail alone is 5.2e-05 at K = 211
        model = _heavy_imm()
        imm = model.immigration
        with pytest.raises(DeficitError) as err:
            exact_pmf_Y(model, 16, 211)
        assert str(err.value).endswith(
            "at n=16; increase the truncation bound K=211; P(Y_n > K) >= 5.2e-05 from the "
            "last generation's immigrants alone, and this bound meets the ceiling only "
            "at K >= 5765")
        assert imm.tail_mass(5764) > DEFAULT_DEFICIT_CEILING >= imm.tail_mass(5765)

    def test_refusal_stops_at_the_tails_rounding_floor(self):
        # poisson(4)'s tail_mass = 1 - sum(pmf) stays at 2.2e-16 from K = 64
        # on: no K meets a ceiling of 1e-20, and the search stops there
        model = make_model("binary", {"family": "poisson", "params": {"mean": 4.0}})
        with pytest.raises(DeficitError, match=r"ceiling only at K >= 17$"):
            exact_pmf_Y(model, 4, 3)
        with pytest.raises(DeficitError, match="meets the ceiling at no K tried$"):
            exact_pmf_Y(model, 4, 3, deficit_ceiling=1e-20)

    def test_negative_truncation_rejected(self, geo_bern):
        with pytest.raises(ValueError, match="K=-5"):
            exact_pmf_Y(geo_bern, 4, -5)
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


class TestFullLawTruncation:
    """full_law_truncation sizes K so the default full law meets the 1e-6
    deficit guard, founders included."""

    @pytest.mark.parametrize("offspring, immigration", [
        ("binary", {"family": "bernoulli01", "params": {"q1": 0.5}}),
        ("geometric-critical", {"family": "bernoulli01", "params": {"q1": 0.5}}),
        ("binary", {"family": "poisson", "params": {"mean": 2.0}}),
    ], ids=["binary+bern", "geo+bern", "binary+poisson(2)"])
    @pytest.mark.parametrize("n", [1, 4, 10, 64, 256])
    def test_deficit_within_guard(self, offspring, immigration, n):
        model = make_model(offspring, immigration)
        # without founders: the immigrants' gamma-limit rule alone
        x_hi = float(special.gammainccinv(model.gamma, 1e-8))
        assert full_law_truncation(model, n, 1e-8) == int(x_hi * model.B * n / 2.0) + 64
        for initial in (0, 1, 10, 50, 200, 1000):
            K = full_law_truncation(model, n, 1e-8, initial)
            pmf = exact_pmf_Y(model, n, K, initial, deficit_ceiling=math.inf)
            assert pmf.deficit <= 1e-6, (initial, K, pmf.deficit)


    @pytest.mark.parametrize("tail", [0.0, 1.0, 2.0, -1e-3, math.nan, math.inf])
    def test_rejects_tail_outside_the_unit_interval(self, bin_bern, tail):
        with pytest.raises(ValueError, match="tail"):
            full_law_truncation(bin_bern, 16, tail)
        with pytest.raises(ValueError, match="tail"):
            full_law_truncation(bin_bern, 16, tail, initial=10)


class TestNumpyOnlyHelpers:
    """The quantile and the FFT length that replace scipy's, against scipy."""

    def test_gamma_upper_quantile_against_scipy(self):
        tails = (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 0.1, 0.5)
        for a in np.geomspace(0.01, 500.0, 60):
            for tail in tails:
                want = float(special.gammainccinv(a, tail))
                assert gamma_upper_quantile(float(a), tail) == pytest.approx(
                    want, rel=1e-13, abs=0.0), (a, tail)

    @pytest.mark.parametrize("a, tail", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0)])
    def test_gamma_upper_quantile_rejects_bad_arguments(self, a, tail):
        with pytest.raises(ValueError):
            gamma_upper_quantile(a, tail)

    def test_next_fast_len_against_scipy(self):
        from scipy import fft

        for n in range(1, 30000):
            assert next_fast_len(n) == fft.next_fast_len(n, real=True), n


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


def _mpmath_binary_window(immigration, n, K):
    """Coefficients 0..K of prod_{m<n} h(f_m(s)) for binary offspring, in
    40-digit mpmath: the recurrence of perfbench/oracle.py's
    reference_window_mp.  Poisson immigration composes by the exponential
    recurrence, Bernoulli immigration in closed form; neither is cut."""
    with mpmath.workdps(40):
        poisson = immigration["family"] == "poisson"
        param = mpmath.mpf(immigration["params"]["mean" if poisson else "q1"])

        def conv(a, b):
            return [mpmath.fsum(a[i] * b[j - i] for i in range(j + 1)) for j in range(K + 1)]

        g = [mpmath.mpf(0), mpmath.mpf(1)] + [mpmath.mpf(0)] * (K - 1)
        acc = [mpmath.mpf(1)] + [mpmath.mpf(0)] * K
        for _ in range(n):
            if poisson:
                a = [param * (g[0] - 1)] + [param * x for x in g[1:]]
                h = [mpmath.exp(a[0])]
                for k in range(1, K + 1):
                    h.append(mpmath.fsum(j * a[j] * h[k - j] for j in range(1, k + 1)) / k)
            else:
                h = [1 - param + param * g[0]] + [param * x for x in g[1:]]
            acc = conv(acc, h)
            sq = conv(g, g)
            g = [(1 + sq[0]) / 2] + [x / 2 for x in sq[1:]]
        return [float(x) for x in acc]


class TestSeriesAccuracy:
    """Series windows against 40-digit mpmath (the accuracy checks), and
    P(Y_n = 0) against F(n) at late horizons, where a constant term
    composed from the chain's own f_m(0) drifted.  Coefficient 0 now reads
    the iterate store, as F(n) does, so the F(n) tests check consistency
    with the store, not accuracy."""

    @pytest.mark.parametrize("immigration, K, bound", [
        ({"family": "poisson", "params": {"mean": 4.0}}, 8, 1e-13),
        ({"family": "bernoulli01", "params": {"q1": 0.5}}, 16, 5e-14),
    ], ids=["bpo4", "bin-bern"])
    def test_window_against_mpmath(self, immigration, K, bound):
        model = make_model("binary", immigration)
        window = exact_pmf_Y(model, 1024, K, deficit_ceiling=math.inf).probs
        ref = np.array(_mpmath_binary_window(immigration, 1024, K))
        assert np.all(ref > 0.0)
        assert np.max(np.abs(window / ref - 1.0)) <= bound

    @pytest.mark.parametrize("model", [
        _bpo4(),
        make_model("binary", {"family": "bernoulli01", "params": {"q1": 0.5}}),
    ], ids=["bpo4", "bin-bern"])
    def test_zero_coefficient_equals_F_late(self, model):
        F = extinction_iterates(model, 4096).F[4096]
        pmf = exact_pmf_Y(model, 4096, 64, deficit_ceiling=math.inf)
        assert pmf.probs[0] == pytest.approx(F, rel=1e-13, abs=0.0)

    def test_window_with_F_below_the_normal_floats(self):
        # binary + poisson(80): F(256) = 6.2e-317 is subnormal, P(Y_256 = 64)
        # = 2.3e-269 is not; every normal coefficient keeps its accuracy
        immigration = {"family": "poisson", "params": {"mean": 80.0}}
        model = make_model("binary", immigration)
        window = exact_pmf_Y(model, 256, 64, deficit_ceiling=math.inf).probs
        ref = np.array(_mpmath_binary_window(immigration, 256, 64))
        normal = ref >= 2.2250738585072014e-308
        assert not normal[0] and normal[64]
        assert np.max(np.abs(window[normal] / ref[normal] - 1.0)) <= 5e-13

    def test_log_heavy_offspring_zero_coefficient(self):
        # the offspring series is cut at K, yet coefficient 0 comes from the
        # iterate store's u_m (it read 99.9994% low when composed from f_m(0))
        model = make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}},
                           {"family": "poisson", "params": {"mean": 1.0}})
        F = extinction_iterates(model, 1024).F[1024]
        pmf = exact_pmf_Y(model, 1024, 16, deficit_ceiling=math.inf)
        assert pmf.probs[0] == pytest.approx(F, rel=1e-13, abs=0.0)


def _split(a, bits):
    """(u, hi, lo) with a = u * hi + lo exactly: u a power of two, hi
    integers of modulus at most 2**bits, |lo| <= u / 2."""
    top = float(np.max(np.abs(a)))
    u = math.ldexp(1.0, max(math.frexp(top)[1] - bits, -1000))
    hi = np.rint(a / u)
    return u, hi, a - hi * u


def _mul_direct(a, b, K):
    """Schoolbook product with each input split as in _split.

    The integer parts are small enough that their convolution sums
    exactly; the rest carries a factor 2**-bits.  So each coefficient is
    within about half an ulp of the true one, where a plain running sum
    drifts by up to len * eps * max|a| max|b|.
    """
    a = np.asarray(a, float)[: K + 1]
    b = np.asarray(b, float)[: K + 1]
    bits = int((52.0 - math.log2(min(a.shape[0], b.shape[0]))) // 2)
    ua, ha, la = _split(a, bits)
    ub, hb, lb = _split(b, bits)
    exact = np.convolve(ha, hb) * (ua * ub)
    rest = ua * np.convolve(ha, lb) + ub * np.convolve(la, hb) + np.convolve(la, lb)
    return trim(exact + rest, K)


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
        g = 0.5 * _mul_direct(g, g, K)
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

    @pytest.mark.parametrize("immigration", [{"family": "bernoulli01", "params": {"q1": 0.5}},
                                             {"family": "poisson", "params": {"mean": 2.0}}],
                             ids=["bern", "poisson2"])
    def test_coefficients_beyond_the_window_against_series(self, immigration):
        # coefficients 65..512 of the circle route at K = 2048 against the
        # series route at K = 512, exact to relative rounding here
        model = make_model("geometric-critical", immigration)
        circle = exact_pmf_Y(model, 256, 2048, deficit_ceiling=math.inf)
        series = exact_pmf_Y(model, 256, 512, deficit_ceiling=math.inf)
        assert circle.path == "circle" and series.path == "series"
        err = np.abs(circle.probs[CIRCLE_WINDOW + 1 : 513] - series.probs[CIRCLE_WINDOW + 1 :])
        assert np.max(err) <= 5e-17

    def test_binary_window_keeps_lattice_zeros(self, bin_bern):
        pmf = exact_pmf_Z(bin_bern, 256, 2048, deficit_ceiling=math.inf)
        assert np.all(pmf.probs[1 : CIRCLE_WINDOW + 1 : 2] == 0.0)
        assert np.all(pmf.probs[0 : CIRCLE_WINDOW + 1 : 2] > 0.0)

    def test_initial_particles_match_series(self, bin_bern):
        # the series route at a K below DIRECT_CONV_MAX is exact here too
        circle = exact_pmf_Y(bin_bern, 24, 600, initial=3, deficit_ceiling=1.0)
        series = exact_pmf_Y(bin_bern, 24, 400, initial=3, deficit_ceiling=1.0)
        assert circle.path == "circle" and series.path == "series"
        assert np.max(np.abs(circle.probs[:401] - series.probs)) <= 1e-13

    @pytest.mark.parametrize("offspring", [
        "geometric-critical", "binary", {"family": "explicit", "probs": [0.3, 0.45, 0.2, 0.05]},
        {"family": "poisson", "params": {"mean": 1.0}},
    ], ids=["geometric", "binary", "explicit", "poisson1"])
    @pytest.mark.parametrize("immigration", ["bern", "geo", "poisson2"])
    def test_walk_in_place_has_the_bits_of_fresh_arrays(self, offspring, immigration):
        model = make_model(offspring, _IMMIGRATION[immigration])
        _, _, u = _circle_points(600)
        start = u.copy()
        w_ref, u_ref = np.ones_like(u), u
        for _ in range(40):
            w_ref = w_ref * (1.0 - model.immigration.one_minus_pgf(u_ref))
            u_ref = model.offspring.one_minus_pgf(u_ref)
        w, um = _circle_products(model, u, 40)
        assert np.array_equal(w, w_ref) and np.array_equal(um, u_ref)
        assert np.array_equal(_circle_products(model, u, 40, products=False)[1], u_ref)
        assert np.array_equal(u, start)  # the caller's points are left as they were

    def test_heavy_law_stays_on_series(self):
        model = make_model("binary", {"family": "log-heavy-immigration",
                                      "params": {"beta": 1.5}})
        pmf = exact_pmf_Y(model, 2, 600, deficit_ceiling=math.inf)
        assert pmf.path == "series"

    def test_short_truncation_stays_on_series(self, geo_bern):
        assert exact_pmf_Y(geo_bern, 8, 512, deficit_ceiling=1.0).path == "series"
        assert exact_pmf_Z(geo_bern, 8, 512, deficit_ceiling=1.0).path == "series"


def _sum2_step(total, carry, term):
    """One Sum2 addition: the running sum and the running sum of its
    rounding errors after adding term."""
    now = total + term
    back = now - total
    return now, carry + ((total - (now - back)) + (term - back))


def _one_generation_at_a_time(model, ns, K):
    """{n: (series of f_n, series of H_n)} for n in ns, and the joint rows
    R_0..R_{max(ns)-1}, by a fresh chain at order K that steps one
    generation at a time.  Per generation one immigration factor, one
    product per row and per H, then one offspring iterate; the factor's
    constant term h(f_m(0)) = 1 - v_m comes from the iterate store.
    Poisson immigration instead adds log h(f_m), its constant from u_m,
    to S_m by one Sum2 step, and takes H_n = exp(S_n) at each n in ns.
    Its rows are exp(S_m) exp(log h(f_m)), less the constant, with the
    exponentials of all rows in one series_exp_rows call: each row has
    the bits of the call on that row alone (test_series)."""
    off, imm = model.offspring, model.immigration
    sums = _sum_walk(model)
    cache = extinction_iterates(model, max(max(ns), 1))
    g = identity_series(K)
    acc = np.zeros(K + 1)
    acc[0] = 1.0
    total = carry = np.zeros(K + 1)
    states, rows = {}, np.zeros((max(ns), K + 1))
    row_sums, row_logs = [], []
    for m in range(max(ns) + 1):
        if sums and m in ns:
            acc = series_exp(total + carry, K)
        if m in ns:
            states[m] = (g, acc)
        if m == max(ns):
            break
        if sums:
            log_factor = imm.log_apply_to_series(g, cache.one_minus_fj0[m], K)
            row_sums.append(total + carry)
            row_logs.append(log_factor)
            total, carry = _sum2_step(total, carry, log_factor)
        else:
            factor = imm.apply_to_series(g, K)
            factor[0] = 1.0 - cache.one_minus_hfj0_at(m)
            z = factor.copy()
            z[0] = 0.0
            rows[m] = series_mul(acc, z, K)
            acc = series_mul(acc, factor, K)
        g = off.iterate_series(g, m, 1, K)[0]
    if sums and row_sums:
        H = series_exp_rows(np.array(row_sums), K)
        z = series_exp_rows(np.array(row_logs), K)
        z[:, 0] = 0.0
        for m in range(len(row_sums)):
            rows[m] = series_mul(H[m], z[m], K)
    return states, rows


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
        (make_model({"family": "poisson", "params": {"mean": 1.0}}, _bern(0.5)),
         CIRCLE_WINDOW),
        (_heavy_imm(), 16),
        (make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}}, _bern(0.5)),
         8),
    ], ids=["geo-bern", "bin-bern", "bin-po", "geo-geo", "bin-explicit", "po-bern",
            "heavy-imm", "heavy-off"])
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

    @pytest.mark.parametrize("K", [0, 1, 63, 64, 65, 512])
    @pytest.mark.parametrize("rate", [1.0, 2.3])
    def test_poisson_block_hook_against_one_row_route(self, K, rate):
        # the stacked block against exp(rate (f_r - 1)) one row at a time by
        # series_exp: both are sums of nonnegative terms, each within about
        # k eps relative per generation, so they agree within 2 G K eps
        # over G generations; a block split in two has the block's bits
        law = make_law({"family": "poisson", "params": {"mean": rate}})
        g = identity_series(K)
        block = law.iterate_series(g, 0, 40, K)
        assert block.shape == (40, K + 1) and block.flags.c_contiguous
        one = np.array(Law.iterate_series(law, g, 0, 40, K))
        normal = one >= 2.2250738585072014e-308
        assert np.all(block[~normal] < 2.2250738585072014e-308)
        bound = 2 * 40 * max(K, 1) * np.finfo(float).eps
        assert np.max(np.abs(block[normal] / one[normal] - 1.0)) <= bound
        first = law.iterate_series(g, 0, 17, K)
        rest = law.iterate_series(first[-1], 17, 23, K)
        assert np.array_equal(np.concatenate((first, rest)), block)

    @pytest.mark.parametrize("rate", [1.0, 2.3])
    def test_poisson_block_hook_against_mpmath(self, rate):
        # ten generations at K = 65 against the recurrence at 30 digits
        K = 65
        block = make_law({"family": "poisson", "params": {"mean": rate}}).iterate_series(
            identity_series(K), 0, 10, K)
        with mpmath.workdps(30):
            f = [mpmath.mpf(0)] * (K + 1)
            f[1] = mpmath.mpf(1)
            for row in block:
                c = [rate * i * f[i] for i in range(K + 1)]
                f = [mpmath.exp(rate * (f[0] - 1))]
                for k in range(1, K + 1):
                    f.append(mpmath.fsum(c[i] * f[k - i] for i in range(1, k + 1)) / k)
                ref = np.array([float(x) for x in f])
                assert np.max(np.abs(row[1:] / ref[1:] - 1.0)) <= 1e-13
                assert abs(row[0] / ref[0] - 1.0) <= 1e-15

    def test_poisson_block_hook_with_a_subnormal_constant(self):
        # exp(-rate) is not a normal float: the rows go through series_exp
        law = make_law({"family": "poisson", "params": {"mean": 800.0}})
        g = identity_series(64)
        block = law.iterate_series(g, 0, 5, 64)
        assert np.array_equal(block, Law.iterate_series(law, g, 0, 5, 64))


def _binary_iterates(K):
    """Series of f_0..f_6 for the binary pgf: series of pgfs, the first
    with g[0] = 0."""
    stack = [identity_series(K)]
    for _ in range(6):
        g = 0.5 * series_mul(stack[-1], stack[-1], K)
        g[0] += 0.5
        stack.append(g)
    return stack


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
        stack = _binary_iterates(K + 3)
        for width in (K + 1, K + 4, min(K + 1, 2)):
            rows = np.array([s[:width] for s in stack])
            out = law.apply_to_series(rows, K)
            assert out.shape == (len(rows), K + 1)
            for row, got in zip(rows, out):
                assert np.array_equal(got, law.apply_to_series(row, K))

    @pytest.mark.parametrize("K", [0, 5, 64])
    def test_poisson_log_rows(self, K):
        # each row is the single-series call, and its exponential is
        # apply_to_series when u is 1 - g[0]
        law = make_law({"family": "poisson", "params": {"mean": 2.3}})
        stack = np.array(_binary_iterates(K))
        u = 1.0 - stack[:, 0]
        rows = law.log_apply_to_series(stack, u, K)
        assert rows.shape == (len(stack), K + 1)
        for g, ui, got in zip(stack, u, rows):
            assert np.array_equal(got, law.log_apply_to_series(g, ui, K))
            assert np.array_equal(series_exp(got, K), law.apply_to_series(g, K))
            assert np.all(got[1:] >= 0.0)


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

    @pytest.mark.parametrize("m", [1024, 4096])
    @pytest.mark.parametrize("immigration", [
        {"family": "poisson", "params": {"mean": 4.0}},
        {"family": "poisson", "params": {"mean": 1.0}},
        {"family": "bernoulli01", "params": {"q1": 0.5}},
        "geometric-critical",
    ], ids=["poisson(4)", "poisson(1)", "bernoulli01(0.5)", "geometric"])
    def test_constant_term_is_the_store_survival(self, immigration, m):
        # P(Z^(m) = 0) is 1 - v_m from the iterate store, to the bit, not
        # the drifting constant of the series chain's own f_m(0)
        model = make_model("binary", immigration)
        v = extinction_iterates(model, m).one_minus_hfj0_at(m)
        assert exact_pmf_Z(model, m, 64, deficit_ceiling=math.inf)[0] == 1.0 - v


_IMMIGRATION = {
    "bern": {"family": "bernoulli01", "params": {"q1": 0.5}},
    "geo": "geometric-critical",
    "poisson2": {"family": "poisson", "params": {"mean": 2.0}},
    "poisson20": {"family": "poisson", "params": {"mean": 20.0}},
}


def _mpmath_charfn(offspring, immigration, n, ts):
    """|H_n(e^{it})| at every t of ts by the walk z <- f(z) in 30-digit
    mpmath, from z = e^{it} at the exact float t."""
    f = {"binary": lambda z: (1 + z * z) / 2,
         "geometric-critical": lambda z: 1 / (2 - z)}[offspring]
    h = {"bern": lambda z: (1 + z) / 2,
         "geo": lambda z: 1 / (2 - z),
         "poisson2": lambda z: mpmath.exp(2 * (z - 1)),
         "poisson20": lambda z: mpmath.exp(20 * (z - 1))}[immigration]
    out = []
    with mpmath.workdps(30):
        for t in ts:
            z, w = mpmath.exp(1j * mpmath.mpf(t)), mpmath.mpc(1)
            for _ in range(n):
                w *= h(z)
                z = f(z)
            out.append(float(abs(w)))
    return np.array(out)


class TestCharfn:
    def test_bit_identical_to_plain_iteration(self, bin_bern, geo_bern):
        # a plain walk of u = 1 - z by one_minus_pgf from u = -expm1(it)
        ts = np.linspace(-math.pi, math.pi, 257)
        for model in (bin_bern, geo_bern):
            u = -np.expm1(1j * ts)
            w = np.ones_like(u)
            for _ in range(300):
                w = w * (1.0 - model.immigration.one_minus_pgf(u))
                u = model.offspring.one_minus_pgf(u)
            assert np.array_equal(charfn_modulus(model, 300, ts), np.abs(w))

    def test_circle_iterates_stay_in_disk(self, bin_bern, geo_bern):
        # nothing checks the walk's domain: it relies on a pgf mapping the
        # closed disk into itself, so f_m(z) = 1 - u_m stays in it
        u = -np.expm1(1j * np.linspace(-math.pi, math.pi, 257))
        for model in (bin_bern, geo_bern):
            w, um = _circle_products(model, u, 1)
            for n in range(1, 4097):
                if n > 1:  # generation n from n - 1, as the walk steps
                    w = w * (1.0 - model.immigration.one_minus_pgf(um))
                    um = model.offspring.one_minus_pgf(um)
                assert np.max(np.abs(1.0 - um)) <= 1.0 + PGF_DOMAIN_TOL
                assert np.max(np.abs(w)) <= 1.0 + PGF_DOMAIN_TOL

    @pytest.mark.parametrize("offspring, immigration", [
        ("geometric-critical", "bern"), ("binary", "bern"),
        ("geometric-critical", "poisson2"), ("binary", "geo"),
    ])
    def test_against_mpmath(self, offspring, immigration):
        ts = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.0, math.pi]
        model = make_model(offspring, _IMMIGRATION[immigration])
        ref = _mpmath_charfn(offspring, immigration, 1024, ts)
        assert np.max(np.abs(charfn_modulus(model, 1024, ts) / ref - 1.0)) <= 5e-14

    def test_absolute_error_where_the_modulus_is_tiny(self):
        # |H_64| falls to 1e-69 here; a factor 1 - (1 - h) resolves h only
        # to about 1e-16 absolute, so the contract is absolute, relative to
        # the grid's largest modulus
        ts = np.geomspace(1e-4, math.pi, 64)
        model = make_model("binary", _IMMIGRATION["poisson20"])
        ref = _mpmath_charfn("binary", "poisson20", 64, ts)
        err = np.abs(charfn_modulus(model, 64, ts) - ref)
        assert np.max(err) <= 1e-14 * np.max(ref)

    def test_rejects_negative_n(self, geo_bern):
        with pytest.raises(ValueError, match="n=-3"):
            charfn_modulus(geo_bern, -3, [0.0, 1.0])

    def test_empty_grid(self, geo_bern):
        out = charfn_modulus(geo_bern, 5, [])
        assert isinstance(out, np.ndarray) and out.shape == (0,)

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
        assert pmf[1] == 0.25 and pmf[-1] == 0.0
        # mass past K is in the deficit, not known to be 0
        with pytest.raises(IndexError, match="K=1"):
            pmf[2]
        for knob in ({"K": 7}, {"deficit": 0.0}):
            with pytest.raises(TypeError):
                TruncatedPmf(np.array([0.5, 0.25]), **knob)

    def test_clips_fft_noise(self):
        pmf = TruncatedPmf(np.array([1.0, -1e-18]))
        assert pmf.probs[1] == 0.0
        assert pmf.deficit <= 1e-15
