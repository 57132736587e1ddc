import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from gwimm import exact_pmf_Y, exact_pmf_Z, extinction_iterates, make_model
from gwimm.pgf import _CHAINS, _chain_store, _sum_walk
from gwimm.series import identity_series, series_exp, series_exp_rows, series_mul
from gwimm.theta import joint_Y_theta_window, theta_pmf, theta_survival


class TestSurvival:
    def test_l_zero_is_one(self, geo_bern):
        cache = extinction_iterates(geo_bern, 32)
        assert theta_survival(cache, 16, 0) == pytest.approx(1.0)

    def test_spec_value(self, geo_bern):
        cache = extinction_iterates(geo_bern, 8)
        assert theta_survival(cache, 2, 1) == pytest.approx(0.75, abs=1e-15)

    def test_l_equals_n_gives_atom(self, geo_bern):
        cache = extinction_iterates(geo_bern, 8)
        assert theta_survival(cache, 5, 5) == pytest.approx(float(cache.F[5]), rel=1e-14)

    def test_bounds_enforced(self, geo_bern):
        cache = extinction_iterates(geo_bern, 8)
        with pytest.raises(ValueError):
            theta_survival(cache, 4, 5)
        with pytest.raises(ValueError):
            theta_survival(cache, 9, 1)
        with pytest.raises(ValueError):
            theta_survival(cache, 4, np.array([0, 5]))

    def test_array_of_l_is_elementwise(self, geo_bern):
        cache = extinction_iterates(geo_bern, 64)
        ls = np.arange(0, 65)
        assert np.array_equal(theta_survival(cache, 64, ls),
                              [theta_survival(cache, 64, int(l)) for l in ls])


class TestPmf:
    def test_rejects_negative_n(self, geo_bern):
        cache = extinction_iterates(geo_bern, 4)
        with pytest.raises(ValueError, match="n=-2"):
            theta_pmf(cache, -2)

    def test_spec_example_n2(self, geo_bern):
        cache = extinction_iterates(geo_bern, 4)
        law = theta_pmf(cache, 2)
        assert law.pmf[1] == pytest.approx(0.25, abs=1e-15)
        assert law.pmf[2] == pytest.approx(0.375, abs=1e-15)
        assert law.atom_none == pytest.approx(0.375, abs=1e-15)
        assert law.total() == pytest.approx(1.0, abs=1e-14)

    def test_sums_to_one_large_horizon(self, geo_bern, bin_bern):
        for model in (geo_bern, bin_bern):
            cache = extinction_iterates(model, 10**4)
            law = theta_pmf(cache, 10**4)
            assert abs(law.total() - 1.0) < 1e-12

    def test_atom_is_F_of_n(self, geo_bern, bin_bern):
        # read from the store at n alone, with the bits of the whole F array
        for model in (geo_bern, bin_bern):
            cache = extinction_iterates(model, 4096)
            for n in (1, 7, 512, 4096):
                atom = theta_pmf(cache, n).atom_none
                assert type(atom) is float and atom == float(cache.F[n])

    def test_deterministic_immigration_kills_atom(self):
        model = make_model("binary", {"family": "explicit", "probs": [0.0, 1.0]})
        cache = extinction_iterates(model, 32)
        for n in (1, 5, 32):
            law = theta_pmf(cache, n)
            assert law.atom_none == 0.0
            assert law.total() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_tail_identity(self, l0):
        model = make_model("geometric-critical",
                           {"family": "bernoulli01", "params": {"q1": 0.5}})
        cache = extinction_iterates(model, 64)
        law = theta_pmf(cache, 64)
        lhs = math.fsum(law.pmf[l0 + 1:].tolist()) + law.atom_none
        assert lhs == pytest.approx(theta_survival(cache, 64, l0), abs=1e-13)


class TestJoint:
    def test_total_probability(self, bin_bern):
        cache = extinction_iterates(bin_bern, 8)
        n, K = 3, 16
        exact = exact_pmf_Y(bin_bern, n, K)
        for k in range(1, 9):
            win = joint_Y_theta_window(bin_bern, cache, n, k, K)
            total = sum(win[n - l] for l in range(1, n + 1))
            assert abs(total - exact[k]) < 1e-10

    def test_k_zero_contributes_nothing(self, bin_bern):
        cache = extinction_iterates(bin_bern, 8)
        win = joint_Y_theta_window(bin_bern, cache, 3, 0, 16)
        for l in (1, 2, 3):
            assert win[3 - l] == 0.0

    def test_oldest_cohort_row(self, bin_bern):
        # theta_n = n means the newest cohort is the first alive: its size is
        # a fresh immigration draw and everything older is dead
        cache = extinction_iterates(bin_bern, 8)
        n = 3
        prod = cache.F_ratio(n, 1)
        assert joint_Y_theta_window(bin_bern, cache, n, 1, 16)[0] == pytest.approx(
            0.5 * prod, abs=1e-15)
        assert joint_Y_theta_window(bin_bern, cache, n, 2, 16)[0] == 0.0

    def test_consistency_with_theta_marginal(self, bin_bern):
        # summing the joint over k recovers P(theta_n = l) on a bounded model
        cache = extinction_iterates(bin_bern, 8)
        n, K = 4, 32
        law = theta_pmf(cache, n)
        wins = [joint_Y_theta_window(bin_bern, cache, n, k, K) for k in range(1, K + 1)]
        for l in range(1, n + 1):
            total = sum(win[n - l] for win in wins)
            assert abs(total - law.pmf[l]) < 1e-10

    def test_window_matches_pointwise(self, geo_bern):
        # reference: the surviving cohort's law restricted to positive
        # values, convolved with an independent Y_m, times the probability
        # that every older cohort is extinct
        cache = extinction_iterates(geo_bern, 12)
        n, k, K = 12, 3, 32
        win = joint_Y_theta_window(geo_bern, cache, n, k, K)
        for m in range(n):
            z = exact_pmf_Z(geo_bern, m, K, deficit_ceiling=1.0).probs.copy()
            z[0] = 0.0
            y = exact_pmf_Y(geo_bern, m, K, deficit_ceiling=1.0).probs
            point = float(np.dot(z[: k + 1], y[k::-1])) * cache.F_ratio(n, m + 1)
            assert win[m] == pytest.approx(point, rel=1e-12, abs=1e-15)

    def test_validation(self, bin_bern):
        cache = extinction_iterates(bin_bern, 8)
        with pytest.raises(ValueError):
            joint_Y_theta_window(bin_bern, cache, 3, 40, 16)
        # k > K would read past the truncated laws (these values summed to
        # 0.0786 against P(Y_6 = 8) = 0.0218)
        with pytest.raises(ValueError, match="K=4"):
            joint_Y_theta_window(bin_bern, cache, 6, 8, 4)
        assert not joint_Y_theta_window(bin_bern, cache, 6, -1, 4).any()
        with pytest.raises(ValueError, match="horizon"):
            joint_Y_theta_window(bin_bern, cache, 12, 2, 4)
        with pytest.raises(ValueError, match="n=-2"):
            joint_Y_theta_window(bin_bern, cache, -2, 2, 4)
        assert joint_Y_theta_window(bin_bern, cache, 0, 2, 4).shape == (0,)

    @pytest.mark.parametrize("m_max", [-1, -3])
    def test_negative_m_max_raises(self, bin_bern, m_max):
        cache = extinction_iterates(bin_bern, 8)
        with pytest.raises(ValueError, match="m_max"):
            joint_Y_theta_window(bin_bern, cache, 6, 2, 4, m_max=m_max)


def _joint_per_call(model, cache, n, k, K, m_max):
    """The joint window by a fresh series chain of m_max generations at
    order K: one dot product of the cohort law and the law of Y_m per age.
    The factor's constant term h(f_m(0)) comes from the iterate store;
    Poisson immigration sums log h(f_m) by Sum2 and reads the law of Y_m
    and the cohort law as exponentials of the sums, each by
    series_exp_rows on a one-row stack."""
    imm = model.immigration
    out = np.zeros(m_max + 1)
    acc = np.zeros(K + 1)
    acc[0] = 1.0
    total = carry = np.zeros(K + 1)
    g = identity_series(K)
    for m in range(m_max + 1):
        if _sum_walk(model):
            log_factor = imm.log_apply_to_series(g, cache.one_minus_fj0[m], K)
            H, z = series_exp_rows(np.array([total + carry, log_factor]), K)
            now = total + log_factor
            back = now - total
            total, carry = now, carry + ((total - (now - back)) + (log_factor - back))
        else:
            H = acc
            factor = imm.apply_to_series(g, K)
            factor[0] = 1.0 - cache.one_minus_hfj0[m]
            z = factor.copy()
            acc = series_mul(acc, factor, K)
        z[0] = 0.0
        out[m] = float(np.dot(z[: k + 1], H[k::-1])) * cache.F_ratio(n, m + 1)
        g = model.offspring.iterate_series(g, m, 1, K)[0]
    return out


_HEAVY_IMM = make_model("binary", {"family": "log-heavy-immigration", "params": {"beta": 1.5}})
_HEAVY_OFF = make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}},
                        {"family": "bernoulli01", "params": {"q1": 0.4}})
_BPO4 = make_model("binary", {"family": "poisson", "params": {"mean": 4.0}})
_GEO_BERN = make_model("geometric-critical", {"family": "bernoulli01", "params": {"q1": 0.5}})


class TestJointRows:
    """The joint window reads the rows H_m (h(f_m) - h(f_m(0))) of the
    model's stored series chain."""

    @pytest.mark.parametrize("model", [_GEO_BERN, _BPO4, _HEAVY_IMM],
                             ids=["geo-bern", "bpo4", "heavy-imm"])
    def test_history_independent(self, model):
        rng = np.random.default_rng(11)
        cache = extinction_iterates(model, 256)
        queries = []
        for _ in range(40):
            n = int(rng.choice([1, 3, 16, 40, 128, 256]))
            k = int(rng.choice([1, 5, 16, 32]))
            m_max = [None, 0, int(rng.integers(0, n)), n + 7][int(rng.integers(0, 4))]
            queries.append((n, k, m_max))
        alone = {}
        for q in queries:
            _CHAINS.clear()
            alone[q] = joint_Y_theta_window(model, cache, q[0], q[1], q[1], m_max=q[2])
        _CHAINS.clear()
        for q in queries:
            # a window on the same chain between joint queries
            exact_pmf_Y(model, int(rng.integers(0, 300)), q[1], deficit_ceiling=math.inf)
            win = joint_Y_theta_window(model, cache, q[0], q[1], q[1], m_max=q[2])
            assert np.array_equal(win, alone[q]), q

    @pytest.mark.parametrize("model", [
        _GEO_BERN,
        make_model("binary", {"family": "bernoulli01", "params": {"q1": 0.5}}),
        # every population even: odd k are exact zeros at every age
        make_model("binary", {"family": "explicit", "probs": [0.5, 0.0, 0.5]}),
        _BPO4,
        _HEAVY_IMM,
        _HEAVY_OFF,
    ], ids=["geo-bern", "bin-bern", "bin-even", "bpo4", "heavy-imm", "heavy-off"])
    def test_matches_per_call_chain(self, model):
        cache = extinction_iterates(model, 256)
        for n, m_max in ((7, 6), (64, 63), (256, 100)):
            for k in (1, 2, 7, 16, 33):
                win = joint_Y_theta_window(model, cache, n, k, k, m_max=m_max)
                ref = _joint_per_call(model, cache, n, k, k, m_max)
                assert np.array_equal(win == 0.0, ref == 0.0), (n, k)
                nz = ref != 0.0
                assert np.all(np.abs(win[nz] / ref[nz] - 1.0) <= 1e-14), (n, k)

    def test_rows_with_F_below_the_normal_floats(self):
        # binary + poisson(80): F(m) is subnormal from m = 254 on; each row
        # against a product of the factors exp(log h(f_m)), whose constant
        # terms exp(-80 u_m) stay normal
        model = make_model("binary", {"family": "poisson", "params": {"mean": 80.0}})
        cache = extinction_iterates(model, 256)
        K = 64
        _CHAINS.clear()
        rows = _chain_store(model, K).rows(256)
        acc = np.zeros(K + 1)
        acc[0] = 1.0
        g = identity_series(K)
        for m in range(256):
            factor = series_exp(model.immigration.log_apply_to_series(g, cache.one_minus_fj0[m], K), K)
            z = factor.copy()
            z[0] = 0.0
            ref = series_mul(acc, z, K)
            normal = ref >= 2.2250738585072014e-308
            assert np.max(np.abs(rows[m][normal] / ref[normal] - 1.0), initial=0.0) <= 1e-12, m
            acc = series_mul(acc, factor, K)
            g = model.offspring.iterate_series(g, m, 1, K)[0]
        assert acc[0] < 2.2250738585072014e-308 and rows[255][K] >= 2.2250738585072014e-308

    @pytest.mark.parametrize("model", [_GEO_BERN, _BPO4], ids=["geo-bern", "bpo4"])
    def test_chain_states_unchanged(self, model):
        _CHAINS.clear()
        plain = [_chain_store(model, 8).state(n) for n in (256, 4096)]
        _CHAINS.clear()
        cache = extinction_iterates(model, 4096)
        joint_Y_theta_window(model, cache, 4096, 8, 8, m_max=300)
        joint_Y_theta_window(model, cache, 200, 3, 3)
        after = [_chain_store(model, 8).state(n) for n in (256, 4096)]
        for (g0, acc0), (g1, acc1) in zip(plain, after):
            assert np.array_equal(g0, g1) and np.array_equal(acc0, acc1)

    def test_rows_grow_to_the_ages_asked_for(self, geo_bern):
        _CHAINS.clear()
        cache = extinction_iterates(geo_bern, 4096)
        joint_Y_theta_window(geo_bern, cache, 4096, 4, 4, m_max=10)
        store = _chain_store(geo_bern, 4)
        assert store.nrows == 11
        assert max(store.horizons) == 11
        rows = store.rows(11)
        assert rows.shape == (11, store.K + 1)
        with pytest.raises(ValueError, match="read-only"):
            rows[3, 4] = 0.0
        before = rows.copy()
        joint_Y_theta_window(geo_bern, cache, 4096, 4, 4, m_max=40)
        assert store.nrows == 41
        assert np.array_equal(store.rows(11), before)
        assert np.array_equal(rows, before)


@pytest.mark.slow
def test_optimal_strategy_window(geo_bern):
    # given Y_n = k, the age of the surviving cohort concentrates on the
    # scale of k: the band [eps*k, k/eps] carries at least 90% of the mass
    n, k, eps = 4096, 64, 0.05
    cache = extinction_iterates(geo_bern, n)
    K = 128
    m_hi = min(n - 1, int(k / eps))
    win = joint_Y_theta_window(geo_bern, cache, n, k, K, m_max=m_hi)
    exact = exact_pmf_Y(geo_bern, n, 16384, deficit_ceiling=1.0)
    lo = int(math.ceil(eps * k))
    band = float(win[lo:].sum())
    assert band >= 0.9 * exact[k]
