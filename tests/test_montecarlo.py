import numpy as np
import pytest
from scipy import stats

from gwimm import exact_pmf_Y, exact_pmf_Z, extinction_iterates, make_law
from gwimm import montecarlo as mc
from gwimm.theta import theta_pmf


@pytest.fixture(scope="module")
def chain_pair():
    # every particle has exactly one child and one immigrant arrives per
    # generation: degenerate (B = 0), usable for simulation mechanics only
    one = make_law({"family": "explicit", "probs": [0.0, 1.0]})
    return (one, one)


class TestSimulateY:
    def test_no_steps_returns_initial(self, bin_bern):
        rng = mc.substream(0, 0)
        values, _ = mc.simulate_Y_batch(bin_bern, [0], 7, rng)
        assert values.tolist() == [7]

    def test_deterministic_chain(self, chain_pair):
        rng = mc.substream(0, 0)
        values, _ = mc.simulate_Y_batch(chain_pair, [23], 0, rng)
        assert values.tolist() == [23]

    def test_empirical_pmf_matches_exact(self, bin_bern):
        rng = mc.substream(7, 0)
        values, trips = mc.simulate_Y_batch(bin_bern, np.full(10**6, 2), 0, rng)
        assert trips == 0
        counts = np.bincount(values, minlength=4)
        _, p = stats.chisquare(counts, np.array([3, 3, 1, 1]) / 8.0 * 10**6)
        assert p > 0.001

    def test_guard_reports_not_crashes(self, bin_bern):
        rng = mc.substream(1, 0)
        values, trips = mc.simulate_Y_batch(bin_bern, np.full(200, 50), 0, rng,
                                            max_population=3)
        assert trips > 0
        assert np.all(values <= 3)

    def test_mixed_horizons_match_exact_per_horizon(self, bin_bern):
        # horizons interleaved, so draws must come back in input order
        per, horizons = 50000, np.tile([0, 1, 2, 3], 50000)
        values, trips = mc.simulate_Y_batch(bin_bern, horizons, 0, mc.substream(8, 0))
        assert trips == 0
        assert np.all(values[horizons == 0] == 0)
        for m in (1, 2, 3):
            probs = exact_pmf_Y(bin_bern, m, 8).probs
            support = np.flatnonzero(probs > 0)
            counts = np.bincount(values[horizons == m], minlength=9)
            assert counts.sum() == counts[support].sum() == per
            _, p = stats.chisquare(counts[support], probs[support] * per)
            assert p > 0.001

    def test_zero_horizon_lines_draw_nothing(self, bin_bern):
        rng = mc.substream(2, 0)
        values, _ = mc.simulate_Y_batch(bin_bern, [0, 0, 0], 5, rng)
        assert values.tolist() == [5, 5, 5]
        assert rng.random() == mc.substream(2, 0).random()
        # in a mixed batch they leave the other lines' draws unchanged
        mixed_rng, plain_rng = mc.substream(2, 1), mc.substream(2, 1)
        mixed, _ = mc.simulate_Y_batch(bin_bern, [6, 0, 6], 5, mixed_rng)
        plain, _ = mc.simulate_Y_batch(bin_bern, [6, 6], 5, plain_rng)
        assert mixed[1] == 5 and mixed[[0, 2]].tolist() == plain.tolist()
        assert mixed_rng.random() == plain_rng.random()


class TestRunLines:
    def test_per_line_generations_on_one_child_chain(self, chain_pair):
        one, _ = chain_pair
        starts = np.array([4, 1, 7, 2, 3])
        vals, idx = mc._run_lines(one, starts, np.array([3, 0, 5, 1, 2]),
                                  mc.substream(0, 0))
        assert vals.tolist() == starts.tolist()
        assert idx.tolist() == [0, 1, 2, 3, 4]


class TestSimulateTheta:
    def test_deterministic_chain_first_cohort(self, chain_pair):
        rng = mc.substream(0, 0)
        for n in (1, 5, 9):
            assert mc.simulate_theta_batch(chain_pair, n, 1, rng).tolist() == [1]

    def test_empirical_law_close_in_total_variation(self, geo_bern):
        n, draws = 16, 10**5
        cache = extinction_iterates(geo_bern, n)
        law = theta_pmf(cache, n)
        exact = np.concatenate(([law.atom_none], law.pmf[1:]))
        sample = mc.simulate_theta_batch(geo_bern, n, draws, mc.substream(3, 0))
        emp = np.bincount(sample, minlength=n + 1) / draws
        tv = 0.5 * float(np.abs(emp - exact).sum())
        assert tv < 0.01

    def test_atom_frequency_within_three_sigma(self, geo_bern):
        n, draws = 32, 10**5
        cache = extinction_iterates(geo_bern, n)
        atom = float(cache.F[n])
        sample = mc.simulate_theta_batch(geo_bern, n, draws, mc.substream(11, 0))
        freq = float(np.mean(sample == 0))
        se = (atom * (1 - atom) / draws) ** 0.5
        assert abs(freq - atom) <= 3 * se


class TestNaiveEstimator:
    def test_impossible_event(self, bin_bern):
        res = mc.estimate_lower_tail_naive(
            bin_bern, 8, -1, mc.SimConfig(samples=100, seed=0))
        assert res.estimate == 0.0 and res.stderr == 0.0

    def test_certain_event(self, bin_bern):
        res = mc.estimate_lower_tail_naive(
            bin_bern, 4, 10**9, mc.SimConfig(samples=500, seed=0))
        assert res.estimate == 1.0
        assert res.stderr == 0.0

    def test_matches_exact_within_three_sigma(self, bin_bern):
        exact = float(exact_pmf_Y(bin_bern, 64, 512, deficit_ceiling=1.0).cdf()[8])
        res = mc.estimate_lower_tail_naive(
            bin_bern, 64, 8, mc.SimConfig(samples=10**6, seed=11, streams=8))
        assert abs(res.estimate - exact) <= 3 * res.stderr

    def test_reproducible_across_streams_and_jobs(self, bin_bern):
        cfg = mc.SimConfig(samples=9999, seed=42, streams=5)
        rs = [mc.estimate_lower_tail_naive(bin_bern, 32, 4, cfg, jobs=j)
              for j in (1, 2, 4)]
        assert rs[0] == rs[1] == rs[2]


class TestStratifiedEstimator:
    def test_agrees_with_naive(self, bin_bern):
        cache = extinction_iterates(bin_bern, 128)
        cfg = mc.SimConfig(samples=30000, seed=17)
        rs = mc.estimate_lower_tail_stratified(bin_bern, cache, 128, 8, cfg)
        rn = mc.estimate_lower_tail_naive(bin_bern, 128, 8, cfg)
        sigma = (rs.stderr**2 + rn.stderr**2) ** 0.5
        assert abs(rs.estimate - rn.estimate) <= 3 * sigma + rs.bracket_high

    def test_agrees_with_exact(self, geo_bern):
        cache = extinction_iterates(geo_bern, 512)
        exact = float(exact_pmf_Y(geo_bern, 512, 4096, deficit_ceiling=1.0).cdf()[16])
        res = mc.estimate_lower_tail_stratified(
            geo_bern, cache, 512, 16, mc.SimConfig(samples=20000, seed=5))
        assert abs(res.estimate - exact) <= 3 * res.stderr + res.bracket_high

    def test_reproducible(self, geo_bern):
        cache = extinction_iterates(geo_bern, 64)
        cfg = mc.SimConfig(samples=3000, seed=9, streams=3)
        a = mc.estimate_lower_tail_stratified(geo_bern, cache, 64, 8, cfg)
        b = mc.estimate_lower_tail_stratified(geo_bern, cache, 64, 8, cfg, jobs=3)
        assert a == b

    def test_requires_full_model(self, chain_pair, geo_bern):
        cache = extinction_iterates(geo_bern, 8)
        with pytest.raises(TypeError):
            mc.estimate_lower_tail_stratified(
                chain_pair, cache, 8, 2, mc.SimConfig(samples=10, seed=0))

    def test_cache_horizon_checked(self, geo_bern):
        cache = extinction_iterates(geo_bern, 8)
        with pytest.raises(ValueError, match="horizon"):
            mc.estimate_lower_tail_stratified(
                geo_bern, cache, 16, 2, mc.SimConfig(samples=10, seed=0))

    def test_epsilon_must_be_positive(self, geo_bern):
        cache = extinction_iterates(geo_bern, 8)
        for eps in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="epsilon"):
                mc.estimate_lower_tail_stratified(
                    geo_bern, cache, 8, 2, mc.SimConfig(samples=10, seed=0), epsilon=eps)

    def test_budget_roughly_respected(self, geo_bern):
        cache = extinction_iterates(geo_bern, 256)
        res = mc.estimate_lower_tail_stratified(
            geo_bern, cache, 256, 8, mc.SimConfig(samples=5000, seed=2))
        assert 5000 <= res.samples_used <= 6500


@pytest.mark.slow
def test_unbiasedness_coverage_bounded_model(bin_bern):
    # 99% CIs cover the exact value in >= 95% of 200 repeated runs on a
    # bounded-support model at a short horizon
    n, k, runs, zq = 8, 2, 200, 2.5758293035489004
    exact = float(exact_pmf_Y(bin_bern, n, 64).cdf()[k])
    cache = extinction_iterates(bin_bern, n)
    cover_naive = cover_strat = 0
    for rep in range(runs):
        cfg = mc.SimConfig(samples=2000, seed=50_000 + rep)
        rn = mc.estimate_lower_tail_naive(bin_bern, n, k, cfg)
        if abs(rn.estimate - exact) <= zq * rn.stderr:
            cover_naive += 1
        rs = mc.estimate_lower_tail_stratified(bin_bern, cache, n, k, cfg)
        lo = rs.estimate - zq * rs.stderr
        hi = rs.estimate + zq * rs.stderr + rs.bracket_high
        if lo <= exact <= hi:
            cover_strat += 1
    assert cover_naive >= int(0.95 * runs)
    assert cover_strat >= int(0.95 * runs)


class TestConcentrationSignatures:
    def test_sup_m_pmf_bounded_across_doublings(self, bin_bern):
        # empirical version of the m * P(Y_n = m) bound, checked against the
        # exact engine's sup
        sups_exact = []
        sups_emp = []
        for n in (64, 256, 1024):
            K = 6 * n
            pmf = exact_pmf_Y(bin_bern, n, K, deficit_ceiling=1.0)
            sups_exact.append(float(np.max(np.arange(K + 1) * pmf.probs)))
            vals, _ = mc.simulate_Y_batch(bin_bern, np.full(10**5, n), 0,
                                          mc.substream(21, n))
            emp = np.bincount(vals) / 10**5
            sups_emp.append(float(np.max(np.arange(emp.size) * emp)))
        assert max(sups_exact) < 0.5
        assert max(sups_emp) < 2.0 * max(sups_exact) + 0.1

    def test_cohort_local_bound(self, geo_bern):
        # k * age * P(Z_age = k) stays bounded on an (k, age) grid
        worst = 0.0
        for age in (64, 256, 1024):
            K = 6 * age
            pz = exact_pmf_Z(geo_bern, age, K, deficit_ceiling=1.0)
            worst = max(worst, float(np.max(np.arange(K + 1) * age * pz.probs)))
        assert worst < 1.0


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc.SimConfig(samples=0, seed=0)
        with pytest.raises(ValueError):
            mc.SimConfig(samples=10, seed=0, streams=0)
