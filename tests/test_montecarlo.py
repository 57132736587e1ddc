import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gwimm import exact_pmf_Y, exact_pmf_Z, extinction_iterates, make_law, make_model
from gwimm import montecarlo as mc
from gwimm.models import Law, _reduced_step, _redraw_survivors
from gwimm.pgf import _STORES
from gwimm.theta import theta_pmf


@pytest.fixture(scope="module")
def one_child():
    # every particle has exactly one child, and as immigration one immigrant
    # arrives per generation: degenerate (B = 0), no Model, usable for the
    # sampling hooks' mechanics only
    return make_law({"family": "explicit", "probs": [0.0, 1.0]})


class TestSimulateY:
    def test_no_steps_returns_initial(self, bin_bern):
        rng = mc.substream(0, 0)
        values, _ = mc.simulate_Y_batch(bin_bern, [0], 7, rng)
        assert values.tolist() == [7]

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
        _check_zero_horizon_lines_draw_nothing(bin_bern)


def _check_zero_horizon_lines_draw_nothing(model):
    rng = mc.substream(2, 0)
    values, _ = mc.simulate_Y_batch(model, [0, 0, 0], 5, rng)
    assert values.tolist() == [5, 5, 5]
    assert rng.random() == mc.substream(2, 0).random()
    # in a mixed batch they leave the other lines' draws unchanged
    mixed_rng, plain_rng = mc.substream(2, 1), mc.substream(2, 1)
    mixed, _ = mc.simulate_Y_batch(model, [6, 0, 6], 5, mixed_rng)
    plain, _ = mc.simulate_Y_batch(model, [6, 6], 5, plain_rng)
    assert mixed[1] == 5 and mixed[[0, 2]].tolist() == plain.tolist()
    assert mixed_rng.random() == plain_rng.random()


def _chisquare_p(values, probs):
    """Chi-square p-value of integer draws against a law given by its pmf
    `probs` on 0..K, the rest of its mass lumped beyond K; cells expecting
    fewer than 5 draws are pooled into one."""
    K = probs.shape[0] - 1
    observed = np.bincount(np.minimum(values, K + 1), minlength=K + 2)
    expected = np.append(probs, max(0.0, 1.0 - float(probs.sum()))) * values.shape[0]
    small = expected < 5.0
    if expected[small].sum() > 0.0:
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    else:
        assert observed[small].sum() == 0
        observed, expected = observed[~small], expected[~small]
    return stats.chisquare(observed, expected * observed.sum() / expected.sum()).pvalue


def _two_sample_p(a, b):
    """Chi-square p-value that two integer samples share one law, on about
    20 cells cut at the pooled sample's quantiles."""
    edges = np.unique(np.quantile(np.concatenate([a, b]), np.linspace(0, 1, 21)))[1:-1]
    table = [np.bincount(np.searchsorted(edges, x, side="right"), minlength=edges.shape[0] + 1)
             for x in (a, b)]
    return stats.chi2_contingency(np.array(table)).pvalue


_GEO_POISSON = make_model("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}})
_ZERO_FACTOR_MODEL = make_model("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]})


class TestSampleGenerations:
    """The generation loop Law.sample_generations (the draws that
    _redraw_survivors conditions on survival) against the exact cohort
    law."""

    @pytest.mark.parametrize("m", [0, 1, 7, 64])
    @pytest.mark.parametrize("which", ["geo_bern", "geo_poisson"])
    def test_cohort_draws_match_exact_law(self, which, m, request):
        model = _GEO_POISSON if which == "geo_poisson" else request.getfixturevalue(which)
        N, K = 200_000, 8 * (m + 1)
        rng = mc.substream(12, m)
        z = model.offspring.sample_generations(model.immigration.sample(N, rng), m, rng)
        probs = exact_pmf_Z(model, m, K, deficit_ceiling=1.0).probs
        assert _chisquare_p(z, probs) > 0.001

    def test_per_line_generations_on_one_child_chain(self, one_child):
        starts = np.array([4, 1, 7, 2, 3])
        vals = one_child.sample_generations(starts, np.array([3, 0, 5, 1, 2]),
                                            mc.substream(0, 0))
        assert vals.tolist() == starts.tolist()

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 300)), max_size=12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_identity_cases_and_sign(self, pairs, seed):
        draw = make_law({"family": "geometric-critical"}).sample_generations
        counts = np.array([c for c, _ in pairs], dtype=np.int64)
        gens = np.array([g for _, g in pairs], dtype=np.int64)
        rng, untouched = mc.substream(seed, 0), mc.substream(seed, 0)
        out = draw(counts, gens, rng)
        assert out.dtype == np.int64 and out.shape == counts.shape
        assert np.all(out >= 0)
        assert np.array_equal(out[gens == 0], counts[gens == 0])
        assert np.all(out[counts == 0] == 0)
        if not np.any((counts > 0) & (gens > 0)):
            assert rng.random() == untouched.random()


_BERN = {"family": "bernoulli01", "params": {"q1": 0.5}}
_POISSON_1 = {"family": "poisson", "params": {"mean": 1.0}}
# a critical law on 0..3: the reduced step splits twice
_EXPLICIT_D3 = {"family": "explicit", "probs": [0.3, 0.5, 0.1, 0.1]}


def _wide_explicit_probs() -> list:
    """A critical law on 0..1099 with atoms at 0, 1, 2, 550 and 1099:
    C(1099, 549) is beyond the largest float."""
    p = np.zeros(1100)
    p[1], p[550], p[1099] = 0.2, 1e-4, 1e-4
    p[2] = (1.0 - p[1] - 550 * p[550] - 1099 * p[1099]) / 2.0
    p[0] = 1.0 - p.sum()
    return p.tolist()
# offspring law, immigration law; explicit immigration and offspring run
# the base-class hooks
_COHORT_PAIRS = {
    "geo+bern": ("geometric-critical", _BERN),
    "geo+poisson(2)": ("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}}),
    "binary+bern": ("binary", _BERN),
    "binary+poisson(1)": ("binary", _POISSON_1),
    "binary+explicit(q0=0)": ("binary", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}),
    "explicit+poisson(1)": ({"family": "explicit", "probs": [0.1, 0.8, 0.1]}, _POISSON_1),
}


def _one_minus_iterates(law, m):
    """u_0 = 1, u_1, ..., u_m of the law's extinction iterates."""
    return np.concatenate(([1.0], law.one_minus_iterates(1.0, 0, m)))


class TestConditionedCohorts:
    """Law.sample_thinned and Law.sample_survivors draw a cohort given that
    it survives, with no rejection for the closed-form families."""

    @pytest.mark.parametrize("m", [0, 1, 7, 64, 300])
    @pytest.mark.parametrize("pair", list(_COHORT_PAIRS))
    def test_cohort_draws_match_exact_law(self, pair, m):
        # B | B >= 1 from the immigration hook, then its lines given survival
        # from the offspring hook: Z_m | Z_m > 0 of one immigrant batch
        model = make_model(*_COHORT_PAIRS[pair])
        N, K = (10_000 if pair.startswith("explicit+") else 100_000), 4 * (m + 1)
        cache = extinction_iterates(model, max(m, 1))
        rng = mc.substream(18, m)
        alive, tries = model.immigration.sample_thinned(np.full(N, cache.one_minus_fj0[m]), rng)
        z = model.offspring.sample_survivors(alive, m, cache.one_minus_fj0, rng)
        assert np.all(alive >= 1) and np.all(z >= alive)
        # no family rejects: explicit immigration draws by its inverse
        # survival function
        assert tries == N
        probs = exact_pmf_Z(model, m, K, deficit_ceiling=1.0).probs
        conditioned = np.concatenate(([0.0], probs[1:] / cache.one_minus_hfj0[m]))
        if np.count_nonzero(conditioned > 1e-12) == 1:  # one atom
            assert np.all(z == np.argmax(conditioned))
        else:
            assert _chisquare_p(z, conditioned) > 0.001

    @pytest.mark.parametrize("m", [0, 1, 7, 64, 300])
    def test_heavy_thinned_draws_match_exact_law(self, m):
        # the base-class hook on log-heavy-immigration(1.5).  exact_pmf_Z cuts
        # an unbounded immigration law at p_K and undercounts every
        # coefficient, so the reference is the thinned law itself, P(B = b) =
        # sum_i q_i P(Bin(i, u_m) = b) over i <= 2**16; the mass left out is
        # below P(I > 2**16) = 6.2e-8
        model = make_model("binary", {"family": "log-heavy-immigration",
                                      "params": {"beta": 1.5}})
        law, N, K = model.immigration, 10_000, 40
        cache = extinction_iterates(model, max(m, 1))
        u = cache.one_minus_fj0[m]
        alive, tries = law.sample_thinned(np.full(N, u), mc.substream(22, m))
        assert np.all(alive >= 1) and tries > N
        q, i = law.pmf_array(2**16), np.arange(2**16 + 1)
        thinned = np.array([float(q @ stats.binom.pmf(b, i, u)) for b in range(K + 1)])
        conditioned = np.concatenate(([0.0], thinned[1:] / cache.one_minus_hfj0[m]))
        assert _chisquare_p(alive, conditioned) > 0.001

    @pytest.mark.parametrize("spec", ["binary", {"family": "explicit", "probs": [0.5, 0.3, 0.2]},
                                      {"family": "explicit", "probs": [0.0, 0.5, 0.5]}, "wide"])
    def test_bounded_thinned_draws_match_exact_law(self, spec):
        # J given J >= 1, J ~ Bin(I, u), from one uniform per entry: no
        # rejection, so as many tries as entries
        law = make_law({"family": "explicit", "probs": _wide_explicit_probs()}
                       if spec == "wide" else spec)
        N, points = 20_000, [1.0, 0.5, 1e-3]
        out, tries = law.sample_thinned(np.tile(points, N), mc.substream(46, 0))
        assert tries == 3 * N and out.dtype == np.int64
        atoms = np.arange(law.support_bound + 1)
        for col, at in enumerate(points):
            thinned = stats.binom.pmf(atoms[:, None], atoms[None, :], at) @ law.probs \
                if law.kind == "explicit" else stats.binom.pmf(atoms, 2, at)
            conditioned = np.concatenate(([0.0], thinned[1:] / thinned[1:].sum()))
            if np.count_nonzero(conditioned > 1e-12) == 1:  # one atom
                assert np.all(out[col::3] == np.argmax(conditioned))
            else:
                assert _chisquare_p(out[col::3], conditioned) > 0.001

    def test_bounded_thinned_draws_entry_by_entry(self):
        # a draw reads only its own u and uniform: one call over 40 distinct
        # u (three tables of split chances) equals calls on pieces
        law = make_law({"family": "explicit", "probs": _wide_explicit_probs()})
        u = mc.substream(47, 0).choice(np.geomspace(1e-3, 1.0, 40), size=300)
        whole, _ = law.sample_thinned(u, mc.substream(47, 1))
        rng = mc.substream(47, 1)
        pieces = [law.sample_thinned(u[a:a + 7], rng)[0] for a in range(0, 300, 7)]
        assert np.array_equal(whole, np.concatenate(pieces))
        with pytest.raises(ValueError, match="acceptance"):
            law.sample_thinned(np.array([0.5, 0.0]), rng)

    @pytest.mark.parametrize("u", [1.0, 0.3, 0.02])
    @pytest.mark.parametrize("spec", ["geometric-critical", {"family": "poisson",
                                                            "params": {"mean": 2.0}}])
    def test_thinned_closed_form_matches_rejection(self, spec, u):
        law = make_law(spec)
        closed, tries = law.sample_thinned(np.full(50_000, u), mc.substream(19, 0))
        rejected, rej_tries = Law.sample_thinned(law, np.full(50_000, u), mc.substream(19, 1))
        assert tries == 50_000 <= rej_tries
        assert _two_sample_p(closed, rejected) > 0.001

    @pytest.mark.parametrize("m", [1, 7, 64])
    @pytest.mark.parametrize("family", ["geometric-critical", "binary"])
    def test_survivors_closed_form_matches_redraw(self, family, m):
        law = make_law(family)
        u = _one_minus_iterates(law, m)
        counts = 1 + mc.substream(20, 0).poisson(1.0, size=20_000)
        closed = law.sample_survivors(counts, m, u, mc.substream(20, 1))
        redrawn = _redraw_survivors(law, counts, m, u, mc.substream(20, 2))
        assert _two_sample_p(closed, redrawn) > 0.001

    @pytest.mark.parametrize("which", ["geometric-critical", "binary", "explicit", "redraw"])
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 300)), max_size=12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_survivors_identity_cases(self, which, pairs, seed):
        law = make_law({"binary": "binary", "redraw": "binary", "explicit": _EXPLICIT_D3,
                        "geometric-critical": "geometric-critical"}[which])
        draw = (lambda *args: _redraw_survivors(law, *args)) if which == "redraw" else (
            law.sample_survivors)
        counts = np.array([c for c, _ in pairs], dtype=np.int64)
        gens = np.array([g for _, g in pairs], dtype=np.int64)
        rng, untouched = mc.substream(seed, 0), mc.substream(seed, 0)
        out = draw(counts, gens, _one_minus_iterates(law, 300), rng)
        assert out.dtype == np.int64 and out.shape == counts.shape
        assert np.all(out >= counts)
        assert np.array_equal(out[gens == 0], counts[gens == 0])
        assert np.all(out[counts == 0] == 0)
        if law.kind == "binary":
            assert np.all(out[gens > 0] % 2 == 0)
        if not np.any((counts > 0) & (gens > 0)):
            assert rng.random() == untouched.random()

    @pytest.mark.parametrize("spec", [
        "geometric-critical", {"family": "poisson", "params": {"mean": 2.0}}, _BERN,
        {"family": "explicit", "probs": [0.0, 0.5, 0.5]},
        {"family": "explicit", "probs": [0.4, 0.0, 0.6]},
    ])
    @given(st.lists(st.floats(0.01, 1.0), max_size=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_thinned_identity_cases(self, spec, us, seed):
        law = make_law(spec)
        u = np.array(us, dtype=float)
        rng, untouched = mc.substream(seed, 0), mc.substream(seed, 0)
        out, tries = law.sample_thinned(u, rng)
        assert out.dtype == np.int64 and out.shape == u.shape and tries >= u.shape[0]
        assert np.all(out >= 1)
        if law.support_bound is not None:
            assert np.all(out <= law.support_bound)
        if law.kind == "bernoulli01" or u.shape[0] == 0:
            # one immigrant at most, or no entry: nothing is drawn
            assert np.all(out == 1) and tries == u.shape[0]
            assert rng.random() == untouched.random()


class TestCohortRoute:
    """simulate_Y_batch on geometric offspring: the surviving-cohort route."""

    def test_mixed_horizons_with_initial_match_exact(self, geo_bern):
        per, K = 40_000, 64
        horizons = np.tile([0, 1, 5, 17, 40], per)
        values, trips = mc.simulate_Y_batch(geo_bern, horizons, 3, mc.substream(14, 0))
        assert trips == 0
        assert np.all(values[horizons == 0] == 3)
        for m in (1, 5, 17, 40):
            probs = exact_pmf_Y(geo_bern, m, K, initial=3, deficit_ceiling=1.0).probs
            assert _chisquare_p(values[horizons == m], probs) > 0.001

    def test_long_horizons_match_exact(self, geo_bern):
        horizons = np.tile([0, 3, 64, 200], 1000)
        values, trips = mc.simulate_Y_batch(geo_bern, horizons, 0, mc.substream(16, 0))
        assert trips == 0
        assert np.all(values[horizons == 0] == 0)
        for m in (3, 64, 200):
            probs = exact_pmf_Y(geo_bern, m, 4 * m, deficit_ceiling=1.0).probs
            assert _chisquare_p(values[horizons == m], probs) > 0.001

    @pytest.mark.parametrize("pair", ["geo+explicit(q0=0)", "geo+poisson(80)"])
    def test_zero_factor_ages_match_exact(self, pair):
        # ages whose batch always survives are drawn outside the hazard search
        model = make_model(*_SURVIVOR_PAIRS[pair])
        horizons = np.tile([1, 2, 9], 20_000)
        values, trips = mc.simulate_Y_batch(model, horizons, 1, mc.substream(43, 0))
        assert trips == 0
        for m in (1, 2, 9):
            probs = exact_pmf_Y(model, m, 40 * (m + 1), initial=1, deficit_ceiling=1.0).probs
            assert _chisquare_p(values[horizons == m], probs) > 0.001

    def test_streams_read_the_store_with_the_same_bits(self, geo_bern):
        # simulate_Y_streams fills the store to n before its batches read
        # it; a batch on its own, or after the store has grown further,
        # draws the same values
        _STORES.pop(geo_bern, None)
        streams = mc.simulate_Y_streams(geo_bern, 50, 2, mc.SimConfig(samples=300, seed=32,
                                                                    streams=2))
        alone = [mc.simulate_Y_batch(geo_bern, np.full(150, 50), 2, mc.substream(32, 0, idx))[0]
                 for idx in range(2)]
        extinction_iterates(geo_bern, 500)
        for idx, (values, _) in enumerate(streams):
            further, _ = mc.simulate_Y_batch(geo_bern, np.full(150, 50), 2,
                                             mc.substream(32, 0, idx))
            assert np.array_equal(values, alone[idx]) and np.array_equal(values, further)

    def test_reach_at_a_million_generations(self):
        # geometric offspring and immigration: Y_n from 0 has pgf 1/((n+1) -
        # n s), so P(Y_n <= k) = 1 - (n/(n+1))**(k+1)
        model = make_model("geometric-critical", "geometric-critical")
        n, k = 10**6, 1000
        exact = -math.expm1((k + 1) * math.log1p(-1.0 / (n + 1)))
        res = mc.estimate_lower_tail_naive(model, n, k, mc.SimConfig(samples=200_000,
                                                                    seed=45, streams=4))
        assert res.guard_trips == 0
        assert abs(res.estimate - exact) <= 3.5 * res.stderr

    def test_zero_horizon_lines_draw_nothing(self, geo_bern):
        _check_zero_horizon_lines_draw_nothing(geo_bern)

    def test_guard_caps_final_value(self, geo_bern):
        horizons = np.full(2000, 50)
        free, free_trips = mc.simulate_Y_batch(geo_bern, horizons, 0, mc.substream(17, 0))
        capped, trips = mc.simulate_Y_batch(geo_bern, horizons, 0, mc.substream(17, 0),
                                            max_population=3)
        assert free_trips == 0
        assert trips == int(np.count_nonzero(free > 3)) > 0
        assert np.array_equal(capped, np.minimum(free, 3))


# geometric offspring: the surviving-cohort route.  explicit(q0=0) has one
# zero-factor age (0), poisson(80) two (0 and 1)
_SURVIVOR_PAIRS = {
    "geo+bern": ("geometric-critical", _BERN),
    "geo+poisson(2)": ("geometric-critical", {"family": "poisson", "params": {"mean": 2.0}}),
    "geo+explicit(q0=0)": ("geometric-critical", {"family": "explicit", "probs": [0.0, 0.5, 0.5]}),
    "geo+poisson(80)": ("geometric-critical", {"family": "poisson", "params": {"mean": 80.0}}),
}


class TestSurvivorAges:
    """_survivor_ages: the ages of the immigrant batches with descendants
    at the horizon, by inverting their cumulative hazard -logF_pos."""

    @pytest.mark.parametrize("pair", list(_SURVIVOR_PAIRS))
    def test_hazard_is_nondecreasing(self, pair):
        cache = extinction_iterates(make_model(*_SURVIVOR_PAIRS[pair]), 10**5)
        assert np.all(np.diff(-cache.logF_pos) >= 0.0)

    @pytest.mark.parametrize("pair", list(_SURVIVOR_PAIRS))
    def test_ages_increase_below_the_horizon(self, pair):
        model = make_model(*_SURVIVOR_PAIRS[pair])
        horizons = mc.substream(40, 0).integers(0, 300, size=5000)
        cache = extinction_iterates(model, int(horizons.max()))
        line, age = mc._survivor_ages(horizons, cache, mc.substream(40, 1))
        assert line.shape == age.shape and line.dtype == age.dtype == np.int64
        assert np.all((age >= 0) & (age < horizons[line]))
        order = np.lexsort((age, line))
        same_line = np.diff(line[order]) == 0
        assert np.all(np.diff(age[order])[same_line] > 0)
        # every zero-factor age is drawn on every line that reaches past it
        forced = np.flatnonzero(cache.one_minus_hfj0[:-1] >= 1.0)
        assert forced.tolist() == {"geo+explicit(q0=0)": [0],
                                   "geo+poisson(80)": [0, 1]}.get(pair, [])
        for a in forced:
            assert np.array_equal(np.sort(line[age == a]), np.flatnonzero(horizons > a))

    @pytest.mark.parametrize("pair", list(_SURVIVOR_PAIRS))
    def test_hits_per_age_match_the_survival_chances(self, pair):
        # each age's batch survives with chance 1 - h(f_a(0)), so its hits
        # are Bin(N, 1 - h(f_a(0))); one binomial test per age, Bonferroni
        model = make_model(*_SURVIVOR_PAIRS[pair])
        N, m = 20_000, 64
        cache = extinction_iterates(model, m)
        _, age = mc._survivor_ages(np.full(N, m), cache, mc.substream(41, 0))
        hits = np.bincount(age, minlength=m)
        chance = np.minimum(cache.one_minus_hfj0[:m], 1.0)
        pvalues = [stats.binomtest(int(h), N, float(c)).pvalue for h, c in zip(hits, chance)]
        assert min(pvalues) * m > 0.001

    @pytest.mark.parametrize("pair", ["geo+bern", "geo+explicit(q0=0)"])
    def test_horizon_zero_lines_draw_nothing(self, pair):
        cache = extinction_iterates(make_model(*_SURVIVOR_PAIRS[pair]), 8)
        rng, untouched = mc.substream(42, 0), mc.substream(42, 0)
        line, age = mc._survivor_ages(np.zeros(5, dtype=np.int64), cache, rng)
        assert line.shape == age.shape == (0,)
        assert rng.random() == untouched.random()
        # in a mixed batch they leave the other lines' ages unchanged
        mixed_rng, plain_rng = mc.substream(42, 1), mc.substream(42, 1)
        line, age = mc._survivor_ages(np.array([8, 0, 8]), cache, mixed_rng)
        plain_line, plain_age = mc._survivor_ages(np.array([8, 8]), cache, plain_rng)
        assert not np.any(line == 1)
        assert np.array_equal(np.where(line == 2, 1, line), plain_line)
        assert np.array_equal(age, plain_age)
        assert mixed_rng.random() == plain_rng.random()


# offspring law, immigration law: bounded offspring take the reduced route
_REDUCED_PAIRS = {
    "binary+bern": ("binary", _BERN),
    "binary+poisson(1)": ("binary", _POISSON_1),
    "explicit+poisson(1)": ({"family": "explicit", "probs": [0.1, 0.8, 0.1]}, _POISSON_1),
    "explicit(d=3)+bern": (_EXPLICIT_D3, _BERN),
}


@pytest.mark.parametrize("pair", ["geo+bern", "binary+poisson(1)"])
def test_batch_reads_the_store_with_the_bits_of_a_longer_cache(pair):
    # the surviving-cohort and the reduced route read the model's iterate
    # store; after the store has grown to 500 they draw the same bits
    model = make_model(*{**_SURVIVOR_PAIRS, **_REDUCED_PAIRS}[pair])
    horizons = [3, 0, 17, 40]
    _STORES.pop(model, None)
    alone, _ = mc.simulate_Y_batch(model, horizons, 1, mc.substream(44, 0))
    extinction_iterates(model, 500)
    further, _ = mc.simulate_Y_batch(model, horizons, 1, mc.substream(44, 0))
    assert np.array_equal(alone, further) and alone[1] == 1
    if model.offspring.support_bound is not None:
        # the store continues the offspring recursion one step at a time,
        # so it holds that recursion's own bits
        u = np.concatenate(([1.0], model.offspring.one_minus_iterates(1.0, 0, 40)))
        assert np.array_equal(extinction_iterates(model, 40).one_minus_fj0, u)


class TestReducedRoute:
    """simulate_Y_batch and the stratified estimator's cohorts on a bounded
    offspring law: the reduced tree, with the surviving immigrants of each
    generation drawn by Law.sample_thinned_count."""

    @pytest.mark.parametrize("pair", list(_REDUCED_PAIRS))
    def test_mixed_horizons_with_initial_match_exact(self, pair):
        model = make_model(*_REDUCED_PAIRS[pair])
        per, K = 40_000, 64
        horizons = np.tile([0, 1, 5, 17, 40], per)
        values, trips = mc.simulate_Y_batch(model, horizons, 3, mc.substream(23, 0))
        assert trips == 0
        assert np.all(values[horizons == 0] == 3)
        for m in (1, 5, 17, 40):
            probs = exact_pmf_Y(model, m, K, initial=3, deficit_ceiling=1.0).probs
            assert _chisquare_p(values[horizons == m], probs) > 0.001

    @pytest.mark.parametrize("pair", ["binary+poisson(1)", "explicit(d=3)+bern"])
    def test_long_horizons_match_exact(self, pair):
        model = make_model(*_REDUCED_PAIRS[pair])
        horizons = np.tile([0, 3, 64, 200], 20_000)
        values, trips = mc.simulate_Y_batch(model, horizons, 0, mc.substream(24, 0))
        assert trips == 0
        assert np.all(values[horizons == 0] == 0)
        for m in (3, 64, 200):
            probs = exact_pmf_Y(model, m, 4 * m, deficit_ceiling=1.0).probs
            assert _chisquare_p(values[horizons == m], probs) > 0.001

    @pytest.mark.parametrize("pair", ["binary+poisson(1)", "explicit(d=3)+bern"])
    def test_zero_horizon_lines_draw_nothing(self, pair):
        _check_zero_horizon_lines_draw_nothing(make_model(*_REDUCED_PAIRS[pair]))

    @pytest.mark.parametrize("pair", ["binary+poisson(1)", "explicit(d=3)+bern"])
    def test_streams_read_the_store_with_the_same_bits(self, pair):
        # simulate_Y_streams hands every batch u from the iterate store; a
        # batch on its own reads the store and draws the same values
        model = make_model(*_REDUCED_PAIRS[pair])
        streams = mc.simulate_Y_streams(model, 50, 2, mc.SimConfig(samples=300, seed=31,
                                                                 streams=2))
        for idx, (values, _) in enumerate(streams):
            alone, _ = mc.simulate_Y_batch(model, np.full(150, 50), 2, mc.substream(31, 0, idx))
            assert np.array_equal(values, alone)

    def test_guard_caps_final_value(self):
        model = make_model(*_REDUCED_PAIRS["binary+poisson(1)"])
        horizons = np.full(2000, 50)
        free, free_trips = mc.simulate_Y_batch(model, horizons, 0, mc.substream(25, 0))
        capped, trips = mc.simulate_Y_batch(model, horizons, 0, mc.substream(25, 0),
                                            max_population=3)
        assert free_trips == 0
        assert trips == int(np.count_nonzero(free > 3)) > 0
        assert np.array_equal(capped, np.minimum(free, 3))

    @pytest.mark.parametrize("m", [0, 1, 7, 64, 300])
    @pytest.mark.parametrize("pair", ["binary+poisson(1)", "explicit+poisson(1)"])
    def test_merged_cohort_loop_matches_two_draws(self, pair, m):
        # the stratified estimator's Z + Y' in one reduced tree, against a
        # conditioned cohort plus an independent younger process
        model = make_model(*_REDUCED_PAIRS[pair])
        N = 20_000
        u = extinction_iterates(model, max(m, 1)).one_minus_fj0
        alive, _ = model.immigration.sample_thinned(np.full(N, u[m]), mc.substream(26, m))
        merged = model.offspring.sample_reduced(alive, m, u, mc.substream(27, m),
                                                model.immigration)
        rng = mc.substream(28, m)
        z = model.offspring.sample_survivors(alive, m, u, rng)
        y, _ = mc.simulate_Y_batch(model, np.full(N, m), 0, rng)
        if m == 0:
            assert np.array_equal(merged, alive) and np.array_equal(z + y, alive)
        else:
            assert _two_sample_p(merged, z + y) > 0.001

    def test_deterministic_chain(self, one_child):
        # one child per line and one immigrant per step: Y_23 = 23
        values = one_child.sample_reduced([0], [23], np.ones(24), mc.substream(0, 0), one_child)
        assert values.tolist() == [23]

    @pytest.mark.parametrize("spec", ["binary", {"family": "explicit", "probs": [0.1, 0.8, 0.1]},
                                      _EXPLICIT_D3])
    def test_splits_are_the_thinned_law(self, spec):
        # go + stay = 1 at every split, and binary's one split is the closed
        # form v/(2 - v)
        law = make_law(spec)
        v = np.concatenate((np.geomspace(1e-9, 1.0, 50), [0.5, 2.0 / 3.0]))
        go, stay = law._reduced_splits(v)
        assert go.shape == stay.shape == (v.shape[0], law.support_bound - 1)
        np.testing.assert_allclose(go + stay, 1.0, rtol=0, atol=4e-16)
        if law.kind == "binary":
            np.testing.assert_allclose(go[:, 0], v / (2.0 - v), rtol=4e-16)

    def test_wide_support_splits_and_draws(self):
        # every split chance is finite and matches the binomial pmf at any
        # support size, and the draws have the exact law
        law = make_law({"family": "explicit", "probs": _wide_explicit_probs()})
        v = np.array([1e-3, 0.05, 0.5, 1.0])
        go, stay = law._reduced_splits(v)
        assert np.all(np.isfinite(go)) and np.all(np.isfinite(stay))
        atoms, j = np.arange(1100), np.arange(1, 1100)
        for row, at in enumerate(v):
            w = stats.binom.pmf(j[:, None], atoms[None, :], at) @ law.probs
            suffix = np.cumsum(w[::-1])[::-1]
            ref = np.divide(w[:-1], suffix[:-1], out=np.zeros(1098), where=suffix[:-1] > 0.0)
            np.testing.assert_allclose(stay[row], ref, rtol=0, atol=1e-12)
        model = make_model(law, _POISSON_1)
        horizons = np.tile([1, 4], 10_000)
        values, trips = mc.simulate_Y_batch(model, horizons, 1, mc.substream(30, 0))
        assert trips == 0
        for m in (1, 4):
            probs = exact_pmf_Y(model, m, 64, initial=1, deficit_ceiling=1.0).probs
            assert _chisquare_p(values[horizons == m], probs) > 0.001

    @pytest.mark.parametrize("spec", ["binary", _EXPLICIT_D3])
    @given(st.lists(st.integers(0, 40), max_size=12), st.floats(1e-6, 1.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_step_identity_cases(self, spec, counts, v, seed):
        law = make_law(spec)
        counts = np.array(counts, dtype=np.int64)
        for at in (v, 1.0):
            go, stay = (rows[0] for rows in law._reduced_splits(np.array([at])))
            rng, untouched = mc.substream(seed, 0), mc.substream(seed, 0)
            out = _reduced_step(counts, go.tolist(), stay.tolist(), rng)
            assert out.shape == counts.shape
            assert np.all(counts <= out) and np.all(out <= law.support_bound * counts)
            if law.kind == "binary" and at == 1.0:
                # every child survives zero generations: both, no draw
                assert np.array_equal(out, 2 * counts)
            if law.kind == "binary" and at == 1.0 or not np.any(counts):
                assert rng.random() == untouched.random()

    @pytest.mark.parametrize("spec", [
        "geometric-critical", "binary", _BERN, {"family": "poisson", "params": {"mean": 2.0}},
        {"family": "explicit", "probs": [0.2, 0.5, 0.3]},
    ])
    @given(st.integers(0, 12), st.floats(1e-6, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_thinned_count_identity_cases(self, spec, size, v, seed):
        law = make_law(spec)
        rng = mc.substream(seed, 0)
        out = law.sample_thinned_count(size, v, rng)
        assert out.dtype == np.int64 and out.shape == (size,) and np.all(out >= 0)
        if law.support_bound is not None:
            assert np.all(out <= law.support_bound)
        # v = 1 keeps every immigrant: the bits of sample, and nothing more drawn
        rng, plain = mc.substream(seed, 1), mc.substream(seed, 1)
        assert np.array_equal(law.sample_thinned_count(size, 1.0, rng), law.sample(size, plain))
        assert rng.random() == plain.random()
        rng, untouched = mc.substream(seed, 2), mc.substream(seed, 2)
        assert law.sample_thinned_count(0, v, rng).shape == (0,)
        assert rng.random() == untouched.random()

    @pytest.mark.parametrize("v", [0.3, 0.02])
    @pytest.mark.parametrize("spec", [{"family": "poisson", "params": {"mean": 2.0}}])
    def test_thinned_count_closed_form_matches_default(self, spec, v):
        law = make_law(spec)
        closed = law.sample_thinned_count(50_000, v, mc.substream(29, 0))
        default = Law.sample_thinned_count(law, 50_000, v, mc.substream(29, 1))
        assert _two_sample_p(closed, default) > 0.001


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
        cfg = mc.SimConfig(samples=30000, seed=17)
        rs = mc.estimate_lower_tail_stratified(bin_bern, 128, 8, cfg)
        rn = mc.estimate_lower_tail_naive(bin_bern, 128, 8, cfg)
        sigma = (rs.stderr**2 + rn.stderr**2) ** 0.5
        assert abs(rs.estimate - rn.estimate) <= 3 * sigma + rs.bracket_high

    def test_agrees_with_exact(self, geo_bern):
        exact = float(exact_pmf_Y(geo_bern, 512, 4096, deficit_ceiling=1.0).cdf()[16])
        res = mc.estimate_lower_tail_stratified(
            geo_bern, 512, 16, mc.SimConfig(samples=20000, seed=5))
        assert abs(res.estimate - exact) <= 3 * res.stderr + res.bracket_high

    def test_reproducible(self, geo_bern):
        cfg = mc.SimConfig(samples=3000, seed=9, streams=3)
        a = mc.estimate_lower_tail_stratified(geo_bern, 64, 8, cfg)
        b = mc.estimate_lower_tail_stratified(geo_bern, 64, 8, cfg, jobs=3)
        assert a == b

    def test_n_must_be_positive(self, geo_bern):
        with pytest.raises(ValueError, match="n >= 1, got n=0"):
            mc.estimate_lower_tail_stratified(geo_bern, 0, 2, mc.SimConfig(samples=10, seed=0))

    def test_epsilon_must_be_positive(self, geo_bern):
        for eps in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="epsilon"):
                mc.estimate_lower_tail_stratified(
                    geo_bern, 8, 2, mc.SimConfig(samples=10, seed=0), epsilon=eps)

    def test_budget_roughly_respected(self, geo_bern):
        res = mc.estimate_lower_tail_stratified(
            geo_bern, 256, 8, mc.SimConfig(samples=5000, seed=2))
        assert 5000 <= res.samples_used <= 6500

    @pytest.mark.parametrize("which", ["geo_bern", "bin_bern"])
    @pytest.mark.parametrize("samples,streams", [(4000, 1), (4000, 3), (777, 2), (5, 1)])
    def test_budget_met_with_no_rejection(self, which, samples, streams, request):
        # largest-remainder targets sum to the budget, and each stream draws
        # exactly its share; a tiny budget still gives every bin one draw
        model = request.getfixturevalue(which)
        res = mc.estimate_lower_tail_stratified(
            model, 256, 8, mc.SimConfig(samples=samples, seed=6, streams=streams))
        assert res.samples_used >= samples
        assert res.attempts == res.samples_used
        if samples >= 4000:
            assert res.samples_used <= samples + 8

    def test_memory_follows_the_samples(self, geo_bern):
        # no attempt arrays: at 2e4 samples the peak was 487 MiB with
        # rejection-sampled cohorts; the iterate store is filled before the
        # count
        extinction_iterates(geo_bern, 1024)
        tracemalloc.start()
        try:
            mc.estimate_lower_tail_stratified(
                geo_bern, 1024, 16, mc.SimConfig(samples=20_000, seed=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _markov_bound_reference(cache, m, k):
    """Upper bound on P(Y_m <= k) for one age, computed in scalars."""
    if m <= k or k < 1:
        return 1.0
    fk = float(cache.fj0[k])
    if fk <= 0.0:
        return 1.0
    if cache.zero_factors[m] != cache.zero_factors[k]:
        return 0.0
    return min(1.0, math.exp(cache.logF_pos[m] - cache.logF_pos[k] - k * math.log(fk)))


class TestStratifiedSetup:
    """The set-up reads the theta_n law and the Markov bounds on arrays."""

    @pytest.mark.parametrize("which", ["geo_bern", "bin_bern", "zero-factor"])
    def test_markov_bounds_match_scalar_reference(self, which, request):
        model = _ZERO_FACTOR_MODEL if which == "zero-factor" else request.getfixturevalue(which)
        n = 96
        cache = extinction_iterates(model, n)
        ages = np.arange(n)
        for k in (0, 1, 2, 7, 31, n - 2, n - 1, n, n + 5, cache.N + 3):
            ref = np.array([_markov_bound_reference(cache, int(m), k) for m in ages])
            got = mc._markov_tail_bounds(cache, ages, k)
            np.testing.assert_array_max_ulp(got, ref, maxulp=1)
        assert mc._markov_tail_bounds(cache, ages, 7)[-1] < 1.0

    @pytest.mark.parametrize("which", ["geo_bern", "bin_bern"])
    def test_bracket_uses_theta_law_weights(self, which, request):
        # epsilon > k samples age 0 only, so every deeper age is bracketed:
        # bracket_high = sum over ages m >= 1 of P(theta_n = n - m) * bound_m
        model = request.getfixturevalue(which)
        n, k = 80, 4
        cache = extinction_iterates(model, n)
        res = mc.estimate_lower_tail_stratified(
            model, n, k, mc.SimConfig(samples=200, seed=3), epsilon=2.0 * k)
        ages = np.arange(1, n)
        weights = theta_pmf(cache, n).pmf[n - ages]
        bounds = [_markov_bound_reference(cache, int(m), k - 1) for m in ages]
        assert res.bracket_high == pytest.approx(float(np.dot(weights, bounds)), rel=1e-14)
        assert res.bracket_high > 0.0


@pytest.mark.slow
def test_unbiasedness_coverage_bounded_model(bin_bern):
    # 99% CIs cover the exact value in >= 95% of 200 repeated runs on a
    # bounded-support model at a short horizon
    n, k, runs, zq = 8, 2, 200, 2.5758293035489004
    exact = float(exact_pmf_Y(bin_bern, n, 64).cdf()[k])
    cover_naive = cover_strat = 0
    for rep in range(runs):
        cfg = mc.SimConfig(samples=2000, seed=50_000 + rep)
        rn = mc.estimate_lower_tail_naive(bin_bern, n, k, cfg)
        if abs(rn.estimate - exact) <= zq * rn.stderr:
            cover_naive += 1
        rs = mc.estimate_lower_tail_stratified(bin_bern, n, k, cfg)
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
        with pytest.raises(ValueError, match="seed"):
            mc.SimConfig(samples=10, seed=-1)
