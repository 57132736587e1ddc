import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwimm import classify_xlogx, extinction_iterates, make_law, make_model
from gwimm.models import (
    FINITE,
    HEAVY_BETA_MAX,
    INFINITE,
    LogHeavyImmigrationLaw,
    LogHeavyOffspringLaw,
)


class TestFamilies:
    def test_geometric_moments_and_partial_sum_crosscheck(self):
        law = make_law("geometric-critical")
        assert law.mean == 1.0
        assert law.factorial_second_moment == 2.0
        k = np.arange(10**6, dtype=float)
        p = 0.5 ** (k + 1.0)
        assert abs(np.dot(k, p) - 1.0) < 1e-6
        assert abs(np.dot(k * (k - 1), p) - 2.0) < 1e-6

    def test_binary_moments(self):
        law = make_law("binary")
        assert law.mean == 1.0
        assert law.factorial_second_moment == 1.0  # only k=2 contributes

    def test_explicit_mean(self):
        law = make_law({"family": "explicit", "probs": [0.5, 0.5]})
        assert law.mean == 0.5
        assert law.factorial_second_moment == 0.0

    def test_poisson(self):
        law = make_law({"family": "poisson", "params": {"mean": 1.0}})
        assert law.mean == 1.0
        assert law.factorial_second_moment == 1.0
        k = np.arange(200, dtype=float)
        from scipy.special import gammaln

        p = np.exp(-1.0 - gammaln(k + 1.0))
        assert abs(np.dot(k, p) - 1.0) < 1e-12

    def test_pmf_arrays_normalize(self):
        for spec in ("geometric-critical", "binary",
                     {"family": "poisson", "params": {"mean": 1.0}},
                     {"family": "bernoulli01", "params": {"q1": 0.3}}):
            law = make_law(spec)
            arr = law.pmf_array(400)
            assert np.all(arr >= 0)
            assert abs(arr.sum() + law.tail_mass(400) - 1.0) < 1e-9

    def test_lattice_spans(self):
        assert make_law("binary").lattice_span == 2
        assert make_law("geometric-critical").lattice_span == 1
        assert make_law({"family": "explicit", "probs": [0.5, 0, 0, 0.5]}).lattice_span == 3


class TestValidation:
    def test_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            make_law({"family": "explicit", "probs": [1.1, -0.1]})

    def test_mass_off_by_too_much(self):
        with pytest.raises(ValueError, match="sum"):
            make_law({"family": "explicit", "probs": [0.5, 0.5 - 1e-9]})

    def test_heavy_beta_at_most_one_rejected(self):
        for family in ("log-heavy-offspring", "log-heavy-immigration"):
            with pytest.raises(ValueError, match="beta"):
                make_law({"family": family, "params": {"beta": 1.0}})

    def test_heavy_beta_above_cap_rejected(self):
        # above the cap the tail table underflows: nan pmfs or a failed spline
        for family in ("log-heavy-offspring", "log-heavy-immigration"):
            with pytest.raises(ValueError, match=f"{family} requires beta <= 300"):
                make_law({"family": family, "params": {"beta": HEAVY_BETA_MAX + 1}})

    def test_heavy_beta_at_cap_stays_finite(self):
        bern = {"family": "bernoulli01", "params": {"q1": 0.5}}
        for offspring, immigration in (
            ("binary", {"family": "log-heavy-immigration", "params": {"beta": HEAVY_BETA_MAX}}),
            ({"family": "log-heavy-offspring", "params": {"beta": HEAVY_BETA_MAX}}, bern),
        ):
            cache = extinction_iterates(make_model(offspring, immigration), 1000)
            assert np.all(np.isfinite(cache.logL[1:]))

    def test_unknown_family_and_missing_keys(self):
        with pytest.raises(ValueError, match="family"):
            make_law({"family": "zeta"})
        with pytest.raises(ValueError, match="probs"):
            make_law({"family": "explicit"})

    def test_noncritical_offspring_rejected(self):
        with pytest.raises(ValueError, match="critical"):
            make_model({"family": "bernoulli01", "params": {"q1": 0.5}},
                       {"family": "bernoulli01", "params": {"q1": 0.5}})

    def test_degenerate_immigration_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            make_model("binary", {"family": "explicit", "probs": [1.0]})

    def test_zero_B_rejected(self):
        with pytest.raises(ValueError, match="B="):
            make_model({"family": "explicit", "probs": [0.0, 1.0]},
                       {"family": "bernoulli01", "params": {"q1": 0.5}})


class TestModelConstants:
    def test_geo_bern(self, geo_bern):
        assert geo_bern.B == 2.0
        assert geo_bern.lam == 0.5
        assert geo_bern.gamma == 0.5

    def test_bin_bern(self, bin_bern):
        assert bin_bern.B == 1.0
        assert bin_bern.lam == 0.5
        assert bin_bern.gamma == 1.0

    def test_gamma_invariant_under_explicit_representation(self, bern_half):
        # geometric truncated at k=60 and renormalized
        k = np.arange(61, dtype=float)
        probs = 0.5 ** (k + 1.0)
        probs /= probs.sum()
        trunc = make_model({"family": "explicit", "probs": probs}, bern_half)
        parametric = make_model("geometric-critical", bern_half)
        assert abs(trunc.gamma - parametric.gamma) < 1e-10


class TestClassifier:
    def test_log_heavy_offspring_roles(self):
        assert classify_xlogx(make_law(
            {"family": "log-heavy-offspring", "params": {"beta": 1.5}}),
            "offspring") == INFINITE
        assert classify_xlogx(make_law(
            {"family": "log-heavy-offspring", "params": {"beta": 2.5}}),
            "offspring") == FINITE
        assert classify_xlogx(make_law(
            {"family": "log-heavy-offspring", "params": {"beta": 1.5}}),
            "immigration") == FINITE

    def test_log_heavy_immigration_roles(self):
        assert classify_xlogx(make_law(
            {"family": "log-heavy-immigration", "params": {"beta": 1.5}}),
            "immigration") == INFINITE
        assert classify_xlogx(make_law(
            {"family": "log-heavy-immigration", "params": {"beta": 3.0}}),
            "immigration") == FINITE

    def test_light_families_finite(self):
        for fam in ("binary", "geometric-critical"):
            assert classify_xlogx(make_law(fam), "offspring") == FINITE
        assert classify_xlogx(
            make_law({"family": "explicit", "probs": [0.25, 0.5, 0.25]}),
            "offspring") == FINITE

    def test_divergence_visible_in_partial_sums(self):
        # sum k^2 log k p_k = c sum (log k)^(1-beta)/k: grows like a power of
        # log n for beta <= 2 but levels off for beta > 2
        ks = np.arange(2, 10**6, dtype=float)
        cut = 10**3 - 2

        def sum_ratio(beta):
            terms = np.log(ks) ** (1.0 - beta) / ks
            return float(terms.sum()) / float(terms[:cut].sum())

        assert sum_ratio(1.5) > 1.3
        assert sum_ratio(3.0) < 1.15


class TestHeavyLaws:
    def test_offspring_construction(self):
        law = LogHeavyOffspringLaw(1.5)
        assert law.atom1 == 0.5
        assert 0.0 < law.atom0 < 0.5
        assert law.mean == 1.0
        assert 0.0 < law.factorial_second_moment < math.inf

    def test_offspring_mean_against_partial_sums(self):
        law = LogHeavyOffspringLaw(1.5)
        ks = np.arange(2, 10**7, dtype=float)
        pk = law.c / (ks**3 * np.log(ks) ** 1.5)
        mean_head = law.atom1 + float((ks * pk).sum())
        tail_bound = law.c * law.kernel.tail_mass_beyond(10**7 - 1) * 10**7 * 2
        assert abs(mean_head - 1.0) < 1e-6 + tail_bound

    def test_immigration_construction(self):
        law = LogHeavyImmigrationLaw(1.5)
        assert law.mean == 0.5
        assert law.factorial_second_moment == math.inf
        assert 0.0 < law.atom0 < 1.0
        mass = law.pmf_array(10**5).sum() + law.tail_mass(10**5)
        assert abs(mass - 1.0) < 1e-10

    def test_one_minus_pgf_against_direct_sum(self):
        for law in (LogHeavyOffspringLaw(1.5), LogHeavyImmigrationLaw(2.5)):
            ks = np.arange(2, 10**6, dtype=float)
            pk = law.c / (ks**law.kernel.a * np.log(ks) ** law.beta)
            for u in (0.3, 1e-3):
                t = -math.log1p(-u)
                direct = law.atom1 * u + float(np.dot(pk, -np.expm1(-ks * t)))
                tail = law.c * law.kernel.tail_mass_beyond(10**6 - 1)
                got = law.one_minus_pgf(u)
                assert got == pytest.approx(direct, abs=2 * tail + 1e-13)


    @pytest.mark.parametrize("law_cls", [LogHeavyOffspringLaw, LogHeavyImmigrationLaw])
    @pytest.mark.parametrize("counts", [[2, 0, 3, 0], [0, 4, 0, 0], [3, 0], [0, 0]])
    def test_sample_sum_with_zero_counts(self, law_cls, counts):
        # each entry sums its own block of one draw sequence; a zero count,
        # in the middle or at the end, sums to 0
        law = law_cls(1.5)
        sums = law.sample_sum(np.array(counts), np.random.default_rng(4))
        draws = law.sample(sum(counts), np.random.default_rng(4))
        edges = np.concatenate(([0], np.cumsum(counts)))
        assert sums.tolist() == [int(draws[a:b].sum()) for a, b in zip(edges, edges[1:])]


_FAMILY_SPECS = [
    "geometric-critical",
    "binary",
    {"family": "poisson", "params": {"mean": 2.0}},
    {"family": "bernoulli01", "params": {"q1": 0.4}},
    {"family": "explicit", "probs": [0.25, 0.25, 0.3, 0.2]},
    {"family": "log-heavy-offspring", "params": {"beta": 1.5}},
    {"family": "log-heavy-immigration", "params": {"beta": 1.5}},
    {"family": "log-heavy-immigration", "params": {"beta": 2.5}},
]


class TestOneMinusPgfArrays:
    US = [0.0, 1e-12, 1e-7, 1e-3, 0.3, 1.0]

    @pytest.mark.parametrize("spec", _FAMILY_SPECS,
                             ids=lambda s: s if isinstance(s, str) else s["family"])
    def test_array_matches_scalar(self, spec):
        law = make_law(spec)
        arr = law.one_minus_pgf(np.array(self.US))
        scalar = np.array([law.one_minus_pgf(u) for u in self.US])
        assert isinstance(arr, np.ndarray) and arr.shape == (len(self.US),)
        assert all(isinstance(law.one_minus_pgf(u), float) for u in self.US)
        if isinstance(law, (LogHeavyOffspringLaw, LogHeavyImmigrationLaw)):
            # Horner head and vectorised spline against the per-point form
            assert arr[0] == scalar[0] == 0.0
            assert np.max(np.abs(arr[1:] / scalar[1:] - 1.0)) <= 1e-14
        else:
            assert np.array_equal(arr, scalar)
        # each element is independent of the array it sits in
        for i, u in enumerate(self.US):
            assert law.one_minus_pgf(np.array([u]))[0] == arr[i]

    @pytest.mark.parametrize("law", [LogHeavyOffspringLaw(1.5), LogHeavyImmigrationLaw(1.5)],
                             ids=["offspring", "immigration"])
    def test_heavy_horner_head_against_mpmath(self, law):
        mpmath = pytest.importorskip("mpmath")
        kernel = law.kernel
        us = [1e-12, 1e-7, 1e-4, 0.05, 0.9]
        got = kernel.one_minus_head_array(np.array(us))
        with mpmath.workdps(40):
            ks = range(2, int(kernel.head_k[-1]) + 1)
            weights = [mpmath.mpf(k) ** -kernel.a * mpmath.log(k) ** -kernel.beta for k in ks]
            for u, g in zip(us, got):
                s = 1 - mpmath.mpf(u)
                ref = mpmath.fsum(w * (1 - s**k) for w, k in zip(weights, ks))
                assert abs(g / ref - 1) <= 1e-14

    def test_scalar_tail_matches_cubic_spline(self):
        kernel = LogHeavyImmigrationLaw(1.5).kernel
        lo, hi = kernel.T_LO, kernel.T_HI
        ts = np.exp(np.linspace(math.log(lo) - 3.0, math.log(hi) + 1.0, 2001))
        ts = np.concatenate((ts, [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)]))
        got = np.array([kernel.one_minus_tail(float(t)) for t in ts])

        def via_cubic_spline(t):
            if t >= hi:
                return kernel.tail_mass_const
            if t < lo:
                return math.exp(float(kernel._spline(math.log(lo)))) * t / lo
            return math.exp(float(kernel._spline(math.log(t))))

        ref = np.array([via_cubic_spline(float(t)) for t in ts])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-15


class TestPgfEval:
    def test_closed_forms(self, bern_half):
        geo = make_law("geometric-critical")
        assert geo.pgf(1.0) == pytest.approx(1.0)
        assert geo.pgf(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        binl = make_law("binary")
        assert binl.pgf(1j) == pytest.approx(0.0)
        poi = make_law({"family": "poisson", "params": {"mean": 2.0}})
        assert poi.pgf(0.5) == pytest.approx(math.exp(-1.0))
        assert bern_half.pgf(0.25) == pytest.approx(0.625)

    def test_geometric_series_crosscheck(self):
        geo = make_law("geometric-critical")
        ks = np.arange(201, dtype=float)
        series = float(np.sum(0.5 ** (ks + 1.0) * 0.5**ks))
        assert geo.pgf(0.5) == pytest.approx(series, abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(ValueError, match="unit disk"):
            make_law("binary").pgf(1.001)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_one_minus_complements_pgf(self, u):
        for fam in ("geometric-critical", "binary"):
            law = make_law(fam)
            assert law.one_minus_pgf(u) == pytest.approx(
                1.0 - float(law.pgf(1.0 - u)), abs=1e-12)
