import math
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwimm import classify_xlogx, extinction_iterates, make_law, make_model
from gwimm.models import (
    _CELL_FLOOR,
    _GL_NODES,
    _GL_WEIGHTS,
    _HEAVY_HEAD,
    _SAMPLE_TABLE,
    FINITE,
    HEAVY_BETA_MAX,
    INFINITE,
    _NotAKnotSpline,
    ExplicitLaw,
    Law,
    LogHeavyImmigrationLaw,
    LogHeavyOffspringLaw,
    _gauss_legendre,
    _heavy_tail_sum,
    _heavy_tail_table,
    _heavy_term,
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

    def test_explicit_law_keeps_its_own_copy(self):
        p = np.array([0.5, 0.0, 0.5])
        law = ExplicitLaw(p)
        key = hash(law)
        p[0] = 0.9
        assert law.probs.tolist() == [0.5, 0.0, 0.5]
        assert hash(law) == key and law.mean == 1.0

    def test_explicit_pmf_array_does_not_write_into_the_law(self):
        law = ExplicitLaw([0.5, 0.0, 0.5])
        for K in (1, 2, 4):
            law.pmf_array(K)[0] = 0.75
        assert law.probs.tolist() == [0.5, 0.0, 0.5]
        assert law.pmf_array(2).tolist() == [0.5, 0.0, 0.5]

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_names_the_key(self, bad):
        # a nan entry passed the mass check and gave a law with mean nan
        with pytest.raises(ValueError, match="key 'probs' must hold finite"):
            make_law({"family": "explicit", "probs": [0.5, bad, 0.5]})

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
        tail_bound = law.tail_mass(10**7 - 1) * 10**7 * 2
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
            pk = law.c / (ks**law.a * np.log(ks) ** law.beta)
            for u in (0.3, 1e-3):
                t = -math.log1p(-u)
                direct = law.atom1 * u + float(np.dot(pk, -np.expm1(-ks * t)))
                tail = law.tail_mass(10**6 - 1)
                got = law.one_minus_pgf(u)
                assert got == pytest.approx(direct, abs=2 * tail + 1e-13)

    @pytest.mark.parametrize("law", [LogHeavyOffspringLaw(1.5), LogHeavyImmigrationLaw(1.5)],
                             ids=["offspring", "immigration"])
    def test_pgf_of_a_real_argument_is_real(self, law):
        ks = np.arange(law._COMPLEX_HEAD + 1)
        ref = float(np.dot(law.pmf_array(law._COMPLEX_HEAD), (-0.5) ** ks))
        got = law.pgf(-0.5)
        assert isinstance(got, float) and abs(got - ref) <= 1e-15
        arr = law.pgf(np.array([-0.5, 0.25]))
        assert arr.dtype == np.float64 and arr[0] == got
        assert arr[1] == 1.0 - law.one_minus_pgf(0.75)
        assert isinstance(law.pgf(-0.5 + 0j), complex)

    @pytest.mark.parametrize("law_cls", [LogHeavyOffspringLaw, LogHeavyImmigrationLaw])
    @pytest.mark.parametrize("beta", [1.5, 3.0])
    def test_far_tail_draw_is_the_exact_inverse(self, law_cls, beta):
        # beyond the table a draw is the smallest k with P(X > k) < 1 - u
        law = law_cls(beta)

        def tail(k):
            return law.c * _heavy_tail_sum(law.a, law.beta, k)

        for u in (1 - 1e-8, 1 - 1e-9, 1 - 1e-14, 1 - 2.0**-53):
            r = 1.0 - u
            if not r < tail(_SAMPLE_TABLE):
                continue  # the table holds this draw
            start = time.perf_counter()
            k = law._far_tail_draw(r)
            assert time.perf_counter() - start < 0.05
            assert k > _SAMPLE_TABLE and tail(k) < r <= tail(k - 1)

    def test_sample_draws_beyond_the_table(self):
        class Stub:
            def random(self, size):
                return np.array([0.5, 1 - 1e-9, 1 - 2.0**-53])[:size]

        law = LogHeavyImmigrationLaw(1.5)
        draws = law.sample(3, Stub())
        assert draws.dtype == np.int64
        assert draws.tolist() == [0, 2723603, 8974197910676]

    @pytest.mark.parametrize("law_cls", [LogHeavyOffspringLaw, LogHeavyImmigrationLaw])
    @pytest.mark.parametrize("beta", [1.5, 3.0, 50.0])
    def test_survival_table_ends_at_the_tail_sum(self, law_cls, beta):
        # the table's last entry, the chance of a draw beyond it, is the tail
        # sum itself, not the rounding left by a cumulative sum
        law = law_cls(beta)
        neg_sf = law._survival_table()
        assert neg_sf.shape == (_SAMPLE_TABLE + 1,) and np.all(np.diff(neg_sf) >= 0.0)
        tail = law.c * _heavy_tail_sum(law.a, law.beta, _SAMPLE_TABLE)
        assert abs(-neg_sf[-1] / tail - 1.0) <= 1e-14
        assert abs(-neg_sf[0] - (1.0 - law.atom0)) <= 1e-15

    def test_last_uniform_below_one_stays_in_the_table(self):
        # P(X > 2**16) = 1.7e-66 < 2**-53 for log-heavy-immigration(50), so
        # no uniform from rng.random reaches beyond the table
        class Stub:
            def random(self, size):
                return np.full(size, 1 - 2.0**-53)

        draws = LogHeavyImmigrationLaw(50.0).sample(2, Stub())
        assert np.all(draws <= _SAMPLE_TABLE)

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
        assert np.array_equal(arr, scalar)
        # each element is independent of the array it sits in
        for i, u in enumerate(self.US):
            assert law.one_minus_pgf(np.array([u]))[0] == arr[i]

    @pytest.mark.parametrize("spec", _FAMILY_SPECS,
                             ids=lambda s: s if isinstance(s, str) else s["family"])
    def test_empty_array_gives_an_empty_array(self, spec):
        # the pgf's domain check reduces over its argument, which may be empty
        law = make_law(spec)
        for out in (law.pgf(np.array([])), law.one_minus_pgf(np.array([]))):
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("spec", _FAMILY_SPECS,
                             ids=lambda s: s if isinstance(s, str) else s["family"])
    def test_nan_gives_nan(self, spec):
        law = make_law(spec)
        assert math.isnan(law.one_minus_pgf(math.nan))
        assert np.isnan(law.one_minus_pgf(np.array([0.5, math.nan]))[1])

    @pytest.mark.parametrize("law", [LogHeavyOffspringLaw(1.5), LogHeavyImmigrationLaw(1.5)],
                             ids=["offspring", "immigration"])
    def test_heavy_point_keeps_its_bits_in_a_block(self, law):
        # the head's BLAS products on one point give that point's bits in
        # an 8192-point block, and so does the scalar form
        us = np.geomspace(1e-12, 0.999, 8192)
        block = law.one_minus_pgf(us)
        for i in list(range(0, us.size, 97)) + [us.size - 1]:
            assert law.one_minus_pgf(us[i : i + 1])[0] == block[i]
            assert law.one_minus_pgf(float(us[i])) == block[i]

    @pytest.mark.parametrize("law", [LogHeavyOffspringLaw(1.5), LogHeavyImmigrationLaw(1.5)],
                             ids=["offspring", "immigration"])
    def test_heavy_head_against_mpmath(self, law):
        us = np.geomspace(1e-12, 0.999, 25)
        got = law._one_minus_head(us, -np.log1p(-us))
        with mpmath.workdps(40):
            ks = range(2, _HEAVY_HEAD + 1)
            weights = [mpmath.mpf(k) ** -law.a * mpmath.log(k) ** -law.beta for k in ks]
            for u, g in zip(us.tolist(), got):
                s = 1 - mpmath.mpf(u)
                ref = mpmath.fsum(w * (1 - s**k) for w, k in zip(weights, ks))
                assert abs(g / ref - 1) <= 1e-14

    @pytest.mark.parametrize("law", [LogHeavyOffspringLaw(1.5), LogHeavyImmigrationLaw(1.5)],
                             ids=["offspring", "immigration"])
    def test_linear_tail_keeps_its_relative_accuracy_near_underflow(self, law):
        # below T_LO the tail is linear in t, and its slope times t alone
        # would be subnormal from t ~ 1e-292
        ref = law.one_minus_pgf(1e-290) / 1e-290
        us = [1e-301, 1e-303, 1e-305, 1e-307]
        block = law.one_minus_pgf(np.array(us))
        for u, b in zip(us, block):
            assert law.one_minus_pgf(u) == b
            assert abs(b / u / ref - 1.0) <= 1e-15

    def test_tail_regimes_join(self):
        # below T_LO the tail is linear in t from the spline's value at T_LO;
        # from T_HI on it is the constant tail mass, which the spline meets
        # to the table's accuracy
        law = LogHeavyImmigrationLaw(1.5)
        lo, hi = law.T_LO, law.T_HI
        tail = law._one_minus_tail(np.array([np.nextafter(lo, 0.0), lo, np.nextafter(hi, 0.0),
                                             hi, 2 * hi]))
        assert abs(tail[0] / tail[1] - 1.0) <= 1e-15
        assert abs(tail[2] / tail[3] - 1.0) <= 1e-11
        assert tail[3] == tail[4] == law.tail_mass_const


def _adaptive_tail_integral(a, beta, t):
    """Reference for the tail table: integral_A^inf (1 - e**-(x t)) x**-a
    (log x)**-beta dx plus the midpoint Euler-Maclaurin correction, A =
    head + 1/2, by three adaptive quad calls at epsrel 1e-11 (a finite
    piece below y = x t = 2 in log y, then the split integral of 1 - e**-y,
    the pure power part again in log coordinates)."""
    from scipy import integrate

    A = _HEAVY_HEAD + 0.5
    lt = math.log(t)
    lo = A * t
    pieces = 0.0
    if lo < 2.0:
        low, _ = integrate.quad(
            lambda w: -math.expm1(-math.exp(w)) * math.exp(-(a - 1.0) * w) * (w - lt) ** (-beta),
            math.log(lo), math.log(2.0), epsabs=0.0, epsrel=1e-11, limit=500)
        pieces += low
        ycut = 2.0
    else:
        ycut = lo
    pure, _ = integrate.quad(lambda w: math.exp(-(a - 1.0) * w) * (w - lt) ** (-beta),
                             math.log(ycut), np.inf, epsabs=0.0, epsrel=1e-11, limit=300)
    expo, _ = integrate.quad(lambda y: math.exp(-y) * y ** (-a) * (math.log(y) - lt) ** (-beta),
                             ycut, np.inf, epsabs=0.0, epsrel=1e-11, limit=300)
    la = math.log(A)
    g = A ** (-a) * la ** (-beta)
    psi_prime = t * math.exp(-A * t) * g + math.expm1(-A * t) * g * (a / A + beta / (A * la))
    return t ** (a - 1) * (pieces + pure - expo) + psi_prime / 24.0


def _mpmath_log_tail(a, beta, t):
    """The same quantity to 30 digits, integrated in z = log x over panels
    that follow the decay near z = log A and the turn near y = 2, scaled by
    the integrand's bound at z = log A (mpmath.quad drops terms that are
    tiny in absolute terms)."""
    with mpmath.workdps(30):
        A = mpmath.mpf(_HEAVY_HEAD) + mpmath.mpf(1) / 2
        t, b, L = mpmath.mpf(t), mpmath.mpf(beta), mpmath.log(A)
        ref = -(a - 1) * L - b * mpmath.log(L)
        rate, zc = (a - 1) + b / L, max(L, mpmath.log(2 / t))
        pts = [L + k / rate for k in (0, 0.125, 0.25, 0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96)]
        pts += [zc + k for k in (-4, -2, -1, -0.5, 0, 0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80)]
        pts = sorted({p for p in pts if L <= p <= zc + 80})
        val = mpmath.quad(lambda z: -mpmath.expm1(-t * mpmath.exp(z))
                          * mpmath.exp(-(a - 1) * z - b * mpmath.log(z) - ref), pts)
        psi = t * mpmath.exp(-A * t) + mpmath.expm1(-A * t) * (a + b / L) / A
        return ref + mpmath.log(val + psi / (24 * A))


def _adaptive_power_tail(A, a, beta):
    """Reference for the tail sum's integral, a >= 2: integral_A^inf x**-a
    (log x)**-beta dx by adaptive quad at epsrel 1e-12, in w = log x, where
    the integrand is exp(-(a-1) w) w**-beta."""
    from scipy import integrate

    val, _ = integrate.quad(lambda w: math.exp(-(a - 1.0) * w) * w ** (-beta),
                            math.log(A), np.inf, epsabs=0.0, epsrel=1e-12, limit=300)
    return val


def _mpmath_tail_sum(a, beta, k):
    """sum_{i > k} i**-a (log i)**-beta to 50 digits: the terms up to the
    head by mpmath.fsum; from A = max(k, head) + 1/2 on, the integral in z =
    log x, scaled by the integrand's bound at z = log A (mpmath.quad drops
    terms that are tiny in absolute terms), plus the midpoint
    Euler-Maclaurin corrections through the fifth derivative."""
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)

        def f(x):
            return x**-a * mpmath.log(x) ** -b

        head = mpmath.fsum(f(mpmath.mpf(i)) for i in range(k + 1, _HEAVY_HEAD + 1))
        A = mpmath.mpf(max(k, _HEAVY_HEAD)) + mpmath.mpf(1) / 2
        L = mpmath.log(A)
        ref = -(a - 1) * L - b * mpmath.log(L)
        rate = (a - 1) + b / L
        pts = [L + j / rate for j in (0, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256)]
        integral = mpmath.exp(ref) * mpmath.quad(
            lambda z: mpmath.exp(-(a - 1) * z - b * mpmath.log(z) - ref), pts + [mpmath.inf])
        em = (mpmath.diff(f, A, 1) / 24 - 7 * mpmath.diff(f, A, 3) / 5760
              + 31 * mpmath.diff(f, A, 5) / 967680)
        return head + integral + em


class TestHeavyKernel:
    """The one-off numbers of a log-heavy law: its tail table and tail sums,
    and the iterates that its head sum drives."""

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("beta", [1.5, 2.5, 3.0, 50.0, HEAVY_BETA_MAX])
    def test_tail_table_matches_adaptive_quad(self, a, beta):
        law = {2: LogHeavyImmigrationLaw, 3: LogHeavyOffspringLaw}[a](beta)
        law._build_spline()
        theta = law._spline.x
        table = _heavy_tail_table(a, beta, theta)
        # the spline goes through the table
        assert np.array_equal(law._spline.c[3], table[:-1])
        ref = np.log([_adaptive_tail_integral(a, beta, t) for t in np.exp(theta).tolist()])
        assert np.max(np.abs(np.expm1(table - ref))) <= 1e-11
        for i in (0, theta.size // 2, theta.size - 1):
            exact = _mpmath_log_tail(a, beta, math.exp(theta[i]))
            assert abs(float(mpmath.expm1(table[i] - exact))) <= 1e-12

    def test_offspring_iterates_match_the_expm1_head(self):
        # the old scalar head, sum_k p_k (1 - e**-(k t)) by one expm1 dot,
        # in the same recursion: the baby-step giant-step head moves u_j by
        # rounding only
        model = make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}},
                           {"family": "bernoulli01", "params": {"q1": 0.5}})
        law, n = model.offspring, 20000
        got = extinction_iterates(model, n).one_minus_fj0
        ks = np.arange(2, _HEAVY_HEAD + 1, dtype=float)
        terms = _heavy_term(ks, law.a, law.beta)
        u = law.one_minus_pgf(1.0)  # u_1 = 1 - p_0, no head sum
        ref = [1.0, u]
        for _ in range(n - 1):
            t = float(-np.log1p(-u))
            head = -float(np.dot(terms, np.expm1(ks * -t)))
            u = law.atom1 * u + law.c * (head + float(law._one_minus_tail(np.array([t]))[0]))
            ref.append(u)
        assert np.max(np.abs(got / np.array(ref) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1.5, 2.5, 3.0, 50.0, HEAVY_BETA_MAX])
    def test_tail_sum_against_mpmath(self, a, beta):
        # with f'(A)/24 - 7 f'''(A)/5760 the worst case is 4.4e-14, at beta =
        # 300 (1.1e-11 without the f''' term)
        bound = 1e-13
        for k in (1, 100, _HEAVY_HEAD, 65536, 10**6):
            exact = float(_mpmath_tail_sum(a, beta, k))
            if exact < sys.float_info.min:
                continue  # subnormal: no relative accuracy to keep
            assert abs(_heavy_tail_sum(a, beta, k) / exact - 1.0) <= bound

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("beta", [1.5, 2.5, 3.0, 50.0, HEAVY_BETA_MAX])
    def test_tail_sum_matches_adaptive_quad(self, a, beta):
        for k in (_HEAVY_HEAD, 65536, 10**6):
            A = k + 0.5
            la = math.log(A)
            deriv = -(A ** (-a - 1)) * la ** (-beta) * (a + beta / la)
            b1, b2 = beta * (beta + 1), beta * (beta + 1) * (beta + 2)
            deriv3 = -(A ** (-a - 3)) * la ** (-beta) * (
                a * (a + 1) * (a + 2) + (3 * a * a + 6 * a + 2) * beta / la
                + 3 * (a + 1) * b1 / la**2 + b2 / la**3)
            ref = _adaptive_power_tail(A, a, beta) + deriv / 24.0 - 7 * deriv3 / 5760
            if ref < sys.float_info.min:
                continue
            assert abs(_heavy_tail_sum(a, beta, k) / ref - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [_HEAVY_HEAD, 20000, 65536])
    def test_tail_mass_beyond_keeps_its_relative_accuracy(self, k):
        # a total - cumsum table lost 1.1e-6, 3.7e-5 and 4.7e-4 of these
        law = LogHeavyOffspringLaw(1.5)
        exact = law.c * float(_mpmath_tail_sum(3, 1.5, k))
        assert abs(law.tail_mass(k) / exact - 1.0) <= 1e-12

    def test_construction_peak_memory(self):
        import tracemalloc

        tracemalloc.start()
        try:
            make_law({"family": "log-heavy-immigration", "params": {"beta": 1.5}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTailSpline:
    """The log-heavy laws' numpy spline and quadrature rule, against scipy's
    CubicSpline and 40-digit mpmath."""

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("beta", [1.01, 1.5, 3.0, 50.0, HEAVY_BETA_MAX])
    def test_matches_cubic_spline_on_tail_tables(self, a, beta):
        from scipy.interpolate import CubicSpline

        law = {2: LogHeavyImmigrationLaw, 3: LogHeavyOffspringLaw}[a](beta)
        law._build_spline()
        theta = law._spline.x
        table = _heavy_tail_table(a, beta, theta)
        got, ref = _NotAKnotSpline(theta, table), CubicSpline(theta, table)
        eps = np.finfo(float).eps
        assert got.c.shape == ref.c.shape == (4, theta.size - 1)
        assert np.all(np.abs(got.c - ref.c) <= 4 * eps * np.abs(ref.c))
        rng = np.random.default_rng(33)
        q = np.concatenate((theta, np.nextafter(theta, -np.inf), np.nextafter(theta, np.inf),
                            rng.uniform(theta[0], theta[-1], 20000)))
        for pts in (q, np.sort(q)):
            want = ref(pts)
            assert np.all(np.abs(got(pts) - want) <= 4 * eps * np.abs(want))

    @pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
    def test_reproduces_a_cubic(self, grid):
        rng = np.random.default_rng(7)
        if grid == "uniform":
            x = np.linspace(-1.0, 2.0, 40)
        else:
            x = np.cumsum(rng.uniform(0.02, 0.15, 40)) - 1.0
        cubic = np.polynomial.Polynomial([1.0, -2.0, 0.5, 0.25])
        spline = _NotAKnotSpline(x, cubic(x))
        q = np.concatenate((x, rng.uniform(x[0], x[-1], 1000)))
        want = cubic(q)
        assert np.all(np.abs(spline(q) - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        # a scalar or 0-d query gives a scalar
        for point in (0.3, np.float64(0.3), np.array(0.3)):
            value = spline(point)
            assert np.ndim(value) == 0
            assert abs(value - cubic(0.3)) <= 1e-13

    def test_rule_literals_against_mpmath(self):
        # roots of P_10, weights 2 / ((1 - x**2) P_10'(x)**2), with
        # (x**2 - 1) P_n' = n (x P_n - P_{n-1})
        with mpmath.workdps(40):
            for x, w in zip(_GL_NODES, _GL_WEIGHTS):
                root = mpmath.findroot(lambda t: mpmath.legendre(10, t), mpmath.mpf(x))
                slope = 10 * (root * mpmath.legendre(10, root) - mpmath.legendre(9, root)) / (
                    root**2 - 1)
                weight = 2 / ((1 - root**2) * slope**2)
                assert abs(mpmath.mpf(x) - root) <= np.spacing(x)
                assert abs(mpmath.mpf(w) - weight) <= np.spacing(w)

    def test_rule_integrates_degree_19(self):
        x, w = _gauss_legendre()
        assert np.all(np.diff(x) > 0) and x.size == 10
        for k in range(20):
            assert abs(float(np.dot(w, x**k)) - 1.0 / (k + 1)) <= 1e-15


_RUN_BETAS = [1.01, 1.5, 2.5, 50.0, HEAVY_BETA_MAX]


def _assert_steps_within_4_ulp(law, u0, got):
    """Each iterate within 4 eps relative of one_minus_pgf at the one
    before it, u0 before the first."""
    prev = np.concatenate(([u0], got[:-1]))
    phi = law.one_minus_pgf(prev)
    assert np.all(np.abs(got - phi) <= 4 * np.finfo(float).eps * phi)


class TestCorrectedRuns:
    """Log-heavy offspring iterates by corrected runs of iterate_granule
    generations, against the base class's scalar loop."""

    G = LogHeavyOffspringLaw.iterate_granule

    @pytest.mark.parametrize("beta", _RUN_BETAS)
    def test_matches_the_scalar_loop(self, beta):
        law, n = LogHeavyOffspringLaw(beta), 20000
        got = law.one_minus_iterates(1.0, 0, n)
        ref = Law.one_minus_iterates(law, 1.0, 0, n)
        assert np.max(np.abs(got / ref - 1.0)) <= 5e-14
        _assert_steps_within_4_ulp(law, 1.0, got)

    @pytest.mark.parametrize("beta", _RUN_BETAS)
    @pytest.mark.parametrize("u0", [1e-9, 1e-200])
    def test_small_starts(self, beta, u0):
        # near u = 0 the map is the identity to about B u / 2 relative, so
        # two evaluations of the recursion drift apart by their rounding,
        # linearly in the steps taken (2.2e-13 after 1124 steps at beta =
        # 50 from 1e-9), so their bound grows by 4 ulp per step
        law, n = LogHeavyOffspringLaw(beta), 2 * self.G + 100
        got = law.one_minus_iterates(u0, 0, n)
        _assert_steps_within_4_ulp(law, u0, got)
        ref = Law.one_minus_iterates(law, u0, 0, n)
        assert np.all(np.abs(got / ref - 1.0) <= 4 * np.finfo(float).eps * np.arange(1, n + 1))

    @pytest.mark.parametrize("beta", _RUN_BETAS)
    def test_zero_stays_zero(self, beta):
        law = LogHeavyOffspringLaw(beta)
        for start in (0, 100):
            got = law.one_minus_iterates(0.0, start, 2 * self.G)
            assert np.array_equal(got, np.zeros(2 * self.G))

    @pytest.mark.parametrize("beta", _RUN_BETAS)
    def test_the_scalar_loop_ends_runs_below_the_cell_floor(self, beta):
        # log-heavy immigration has mean 1/2, so u falls through the floor
        # to the subnormals within a few runs
        law, n = LogHeavyImmigrationLaw(beta), 3 * self.G
        got = law.one_minus_iterates(1.0, 0, n)
        ref = Law.one_minus_iterates(law, 1.0, 0, n)
        above = ref >= _CELL_FLOOR
        assert not above[-1] and got[-1] == ref[-1]
        assert np.max(np.abs(got[above] / ref[above] - 1.0)) <= 5e-14
        _assert_steps_within_4_ulp(law, 1.0, got[above])
        off = LogHeavyOffspringLaw(beta)
        assert np.array_equal(off.one_minus_iterates(1e-295, 100, self.G),
                              Law.one_minus_iterates(off, 1e-295, 100, self.G))

    @pytest.mark.parametrize("beta", _RUN_BETAS)
    def test_shorter_counts_are_prefixes(self, beta):
        law, G = LogHeavyOffspringLaw(beta), self.G
        for u0, start in ((1.0, 0), (0.01, 100)):
            longest = law.one_minus_iterates(u0, start, 3 * G + 50)
            for count in (1, G - 101, G - 1, G, G + 1, 2 * G + 7, 3 * G + 49):
                assert np.array_equal(law.one_minus_iterates(u0, start, count),
                                      longest[:count]), (start, count)

    @pytest.mark.parametrize("beta", _RUN_BETAS)
    def test_cells_built_in_reverse_give_the_same_bits(self, beta):
        forward, backward, n = LogHeavyOffspringLaw(beta), LogHeavyOffspringLaw(beta), 4000
        got = forward.one_minus_iterates(1.0, 0, n)
        for i in sorted(forward._cells, reverse=True):
            backward._build_cells(i)
        assert all(backward._cells[i] == cell for i, cell in forward._cells.items())
        assert np.array_equal(backward.one_minus_iterates(1.0, 0, n), got)


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


_EPS = np.finfo(float).eps


def _disk_points(count: int, seed: int) -> np.ndarray:
    """count points u with |1 - u| <= 1 (up to rounding) and |u| log-uniform
    from 1e-300 to 2: every other point inside the disk, the rest on its
    boundary circle |1 - u| = 1, where |u|**2 = 2 Re u."""
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(-300.0, math.log10(2.0), count)
    half = np.arccos(rho / 2.0)  # the widest angle of u at modulus rho
    phi = np.where(np.arange(count) % 2 == 0, rng.uniform(-1.0, 1.0, count),
                   rng.choice([-1.0, 1.0], count)) * half
    return rho * np.exp(1j * phi)


def _dyadic_probs(d: int, seed: int) -> list:
    """An explicit law on 0..d whose probabilities are dyadic and sum to 1
    exactly, so 1 - pgf(1 - u) = sum_k p_k (1 - (1 - u)**k) holds exactly."""
    raw = np.random.default_rng(seed).integers(1, 64, d + 1).astype(float)
    probs = raw / 2.0 ** math.ceil(math.log2(raw.sum()))
    probs[0] += 1.0 - probs.sum()
    return probs.tolist()


def _mpmath_one_minus_pgf(law, u: complex) -> complex:
    """1 - h(1 - u) at the exact u, with 40 significant digits: the working
    precision covers the digits 1 - h(1 - u) cancels at small |u|."""
    with mpmath.workdps(40 + max(0, math.ceil(-math.log10(abs(u))))):
        s = 1 - mpmath.mpc(u.real, u.imag)
        if law.kind == "explicit":
            h = mpmath.polyval([mpmath.mpf(p) for p in law.probs[::-1]], s)
        elif law.kind == "poisson":
            h = mpmath.exp(law.rate * (s - 1))
        elif law.kind == "binary":
            h = (1 + s * s) / 2
        elif law.kind == "geometric-critical":
            h = 1 / (2 - s)
        else:
            h = 1 - mpmath.mpf(law.q1) + mpmath.mpf(law.q1) * s
        return complex(1 - h)


_LIGHT_SPECS = [
    "geometric-critical",
    "binary",
    {"family": "poisson", "params": {"mean": 2.0}},
    {"family": "poisson", "params": {"mean": 20.0}},
    {"family": "bernoulli01", "params": {"q1": 0.4}},
    {"family": "explicit", "probs": _dyadic_probs(3, 1)},
    {"family": "explicit", "probs": _dyadic_probs(20, 2)},
]


class TestKernel:
    """one_minus_pgf(u) = 1 - h(1 - u), every family's one pointwise
    kernel, on the closed disk |1 - u| <= 1."""

    @pytest.mark.parametrize("spec", _LIGHT_SPECS, ids=lambda s: str(make_law(s).describe()))
    def test_complex_points_against_mpmath(self, spec):
        # within 4 eps of |1 - h(1 - u)|; an explicit law on 0..d within the
        # first-order Horner bound (3d + 2) eps |u| sum_i T_i |1 - u|**i, T_i
        # = P(X > i): d complex steps of about 1.7 eps each, plus the
        # rounding of s = 1 - u (i eps/2 in term i) and of the T_i
        law = make_law(spec)
        us = _disk_points(600, 31)
        ref = np.array([_mpmath_one_minus_pgf(law, u) for u in us])
        if law.kind == "explicit":
            d = law.support_bound
            T = np.cumsum(np.array(law.probs[:0:-1]))[::-1]
            scale = np.abs(us) * (np.abs(1.0 - us)[:, None] ** np.arange(d) @ T)
            bound = (3 * d + 2) * _EPS * scale
        else:
            bound = 4.0 * _EPS * np.abs(ref)
        assert np.all(np.abs(law.one_minus_pgf(us) - ref) <= bound)
        scalars = np.array([law.one_minus_pgf(complex(u)) for u in us])
        assert np.all(np.abs(scalars - ref) <= bound)

    @pytest.mark.parametrize("spec", _LIGHT_SPECS, ids=lambda s: str(make_law(s).describe()))
    def test_out_has_the_bits_of_a_fresh_array(self, spec):
        # out receives the values and is returned; it may be u itself
        law = make_law(spec)
        for us in (_disk_points(600, 32), np.linspace(0.0, 1.0, 257)):
            want = law.one_minus_pgf(us)
            buf = np.empty_like(us)
            assert law.one_minus_pgf(us, out=buf) is buf
            assert np.array_equal(buf, want)
            alias = us.copy()
            assert law.one_minus_pgf(alias, out=alias) is alias
            assert np.array_equal(alias, want)

    @pytest.mark.parametrize("spec", _FAMILY_SPECS,
                             ids=lambda s: s if isinstance(s, str) else s["family"])
    def test_types_follow_the_argument(self, spec):
        law = make_law(spec)
        assert isinstance(law.one_minus_pgf(0.25), float)
        assert isinstance(law.one_minus_pgf(0.25 + 0.25j), complex)
        for u in (np.array([0.25]), np.array([0.25 + 0.25j, 0.5])):
            out = law.one_minus_pgf(u)
            assert isinstance(out, np.ndarray) and out.shape == u.shape
        assert isinstance(law.pgf(0.5), float) and isinstance(law.pgf(0.5j), complex)

    @pytest.mark.parametrize("spec", _FAMILY_SPECS,
                             ids=lambda s: s if isinstance(s, str) else s["family"])
    def test_pgf_is_the_complement_of_the_kernel(self, spec):
        law = make_law(spec)
        for s in (0.0, 0.3, 1.0, -0.5, 0.6 - 0.8j):
            assert law.pgf(s) == 1.0 - law.one_minus_pgf(1.0 - s)
        s = np.array([0.0, 0.3, 1.0, -0.5, 0.6 - 0.8j])
        assert np.array_equal(law.pgf(s), 1.0 - law.one_minus_pgf(1.0 - s))
