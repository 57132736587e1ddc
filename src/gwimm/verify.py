"""Named verification checks: one per acceptance criterion, runnable at
two scales.

`desk` keeps every check inside a few seconds with the same logic and
thresholds wherever affordable; `full` runs the acceptance-grade sizes.
The registry drives both the `verify` CLI subcommand and the acceptance
test module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import montecarlo as mc
from .asymptotics import gamma_limit_cdf, gw_llt_eval, lemma5_sandwich, main2_eval
from .models import Model, make_law, make_model
from .oracles import enumerate_population_pmf
from .pgf import (charfn_modulus, exact_pmf_Y, exact_pmf_Z,
                  extinction_iterates, full_law_truncation)
from .reporting import serialize
from .theta import joint_Y_theta_window, theta_pmf


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""
    seconds: float = field(default=0.0)

    def verdict(self) -> str:
        return "pass" if self.passed else "FAIL"


def _bern(q1=0.5):
    return make_law({"family": "bernoulli01", "params": {"q1": q1}})


def _geo_bern() -> Model:
    return make_model("geometric-critical", _bern())


def _bin_bern() -> Model:
    return make_model("binary", _bern())


# ---------------------------------------------------------------------------
# checks


def check_oracle_equivalence(scale: str) -> CheckResult:
    """Exact engine vs exhaustive rational enumeration, binary+bernoulli."""
    model = _bin_bern()
    half = Fraction(1, 2)
    worst = 0.0
    for n in range(0, 5):
        engine = exact_pmf_Y(model, n, 32)
        oracle = enumerate_population_pmf([half, 0, half], [half, half], n)
        for k in range(33):
            worst = max(worst, abs(engine[k] - float(oracle.get(k, Fraction(0)))))
    frozen = np.array([0.375, 0.375, 0.125, 0.125])
    worst = max(worst, float(np.max(np.abs(exact_pmf_Y(model, 2, 8).probs[:4] - frozen))))
    return CheckResult("oracle-equivalence", worst <= 1e-12, worst, 1e-12,
                       "engine vs enumeration, n <= 4, plus frozen n=2 row")


def check_normalization(scale: str) -> CheckResult:
    """Closed-form F, the sqrt(pi) limit of L, and pmf mass accounting."""
    model = _geo_bern()
    cache = extinction_iterates(model, 10**4)
    rel = 0.0
    for n in range(1, 31):
        closed = math.comb(2 * n, n) / 4.0**n
        rel = max(rel, abs(cache.F[n] - closed) / closed)
    part_f = rel / 1e-10
    l_err = abs(float(np.exp(cache.logL_at(10**4))) - math.sqrt(math.pi)) / math.sqrt(math.pi)
    part_l = l_err / 0.005
    mass_err = 0.0
    for m, n, K in [(model, 64, 256), (_bin_bern(), 40, 128)]:
        pmf = exact_pmf_Y(m, n, K, deficit_ceiling=1.0)
        mass_err = max(mass_err, abs(1.0 - (math.fsum(pmf.probs.tolist()) + pmf.deficit)))
    part_m = mass_err / 1e-12
    value = max(part_f, part_l, part_m)
    return CheckResult(
        "normalization", value <= 1.0, value, 1.0,
        f"F rel err {rel:.2e} (tol 1e-10), |L(1e4)-sqrt(pi)| rel {l_err:.2e} "
        f"(tol 5e-3), mass err {mass_err:.2e} (tol 1e-12)",
    )


def _gamma_limit_distance(model: Model, n: int) -> tuple[float, float]:
    K = full_law_truncation(model, n, 1e-9)
    pmf = exact_pmf_Y(model, n, K, deficit_ceiling=1e-8)
    cum = np.cumsum(pmf.probs)
    xs = 2.0 * np.arange(K + 1) / (model.B * n)
    gx = gamma_limit_cdf(model.gamma, xs)
    dist = max(float(np.max(np.abs(cum - gx))),
               float(np.max(np.abs(cum[:-1] - gx[1:]))))
    return dist, pmf.deficit


def check_gamma_limit(scale: str) -> CheckResult:
    """Kolmogorov distance of the scaled population law to its gamma limit."""
    n, tol = (4096, 0.02) if scale == "full" else (512, 0.05)
    worst = 0.0
    parts = []
    for model in (_bin_bern(), _geo_bern()):
        dist, deficit = _gamma_limit_distance(model, n)
        parts.append(f"{model.describe()}: KS {dist:.4f} (deficit {deficit:.1e})")
        worst = max(worst, dist)
    return CheckResult("gamma-limit", worst <= tol, worst, tol,
                       f"n={n}; " + "; ".join(parts))


def check_main2_ratio(scale: str) -> CheckResult:
    """Exact local probabilities against the lower-deviation asymptote."""
    model = _bin_bern()
    grid = [2**10, 2**12, 2**14] if scale == "full" else [2**8, 2**10, 2**12]
    cache = extinction_iterates(model, grid[-1])
    # only coefficient isqrt(n) is read: a window up to the largest one
    K = math.isqrt(grid[-1])
    ratios = []
    for n in grid:
        k = math.isqrt(n)
        p = exact_pmf_Y(model, n, K, deficit_ceiling=2.0)[k]
        ratios.append(p / main2_eval(model, cache, n, k))
    gaps = [abs(r - 1.0) for r in ratios]
    in_band = 0.85 <= ratios[-1] <= 1.15
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    detail = "ratios " + ", ".join(f"{r:.4f}" for r in ratios)
    return CheckResult("main2-ratio", in_band and decreasing, gaps[-1], 0.15,
                       detail + ("; |ratio-1| decreasing" if decreasing else
                                 "; |ratio-1| NOT decreasing"))


def check_theta_consistency(scale: str) -> CheckResult:
    """Joint cohort decomposition resums to the exact law; theta law sums to 1."""
    model = _bin_bern()
    cache = extinction_iterates(model, 16)
    n, K = 3, 16
    exact = exact_pmf_Y(model, n, K)
    worst_joint = 0.0
    for k in range(1, 9):
        win = joint_Y_theta_window(model, cache, n, k, K)
        worst_joint = max(worst_joint, abs(math.fsum(win.tolist()) - exact[k]))
    geo = _geo_bern()
    big = extinction_iterates(geo, 10**4)
    law = theta_pmf(big, 10**4)
    sum_err = abs(law.total() - 1.0)
    value = max(worst_joint / 1e-10, sum_err / 1e-12)
    return CheckResult(
        "theta-consistency", value <= 1.0, value, 1.0,
        f"joint resum err {worst_joint:.2e} (tol 1e-10); "
        f"theta total err {sum_err:.2e} at n=1e4 (tol 1e-12)",
    )


def check_mc_vs_exact(scale: str) -> CheckResult:
    """Estimators against the exact engine; coverage and efficiency at full
    scale, fixed-seed agreement at desk scale."""
    geo = _geo_bern()
    if scale != "full":
        # geometric offspring take the surviving-cohort route, binary the reduced tree
        bpo = make_model("binary", {"family": "poisson", "params": {"mean": 1.0}})
        parts, value = [], 0.0
        # (n, k, K of the exact window) of the naive run, then the stratified
        for model, (n_n, k_n, K_n), (n_s, k_s, K_s) in (
                (geo, (128, 8, 1024), (512, 16, 2048)), (bpo, (128, 8, 32), (1024, 8, 32))):
            exact_n = float(exact_pmf_Y(model, n_n, K_n, deficit_ceiling=1.0).cdf()[k_n])
            r_n = mc.estimate_lower_tail_naive(
                model, n_n, k_n, mc.SimConfig(samples=20000, seed=20250809))
            z_n = abs(r_n.estimate - exact_n) / r_n.stderr
            exact_s = float(exact_pmf_Y(model, n_s, K_s, deficit_ceiling=1.0).cdf()[k_s])
            r_s = mc.estimate_lower_tail_stratified(
                model, n_s, k_s, mc.SimConfig(samples=10000, seed=20250809))
            z_s = abs(r_s.estimate + 0.5 * r_s.bracket_high - exact_s) / (
                r_s.stderr + 0.5 * r_s.bracket_high / 3.5)
            value = max(value, z_n, z_s)
            parts.append(f"{model.describe()}: naive z {z_n:.2f} (n={n_n},k={k_n}), "
                         f"stratified z {z_s:.2f} (n={n_s},k={k_s})")
        return CheckResult("mc-vs-exact", value <= 3.5, value, 3.5, "; ".join(parts))
    # full scale: 99% CI coverage over 200 repeats, then stderr comparison
    exact128 = float(exact_pmf_Y(geo, 128, 1024, deficit_ceiling=1.0).cdf()[8])
    runs, zq = 200, 2.5758293035489004  # 99% normal quantile
    cover_n = cover_s = 0
    for rep in range(runs):
        cfg = mc.SimConfig(samples=4096, seed=31000 + rep)
        rn = mc.estimate_lower_tail_naive(geo, 128, 8, cfg)
        if abs(rn.estimate - exact128) <= zq * rn.stderr:
            cover_n += 1
        rs = mc.estimate_lower_tail_stratified(geo, 128, 8, cfg)
        lo = rs.estimate - zq * rs.stderr
        hi = rs.estimate + zq * rs.stderr + rs.bracket_high
        if lo <= exact128 <= hi:
            cover_s += 1
    cfg = mc.SimConfig(samples=4000, seed=77)
    rs = mc.estimate_lower_tail_stratified(geo, 4096, 32, cfg)
    rn = mc.estimate_lower_tail_naive(geo, 4096, 32, cfg)
    eff = rs.stderr / rn.stderr
    coverage = min(cover_n, cover_s) / runs
    passed = coverage >= 0.95 and eff < 1.0
    return CheckResult(
        "mc-vs-exact", passed, coverage, 0.95,
        f"coverage naive {cover_n}/200, stratified {cover_s}/200; "
        f"stderr ratio stratified/naive {eff:.3f} at n=4096,k=32 (must be < 1)",
    )


_SUP_GRID = (128, 256, 512)


def _doubling_check(name: str, sup_at) -> CheckResult:
    """sup_at(model, n) over _SUP_GRID for both light models; passes while
    no doubling of n grows the sup by more than 5%."""
    worst = -math.inf
    parts = []
    for model in (_bin_bern(), _geo_bern()):
        sups = [sup_at(model, n) for n in _SUP_GRID]
        worst = max(worst, max((b - a) / a for a, b in zip(sups, sups[1:])))
        parts.append(f"{model.describe()}: " + ",".join(f"{s:.4f}" for s in sups))
    return CheckResult(name, worst <= 0.05, worst, 0.05, "; ".join(parts))


def check_lemma9_sup(scale: str) -> CheckResult:
    """sup_m m P(Y_n = m) stays bounded as n doubles."""
    def sup(model, n):
        pmf = exact_pmf_Y(model, n, 6 * n, deficit_ceiling=1.0)
        return float(np.max(np.arange(6 * n + 1) * pmf.probs))
    return _doubling_check("lemma9-sup", sup)


def check_lemma10p_bound(scale: str) -> CheckResult:
    """sup_k k*(age)*P(cohort = k) stays bounded as the age doubles."""
    def sup(model, n):
        pmf = exact_pmf_Z(model, n, 6 * n, deficit_ceiling=1.0)
        return float(np.max(np.arange(6 * n + 1) * n * pmf.probs))
    return _doubling_check("lemma10p-bound", sup)


def check_lemma8_decay(scale: str) -> CheckResult:
    """sup_t |H_n(e^it)| (n|t|)^theta stays bounded as n doubles."""
    ts = np.geomspace(1e-4, math.pi / 2, 400)

    def sup(model, n):
        theta_exp = min(2.0 * model.gamma, 0.5)
        return float(np.max(charfn_modulus(model, n, ts) * (n * ts) ** theta_exp))
    return _doubling_check("lemma8-decay", sup)


def check_gw_llt_ratio(scale: str) -> CheckResult:
    """Cohort law against the plain-branching local limit.

    The binary offspring law is 2-periodic (all descendants even), so on
    its lattice the correct comparison multiplies the density by the span;
    the aperiodic geometric variant uses the plain formula.
    """
    n = 512 if scale == "full" else 256
    worst = 0.0
    for model in (_bin_bern(), _geo_bern()):
        law = exact_pmf_Z(model, n, 4 * n, deficit_ceiling=1.0)
        span = model.offspring.lattice_span
        # the first lattice point at or above n // 10
        for j in range(-(-(n // 10) // span) * span, n + 1, span):
            ratio = law[j] / (span * gw_llt_eval(model.lam, model.B, n, j))
            worst = max(worst, abs(ratio - 1.0))
    return CheckResult(
        "gw-llt-ratio", worst <= 0.1, worst, 0.1,
        f"n={n}, j in [n/10, n]; binary span-corrected (x2), geometric plain",
    )


def check_lemma6_trend(scale: str) -> CheckResult:
    """Regimes of the slowly varying correction L(n) = 1/(n^gamma F(n)).

    Directions follow the divergence analysis (heavy immigration slows the
    decay of F, so L falls; heavy offspring accelerates it, so L grows);
    magnitude thresholds are the acceptance ones.
    """
    lo = 10**3
    hi = 10**5 if scale == "full" else 10**4
    heavy_imm = make_model("binary",
                           {"family": "log-heavy-immigration", "params": {"beta": 1.5}})
    heavy_off = make_model({"family": "log-heavy-offspring", "params": {"beta": 1.5}},
                           _bern())
    ratios = {}
    for name, model in [
        ("heavy-immigration", heavy_imm),
        ("heavy-offspring", heavy_off),
        ("light-geometric", _geo_bern()),
        ("light-binary", _bin_bern()),
    ]:
        L_lo, L_hi = np.exp(extinction_iterates(model, hi).logL_at([lo, hi]))
        ratios[name] = float(L_hi / L_lo)
    ok_imm = ratios["heavy-immigration"] <= 1.0 / 1.2
    ok_off = ratios["heavy-offspring"] >= 1.2
    ok_light = all(0.98 <= ratios[nm] <= 1.02
                   for nm in ("light-geometric", "light-binary"))
    margin = min(
        (1.0 / ratios["heavy-immigration"]) / 1.2,
        ratios["heavy-offspring"] / 1.2,
    )
    detail = ", ".join(f"{nm}: L({hi:.0e})/L({lo:.0e})={r:.4f}"
                       for nm, r in ratios.items())
    return CheckResult("lemma6-trend", ok_imm and ok_off and ok_light,
                       margin, 1.0, detail + " (margin = worst trend / 1.2)")


def check_lemma4_ratio(scale: str) -> CheckResult:
    """Tail product vs (k/n)^gamma L(k)/L(n) (an identity of the cache)."""
    model = _geo_bern()
    cache = extinction_iterates(model, 10**4)
    k, n = 100, 10**4
    prod = cache.F_ratio(n, k)
    logL_k, logL_n = cache.logL_at([k, n])
    rhs = (k / n) ** model.gamma * math.exp(logL_k - logL_n)
    ratio = prod / rhs
    return CheckResult("lemma4-ratio", 0.99 <= ratio <= 1.01, abs(ratio - 1.0),
                       0.01, f"ratio {ratio!r} at k=100, n=1e4")


def check_lemma5_sandwich(scale: str) -> CheckResult:
    """Tail probability vs the extinction product stays in a fixed band."""
    model = _geo_bern()
    if scale == "full":
        ns, ks = [256, 1024, 4096], [8, 16, 32]
    else:
        ns, ks = [256, 1024], [8, 16]
    cache = extinction_iterates(model, max(ns))
    lo, hi = lemma5_sandwich(model, cache, ns, ks, max(ks))
    passed = (lo > 0.05) and (hi < 20.0)
    return CheckResult("lemma5-sandwich", passed, lo, 0.05,
                       f"observed ratio band [{lo:.4f}, {hi:.4f}] over n={ns}, k={ks}")


def check_determinism(scale: str) -> CheckResult:
    """Identical (seed, streams) must reproduce byte-identical output, also
    across worker counts."""
    model = _bin_bern()
    outs = []
    for jobs in (1, 2, 1):
        cfg = mc.SimConfig(samples=2000, seed=99, streams=3)
        rn = mc.estimate_lower_tail_naive(model, 64, 8, cfg, jobs=jobs)
        rs = mc.estimate_lower_tail_stratified(model, 64, 8, cfg, jobs=jobs)
        outs.append(serialize({
            "method": [rn.method, rs.method], "estimate": [rn.estimate, rs.estimate],
            "stderr": [rn.stderr, rs.stderr], "samples": [rn.samples_used, rs.samples_used],
            "seed": cfg.seed, "streams": cfg.streams}, "csv"))
    same = outs[0] == outs[1] == outs[2]
    return CheckResult("determinism", same, 0.0 if same else 1.0, 0.0,
                       "naive+stratified CSV bytes across jobs in {1,2}")


CHECKS = {
    "normalization": check_normalization,
    "oracle-equivalence": check_oracle_equivalence,
    "lemma4-ratio": check_lemma4_ratio,
    "lemma5-sandwich": check_lemma5_sandwich,
    "lemma8-decay": check_lemma8_decay,
    "lemma9-sup": check_lemma9_sup,
    "lemma10p-bound": check_lemma10p_bound,
    "gw-llt-ratio": check_gw_llt_ratio,
    "main2-ratio": check_main2_ratio,
    "lemma6-trend": check_lemma6_trend,
    "theta-consistency": check_theta_consistency,
    "mc-vs-exact": check_mc_vs_exact,
    "gamma-limit": check_gamma_limit,
    "determinism": check_determinism,
}


def run_checks(names=None, scale: str = "desk") -> list[CheckResult]:
    if scale not in ("desk", "full"):
        raise ValueError("scale must be 'desk' or 'full'")
    selected = list(CHECKS) if not names else list(names)
    unknown = [nm for nm in selected if nm not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    results = []
    for nm in selected:
        start = time.perf_counter()
        res = CHECKS[nm](scale)
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
