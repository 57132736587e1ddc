"""Closed-form limits and bounds for the lower-deviation regime, plus
exact-versus-asymptotic diagnostics.

Everything routes through the iterate cache: with L(n) = 1/(n**gamma F(n)),
the lower-deviation formulas

    tail:  P(Y_n <= k) ~ (2/B)**gamma / Gamma(gamma+1) * k**gamma L(k) / (n**gamma L(n))
    local: P(Y_n = k)  ~ (2/B)**gamma / Gamma(gamma)   * k**(gamma-1) L(k) / (n**gamma L(n))

are evaluated in the log domain.  The fixed-k normalization n**gamma L(n)
P(Y_n = k) equals P(Y_n = k)/F(n) identically, which is how the
stabilization sequences are computed.  The gamma limit law of 2 Y_n/(B n)
comes from the package's one incomplete gamma, pgf._log_gamma_upper, the
function that also sizes every full law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Model
from .pgf import IterateCache, _log_gamma_upper, exact_pmf_Y


@dataclass
class AsymptoticReportRow:
    n: int
    k: int
    exact: float | None
    asymptotic: float
    ratio: float | None
    formula: str
    untrusted: bool = False


def build_report_row(n: int, k: int, exact: float | None, asymptotic: float,
                     formula: str, deficit: float = 0.0) -> AsymptoticReportRow:
    """Pair an exact value with a formula value; results resting on less
    probability mass than 10x the truncation deficit are marked untrusted
    rather than reported as ratios."""
    untrusted = exact is not None and exact < 10.0 * deficit
    ratio = None
    if exact is not None and asymptotic > 0.0 and not untrusted:
        ratio = exact / asymptotic
    return AsymptoticReportRow(n, k, exact, asymptotic, ratio, formula, untrusted)


def _gamma_cdf_at(gamma: float, x: float) -> float:
    """P(gamma, x) = 1 - Q(gamma, x) from the log of Q that sizes full laws;
    0 at x = 0, 1 at x = inf, nan for nan."""
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x != x:
        return x
    return -math.expm1(_log_gamma_upper(gamma, x))


def gamma_limit_cdf(gamma: float, x):
    """Regularized lower incomplete gamma: the limit law of 2 Y_n/(B n);
    elementwise over an array of x, a float for a float."""
    if gamma <= 0.0:
        raise ValueError("shape parameter must be positive")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise ValueError("the limit law lives on x >= 0")
    if not xs.ndim:
        return _gamma_cdf_at(gamma, float(xs))
    cdf = [_gamma_cdf_at(gamma, v) for v in xs.ravel().tolist()]
    return np.array(cdf, dtype=float).reshape(xs.shape)


def _local_log(model: Model, n: int, logk):
    """log of (2/B)^g k^(g-1) n^-g / Gamma(g), the factor shared by the
    local asymptote and the local-limit density, from log k (a float or an
    array), summed left to right."""
    g = model.gamma
    return -math.lgamma(g) + g * math.log(2.0 / model.B) + (g - 1.0) * logk - g * math.log(n)


def mellein_local(model: Model, n: int, k: int) -> float:
    """Local-limit density value (2/B)^g k^(g-1) n^-g e^(-2k/(Bn)) / Gamma(g)."""
    return float(math.exp(_local_log(model, n, math.log(k)) - 2.0 * k / (model.B * n)))


def _l_ratio_log(cache: IterateCache, k: int, n: int) -> float:
    """log of L(k)/L(n), for 1 <= k, n."""
    logL = cache.logL_at([k, n])
    return float(logL[0] - logL[1])


def main1_eval(model: Model, cache: IterateCache, n: int, k: int) -> float:
    """Lower-tail asymptote for P(Y_n <= k), k -> inf with k = o(n)."""
    if not (1 <= k <= n <= cache.N):
        raise ValueError("need 1 <= k <= n <= cache horizon")
    g, B = model.gamma, model.B
    return float(
        math.exp(
            -math.lgamma(g + 1.0)
            + g * math.log(2.0 / B)
            + g * (math.log(k) - math.log(n))
            + _l_ratio_log(cache, k, n)
        )
    )


def main2_eval(model: Model, cache: IterateCache, n: int, k: int) -> float:
    """Local asymptote for P(Y_n = k), k -> inf with k = o(n) (aperiodic)."""
    if not (1 <= k <= n <= cache.N):
        raise ValueError("need 1 <= k <= n <= cache horizon")
    return float(math.exp(_local_log(model, n, math.log(k)) + _l_ratio_log(cache, k, n)))


def main3_mu_estimate(model: Model, cache: IterateCache, n_grid, k: int) -> np.ndarray:
    """Sequence n^gamma L(n) P(Y_n = k) = P(Y_n = k)/F(n) over the grid;
    its stabilization estimates the fixed-k limit constant."""
    ns = sorted(int(n) for n in n_grid)
    if ns and ns[-1] > cache.N:
        raise ValueError("cache horizon too short for the grid")
    K = max(k, 1)
    out = []
    for n in ns:
        p = exact_pmf_Y(model, n, K, 0, deficit_ceiling=math.inf)[k]
        out.append(p / cache.F_ratio(n, 0) if n >= 1 else p)
    return np.array(out)


def gw_llt_eval(gprime1: float, B: float, n: int, j: int) -> float:
    """Plain branching local limit with a random start of mean gprime1:
    4 g'(1)/(B^2 n^2) * exp(-2j/(Bn))."""
    return 4.0 * gprime1 / (B * n) ** 2 * math.exp(-2.0 * j / (B * n))


def conjecture_sup(model: Model, n: int, epsilon: float, K: int) -> float:
    """sup over k >= eps*n of the uniform typical-zone local error

        | n P(Y_n=k) - (2/B) (2k/(Bn))^(gamma-1) e^(-2k/(Bn)) / Gamma(gamma) |,

    conjectured to vanish.  The (2/B) scale factor makes the comparison
    density the k-derivative of the limit law (and matches the local
    asymptote in its overlap zone); without it the expression is only
    correct when B = 2."""
    if K < n:
        raise ValueError("need K >= n to cover k of order n")
    lo = int(math.ceil(epsilon * n))
    if lo > K:
        return 0.0  # empty range convention
    pmf = exact_pmf_Y(model, n, K)
    ks = np.arange(max(lo, 1), K + 1, dtype=float)
    # n times the local-limit density
    dens = n * np.exp(_local_log(model, n, np.log(ks)) - 2.0 * ks / (model.B * n))
    return float(np.max(np.abs(n * pmf.probs[max(lo, 1):] - dens)))


def lemma5_ratio(model: Model, cache: IterateCache, n: int, k: int, K: int) -> float:
    """P(Y_n <= k) / prod_{j=k}^{n-1} h(f_j(0)); sandwiched between
    positive constants uniformly in 1 <= k <= n.  P(Y_n <= k) is read off
    the window 0..K, exact at any K >= k, so no deficit is checked."""
    if not (1 <= k <= n <= cache.N):
        raise ValueError("need 1 <= k <= n <= cache horizon")
    if k > K:
        raise ValueError("truncation bound smaller than k")
    pmf = exact_pmf_Y(model, n, K, deficit_ceiling=math.inf)
    tail = float(pmf.cdf()[k])
    return tail / cache.F_ratio(n, k)


def lemma5_sandwich(model: Model, cache: IterateCache, n, k, K: int) -> tuple[float, float]:
    """(min, max) of the lemma5_ratio over grids of n and k (scalars allowed)."""
    ns = [n] if np.isscalar(n) else list(n)
    ks = [k] if np.isscalar(k) else list(k)
    ratios = [
        lemma5_ratio(model, cache, int(nn), int(kk), K)
        for nn in ns
        for kk in ks
        if kk <= nn
    ]
    if not ratios:
        raise ValueError("empty (n, k) sweep")
    return min(ratios), max(ratios)
