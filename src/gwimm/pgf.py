"""Generating-function machinery: extinction iterates, the cumulative
zero-probability products F(n) with their slowly varying correction L(n),
exact truncated distributions, and evaluation on the unit circle.

Conventions: f is the offspring pgf, h the immigration pgf, f_j the j-th
iterate with f_0 the identity, so f_0(0) = 0 and

    F(0) = 1,   F(n) = prod_{j=0}^{n-1} h(f_j(0)) = P(Y_n = 0 | Y_0 = 0),
    L(n) = 1 / (n**gamma * F(n)).

Iterates are tracked as u_j = 1 - f_j(0) and v_j = 1 - h(f_j(0)) to keep
precision near 1; log F accumulates with compensated summation so large
horizons neither underflow nor drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import Law, Model
from .series import identity_series, series_mul, series_pow

DEFAULT_DEFICIT_CEILING = 1e-6


class DeficitError(ValueError):
    """Truncation lost more mass than the configured ceiling allows."""


def pgf_eval(law: Law, s):
    """Value of the law's pgf at s, |s| <= 1 up to tolerance.

    Closed forms are used for the parametric families; explicit laws
    evaluate their polynomial.
    """
    return law.pgf(s)


# ---------------------------------------------------------------------------
# iterate cache


@dataclass
class IterateCache:
    """Read-only arrays indexed by generation j = 0..N."""

    model: Model
    N: int
    fj0: np.ndarray            # f_j(0)
    one_minus_fj0: np.ndarray  # 1 - f_j(0), exact complement
    hfj0: np.ndarray           # h(f_j(0))
    one_minus_hfj0: np.ndarray
    logF: np.ndarray           # log F(n), n = 0..N (-inf where a factor is 0)
    F: np.ndarray
    logL: np.ndarray           # log L(n), n >= 1; index 0 is nan
    L: np.ndarray
    logF_pos: np.ndarray       # log of the product over nonzero factors only
    zero_factors: np.ndarray   # count of zero factors h(f_j(0)) with j < n

    def F_ratio(self, n: int, m: int) -> float:
        """F(n)/F(m) = prod_{j=m}^{n-1} h(f_j(0)); stays finite when a
        common zero factor makes both F values vanish."""
        if self.zero_factors[n] != self.zero_factors[m]:
            return 0.0
        return math.exp(self.logF_pos[n] - self.logF_pos[m])


class _IterStore:
    """Grow-on-demand backing arrays shared by every cache on one model."""

    def __init__(self, model: Model):
        self.model = model
        cap = 1024
        self.u = np.zeros(cap)
        self.v = np.zeros(cap)
        self.logFp = np.zeros(cap)
        self.nzero = np.zeros(cap, dtype=np.int64)
        self.u[0] = 1.0
        self.v[0] = model.immigration.one_minus_pgf(1.0)
        self.filled = 0  # largest valid generation index
        self._carry = 0.0

    def ensure(self, N: int):
        if N <= self.filled:
            return
        cap = self.u.shape[0]
        if N + 1 > cap:
            new_cap = max(N + 1, 2 * cap)
            for name in ("u", "v", "logFp"):
                arr = getattr(self, name)
                grown = np.zeros(new_cap)
                grown[: arr.shape[0]] = arr
                setattr(self, name, grown)
            grown = np.zeros(new_cap, dtype=np.int64)
            grown[: self.nzero.shape[0]] = self.nzero
            self.nzero = grown
        off = self.model.offspring.one_minus_pgf
        imm = self.model.immigration.one_minus_pgf
        u, v, logFp, nzero = self.u, self.v, self.logFp, self.nzero
        j = self.filled
        uj = u[j]
        total = logFp[j]
        zeros = int(nzero[j])
        carry = self._carry
        while j < N:
            vj = imm(uj)
            v[j] = vj
            if vj >= 1.0:
                zeros += 1
            else:
                # compensated accumulation of log F
                term = math.log1p(-vj)
                y = term - carry
                t = total + y
                carry = (t - total) - y
                total = t
            logFp[j + 1] = total
            nzero[j + 1] = zeros
            uj = off(uj)
            u[j + 1] = uj
            j += 1
        v[N] = imm(u[N])
        self.filled = N
        self._carry = carry


_STORES: dict[Model, _IterStore] = {}


def extinction_iterates(model: Model, N: int) -> IterateCache:
    """Cache of f_j(0), h(f_j(0)), F and L up to horizon N (>= 1).

    Stores grow monotonically per model, so asking for a longer horizon
    later reuses all earlier work.  Returned arrays are views; treat them
    as read-only.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    store = _STORES.get(model)
    if store is None:
        store = _IterStore(model)
        _STORES[model] = store
    store.ensure(N)
    u = store.u[: N + 1].copy()
    v = store.v[: N + 1].copy()
    logF_pos = store.logFp[: N + 1].copy()
    zero_factors = store.nzero[: N + 1].copy()
    logF = np.where(zero_factors > 0, -np.inf, logF_pos)
    ns = np.arange(N + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logL = -model.gamma * np.log(ns) - logF
    logL[0] = math.nan
    return IterateCache(
        model=model,
        N=N,
        fj0=1.0 - u,
        one_minus_fj0=u,
        hfj0=1.0 - v,
        one_minus_hfj0=v,
        logF=logF,
        F=np.exp(logF),
        logL=logL,
        L=np.exp(logL),
        logF_pos=logF_pos,
        zero_factors=zero_factors,
    )


def kolmogorov_diagnostic(cache: IterateCache) -> np.ndarray:
    """n * (1 - f_n(0)) * B/2 for n = 1..N; converges to 1 for B < inf."""
    n = np.arange(1, cache.N + 1, dtype=float)
    return n * cache.one_minus_fj0[1:] * (cache.model.B / 2.0)


# ---------------------------------------------------------------------------
# truncated pmfs


@dataclass
class TruncatedPmf:
    """Probability vector on 0..K with the lost tail mass tracked.

    Mass beyond K is dropped, never renormalized: every stored coefficient
    is a certified lower bound on the true probability.
    """

    probs: np.ndarray
    K: int = field(default=-1)
    deficit: float = field(default=-1.0)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if np.any(probs < -1e-9):
            raise ValueError("negative probability in truncated pmf")
        self.probs = np.maximum(probs, 0.0)
        if self.K < 0:
            self.K = self.probs.shape[0] - 1
        self.deficit = max(0.0, 1.0 - math.fsum(self.probs.tolist()))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def __getitem__(self, k: int) -> float:
        return float(self.probs[k]) if 0 <= k <= self.K else 0.0


def step_pmf(model: Model, y: TruncatedPmf) -> TruncatedPmf:
    """One generation step: coefficients 0..K of (sum_m y_m f(s)**m) h(s).

    Horner from the top coefficient down, one truncated multiply per
    coefficient.  The engine in exact_pmf_Y is the fast path; this is the
    direct transcription of the recursion, kept for cross-checks.
    """
    K = y.K
    if K < 1:
        raise ValueError("truncation bound must be >= 1")
    inner = model.offspring.pmf_array(K)
    acc = np.zeros(K + 1)
    acc[0] = y.probs[K]
    for m in range(K - 1, -1, -1):
        acc = series_mul(acc, inner, K)
        acc[0] += y.probs[m]
    acc = series_mul(acc, model.immigration.pmf_array(K), K)
    return TruncatedPmf(acc, K)


def _iterate_series_chain(model: Model, upto: int, K: int):
    """Yield (m, series of f_m) for m = 0..upto."""
    off = model.offspring
    g = None
    for m in range(upto + 1):
        closed = off.iterate_series(m, K)
        if closed is not None:
            g = closed
        elif m == 0:
            g = identity_series(K)
        else:
            g = off.apply_to_series(g, K)
        yield m, g


def exact_pmf_Y_multi(
    model: Model,
    ns,
    K: int,
    initial: int = 0,
    deficit_ceiling: float = DEFAULT_DEFICIT_CEILING,
) -> dict[int, TruncatedPmf]:
    """Exact truncated laws of Y_n given Y_0 = initial, at several horizons.

    Uses the independent-cohort product: the pgf of Y_n from 0 is
    prod_{m=0}^{n-1} h(f_m(s)), and initial particles contribute an extra
    factor f_n(s)**initial.  One series multiply per generation; truncated
    coefficients below K are exact up to roundoff whenever the factor
    series are: bounded-support families, the geometric closed form, and
    Poisson immigration (composed by the exponential recurrence, with no
    pmf cut-off).  Log-heavy laws are cut at K and give lower bounds.
    """
    targets = sorted(set(int(n) for n in ns))
    if targets and targets[0] < 0:
        raise ValueError("generation count must be >= 0")
    if initial < 0:
        raise ValueError("initial population must be >= 0")
    out: dict[int, TruncatedPmf] = {}
    if not targets:
        return out
    imm = model.immigration
    acc = np.zeros(K + 1)
    acc[0] = 1.0
    remaining = set(targets)
    for m, g in _iterate_series_chain(model, targets[-1], K):
        if m in remaining:
            snap = acc
            if initial > 0:
                snap = series_mul(acc, series_pow(g, initial, K), K)
            pmf = TruncatedPmf(snap, K)
            if pmf.deficit > deficit_ceiling:
                raise DeficitError(
                    f"deficit {pmf.deficit:.3e} exceeds ceiling {deficit_ceiling:.3e} "
                    f"at n={m}; increase the truncation bound K={K}"
                )
            out[m] = pmf
            remaining.discard(m)
            if not remaining:
                break
        acc = series_mul(acc, imm.apply_to_series(g, K), K)
    return out


def exact_pmf_Y(
    model: Model,
    n: int,
    K: int,
    initial: int = 0,
    deficit_ceiling: float = DEFAULT_DEFICIT_CEILING,
) -> TruncatedPmf:
    """Exact truncated law of Y_n given Y_0 = initial."""
    return exact_pmf_Y_multi(model, [n], K, initial, deficit_ceiling)[n]


def exact_pmf_Z(
    model: Model,
    m: int,
    K: int,
    deficit_ceiling: float = DEFAULT_DEFICIT_CEILING,
) -> TruncatedPmf:
    """Exact truncated law of one immigrant cohort's line after m
    generations: coefficients of h(f_m(s))."""
    if m < 0:
        raise ValueError("generation count must be >= 0")
    for mm, g in _iterate_series_chain(model, m, K):
        pass
    pmf = TruncatedPmf(model.immigration.apply_to_series(g, K), K)
    if pmf.deficit > deficit_ceiling:
        raise DeficitError(
            f"deficit {pmf.deficit:.3e} exceeds ceiling {deficit_ceiling:.3e} "
            f"for cohort law at m={m}; increase K={K}"
        )
    return pmf


def charfn_modulus(model: Model, n: int, t_grid) -> np.ndarray:
    """|H_n(exp(it))| on a grid of real t, via the complex iteration
    z <- f(z) with the immigration factor accumulated each generation."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    z = np.exp(1j * t)
    w = np.ones_like(z)
    for _ in range(n):
        w = w * model.immigration.pgf(z)
        z = model.offspring.pgf(z)
    return np.abs(w)
