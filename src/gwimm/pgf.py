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
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import numpy.fft  # loaded with the module, not on the first full law

from .models import Law, Model
from .series import (
    DIRECT_CONV_MAX,
    identity_series,
    series_exp,
    series_exp_rows,
    series_mul,
    series_pow,
)

DEFAULT_DEFICIT_CEILING = 1e-6

# Full laws with K > DIRECT_CONV_MAX are read off a circle of radius r < 1
# (Abate and Whitt, Queueing Systems 10, 1992): the pgf at
# N = next_fast_len(CIRCLE_OVERSAMPLE * (K + 1)) points, one inverse FFT,
# then coefficient k scaled by r**-k.  With r**N = CIRCLE_DAMPING, mass
# aliased from k + N is damped by that factor, while rounding at k <= K
# grows by at most CIRCLE_DAMPING**(-1/CIRCLE_OVERSAMPLE), about 316
# (the radius trade-off of Bornemann, Found. Comput. Math. 11, 2011).
CIRCLE_OVERSAMPLE = 4
CIRCLE_DAMPING = 1e-10
# Coefficients 0..CIRCLE_WINDOW of a circle-path law come from the series
# engine at K = CIRCLE_WINDOW instead: direct convolutions of nonnegative
# series, which keep every tiny lower-tail coefficient to full relative
# accuracy and exact lattice zeros.
CIRCLE_WINDOW = 64


class DeficitError(ValueError):
    """Truncation lost more mass than the configured ceiling allows."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# iterate cache


@dataclass
class IterateCache:
    """Read-only arrays indexed by generation j = 0..N.

    The four fields are views of the model's iterate store.  fj0, logF, F,
    logL and L are derived from them on first read and kept; a caller that
    needs a few generations reads logF_at / logL_at there instead.
    """

    model: Model
    N: int
    one_minus_fj0: np.ndarray  # 1 - f_j(0), exact complement
    one_minus_hfj0: np.ndarray
    logF_pos: np.ndarray       # log of the product over nonzero factors only
    zero_factors: np.ndarray   # count of zero factors h(f_j(0)) with j < n

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                _frozen(value)

    def log_F_ratio(self, n, m) -> np.ndarray:
        """log F(n)/F(m) = sum_{j=m}^{n-1} log h(f_j(0)), elementwise over
        ints or broadcasting arrays.  -inf where a zero factor lies between
        m and n; finite when a common zero factor makes both F vanish.  The
        only reader of zero_factors; the simulator also reads logF_pos, as
        the cumulative hazard of the surviving immigrant batches."""
        return np.where(self.zero_factors[n] == self.zero_factors[m],
                        self.logF_pos[n] - self.logF_pos[m], -np.inf)

    def F_ratio(self, n, m):
        """F(n)/F(m) = prod_{j=m}^{n-1} h(f_j(0)), elementwise as
        log_F_ratio; a float for scalar arguments."""
        ratio = np.exp(self.log_F_ratio(n, m))
        return ratio if np.ndim(ratio) else float(ratio)

    def logF_at(self, ns) -> np.ndarray:
        """log F(n) at the generations ns (-inf where a factor is 0)."""
        return self.log_F_ratio(ns, 0)

    def logL_at(self, ns) -> np.ndarray:
        """log L(n) = -gamma log n - log F(n) at the generations ns >= 1."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return -self.model.gamma * np.log(np.asarray(ns, dtype=float)) - self.logF_at(ns)

    @cached_property
    def fj0(self) -> np.ndarray:
        """f_j(0)."""
        return _frozen(1.0 - self.one_minus_fj0)

    @cached_property
    def logF(self) -> np.ndarray:
        """log F(n), n = 0..N (-inf where a factor is 0)."""
        return _frozen(self.logF_at(np.arange(self.N + 1)))

    @cached_property
    def F(self) -> np.ndarray:
        return _frozen(np.exp(self.logF))

    @cached_property
    def logL(self) -> np.ndarray:
        """log L(n), n >= 1; index 0 is nan."""
        logL = self.logL_at(np.arange(self.N + 1))
        logL[0] = math.nan
        return _frozen(logL)

    @cached_property
    def L(self) -> np.ndarray:
        return _frozen(np.exp(self.logL))


# Generations are added to an iterate store in blocks of this length: the
# offspring law's one_minus_iterates runs the recursion over the block, then
# the block's immigration factors and log F prefix are computed on arrays.
# A multiple of every Law.iterate_granule.
ITER_BLOCK = 8192


class _IterStore:
    """Grow-on-demand backing arrays shared by every cache on one model.

    Only u_{j+1} = 1 - f(1 - u_j) is sequential, one Law.one_minus_iterates
    call per block (a scalar loop, a closed form, or corrected runs).  Each
    fill ends at a multiple of the offspring law's iterate_granule (the
    length of a corrected run, 1 for other laws), so every call starts
    where a fresh store's would, from the same stored value.  v_j = 1 -
    h(1 - u_j) is one array call per block, and log F accumulates by Sum2
    (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005): a running float
    sum of the log factors, plus a running sum of the exact error of each
    of its additions.  Every step is elementwise or a sequential cumsum
    continued from stored totals, so a store grown in any sequence of steps
    holds the same bits as a fresh one.
    """

    def __init__(self, model: Model):
        self.model = model
        cap = 1024
        self.u = np.zeros(cap)
        self.v = np.zeros(cap)
        self.logFp = np.zeros(cap)
        self.nzero = np.zeros(cap, dtype=np.int64)
        self.u[0] = 1.0
        self.v[0] = model.immigration.one_minus_pgf(self.u[:1])[0]
        self.filled = 0  # largest valid generation index
        self._sum = 0.0    # running float sum of log(1 - v_j) over nonzero factors
        self._carry = 0.0  # running sum of that sum's rounding errors

    def ensure(self, N: int):
        if N <= self.filled:
            return
        granule = self.model.offspring.iterate_granule
        N = -(-N // granule) * granule
        cap = self.u.shape[0]
        if N + 1 > cap:
            new_cap = max(N + 1, 2 * cap)
            for name in ("u", "v", "logFp", "nzero"):
                arr = getattr(self, name)
                grown = np.zeros(new_cap, dtype=arr.dtype)
                grown[: arr.shape[0]] = arr
                setattr(self, name, grown)
        while self.filled < N:
            self._fill(min(self.filled + ITER_BLOCK, N))

    def _fill(self, b: int):
        """Generations filled+1..b; the store stays consistent if it raises."""
        a = self.filled
        u = self.u
        u[a + 1 : b + 1] = self.model.offspring.one_minus_iterates(float(u[a]), a, b - a)
        self.v[a + 1 : b + 1] = self.model.immigration.one_minus_pgf(u[a + 1 : b + 1])
        v = self.v[a:b]
        zero = v >= 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(zero, 0.0, np.log1p(-v))
        total, carry = _running_sum2(np.float64(self._sum), np.float64(self._carry), terms)
        self.logFp[a + 1 : b + 1] = total[1:] + carry[1:]
        self.nzero[a + 1 : b + 1] = self.nzero[a] + np.cumsum(zero)
        self._sum = float(total[-1])
        self._carry = float(carry[-1])
        self.filled = b


def _running_sum2(total0: np.ndarray, carry0: np.ndarray, terms: np.ndarray):
    """Sum2 prefix sums of terms along axis 0, continued from a running
    float sum total0 and the running sum carry0 of its rounding errors.

    Returns (total, carry), each with the starting values as row 0; row i
    of total + carry is the compensated sum after i terms.  Both are
    sequential cumsums, so a sum continued from any row has the bits of
    one run from the start.
    """
    total = np.cumsum(np.concatenate((total0[None], terms)), axis=0)
    prev, now = total[:-1], total[1:]
    # TwoSum: prev + terms == now + err exactly
    back = now - prev
    err = (prev - (now - back)) + (terms - back)
    carry = np.cumsum(np.concatenate((carry0[None], err)), axis=0)
    return total, carry


_STORES: dict[Model, _IterStore] = {}


def extinction_iterates(model: Model, N: int) -> IterateCache:
    """Cache of f_j(0), h(f_j(0)), F and L up to horizon N (>= 1).

    Stores grow monotonically per model, so asking for a longer horizon
    later reuses all earlier work.  Every array of the cache is read-only;
    its four fields are views of the store, which never rewrites
    generations already filled (growth past its capacity moves it to new
    arrays and leaves the old ones as they are).
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    store = _STORES.get(model)
    if store is None:
        store = _IterStore(model)
        _STORES[model] = store
    store.ensure(N)
    return IterateCache(
        model=model,
        N=N,
        one_minus_fj0=store.u[: N + 1],
        one_minus_hfj0=store.v[: N + 1],
        logF_pos=store.logFp[: N + 1],
        zero_factors=store.nzero[: N + 1],
    )


# ---------------------------------------------------------------------------
# truncated pmfs


@dataclass
class TruncatedPmf:
    """Probability vector on 0..K with the lost tail mass tracked.

    Mass beyond K is dropped, never renormalized.  K = len(probs) - 1 and
    deficit = 1 - sum(probs) are derived from the coefficients.  ``path``
    names the engine that produced them:

    - "series": truncated products of the factor series, direct
      convolutions of nonnegative series at every K (for Poisson
      immigration, the exponential of a sum of nonnegative series), so
      each coefficient is a certified lower bound on the true probability,
      to relative rounding (exact for laws whose series are exact;
      log-heavy laws are cut at K).  In windows of Y_n from 0
      (exact_pmf_Y) coefficient 0 is F(n) to rounding for every law: the
      factors' constant terms come from the iterate store.
    - "circle": coefficients 0..CIRCLE_WINDOW as on "series" at
      K = CIRCLE_WINDOW, with the same guarantee; the rest from the pgf
      on a damped circle, walked in u = 1 - z (_circle_products), within
      about 1e-13 absolute of the true value, 3e-16 or better on light
      models at n <= 256 (not a lower bound; slightly negative noise is
      clipped to 0).
    """

    probs: np.ndarray
    path: str = "series"
    K: int = field(init=False)
    deficit: float = field(init=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if not np.all(np.isfinite(probs)):
            raise FloatingPointError("non-finite coefficient in truncated pmf")
        if np.any(probs < -1e-9):
            raise ValueError("negative probability in truncated pmf")
        self.probs = np.maximum(probs, 0.0)
        self.K = self.probs.shape[0] - 1
        self.deficit = max(0.0, 1.0 - math.fsum(self.probs.tolist()))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def __getitem__(self, k: int) -> float:
        """P(. = k), 0 for k < 0; past K the mass is in the deficit, unknown."""
        if k > self.K:
            raise IndexError(f"k={k} is past the truncation K={self.K}, in the deficit")
        return float(self.probs[k]) if k >= 0 else 0.0


def full_law_truncation(model: Model, n: int, tail: float, initial: int = 0) -> int:
    """Truncation bound for the full law of Y_n given Y_0 = initial: 64 past
    the point x B n / 2 beyond which the gamma limit law of 2 Y_n / (B n)
    keeps mass ``tail``, so the deficit at K is of the order of ``tail``.
    Founders add y / u_n (u_n = 1 - f_n(0)): S ~ Bin(initial, u_n) of them
    have descendants at n, about 1/u_n each, and a gamma law of shape
    mu + 6 sqrt(mu) + 1, mu = initial u_n, keeps mass ``tail`` beyond y."""
    x_hi = gamma_upper_quantile(model.gamma, tail)  # raises unless 0 < tail < 1
    K = int(x_hi * model.B * n / 2.0) + 64
    if initial > 0:
        u = float(extinction_iterates(model, max(n, 1)).one_minus_fj0[n])
        mu = initial * u
        K += int(gamma_upper_quantile(mu + 6.0 * math.sqrt(mu) + 1.0, tail) / u)
    return K


def _log_gamma_upper(a: float, x: float) -> float:
    """log Q(a, x) of the regularized upper incomplete gamma function, for
    a > 0 and x > 0.

    Below x = a + 1 the series of P = 1 - Q, whose terms fall at once;
    above it the continued fraction of Q, by modified Lentz (Numerical
    Recipes, 2nd ed., section 6.2).  Both converge to a relative eps.
    """
    eps = sys.float_info.epsilon
    if x < a + 1.0:
        # P = x^a e^-x / Gamma(a + 1) sum_n x^n / ((a + 1) ... (a + n))
        term = total = 1.0
        ap = a
        while term > eps * total:
            ap += 1.0
            term *= x / ap
            total += term
        lead = a * math.log(x) - x - math.lgamma(a + 1.0)
        return math.log1p(-math.exp(lead) * total)
    lead = a * math.log(x) - x - math.lgamma(a)
    tiny = sys.float_info.min / eps
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= eps:
            break
    return lead + math.log(h)


def gamma_upper_quantile(a: float, tail: float) -> float:
    """The x > 0 with Q(a, x) = tail, for a > 0 and 0 < tail < 1: the
    point beyond which a gamma law of shape a keeps mass ``tail``.

    Bisection in log x (each step the geometric mean of the bracket) on
    the sign of log Q(a, x) - log tail (_log_gamma_upper), to adjacent
    floats, about 60 evaluations; it returns the upper end, where Q <=
    tail.  0.0 when the quantile is below the least positive float.
    """
    if not (a > 0.0 and 0.0 < tail < 1.0):
        raise ValueError(f"need a > 0 and tail in (0, 1), got a={a!r}, tail={tail!r}")
    target = math.log(tail)
    lo = math.ulp(0.0)  # the bracket keeps Q(a, lo) > tail >= Q(a, hi)
    if _log_gamma_upper(a, lo) <= target:
        return 0.0
    hi = 2.0 * a + 1.0
    while _log_gamma_upper(a, hi) > target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return hi
        if _log_gamma_upper(a, mid) > target:
            lo = mid
        else:
            hi = mid


def _check_generation(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"generation count must be >= 0, got {name}={n}")


# The series chain steps this many generations per block: one call for the
# block's offspring iterates and one for its immigration factors (or their
# logs), then one truncated product per generation, or one cumulative sum
# per block.  Every row has the bits it would have one generation at a
# time, so block edges never show in a result.
CHAIN_BLOCK = 64


class _ChainStore:
    """The series chain of one model at one order K.

    It keeps the state (f_n, H_n) with H_n = prod_{m<n} h(f_m) at every
    horizon n asked for so far.  A later horizon continues from the
    largest kept state below it, by the same steps as a fresh chain, so it
    gets bit-identical series.  Two walks, chosen by the immigration law:

    - sum walk (immigration laws that override Law.log_apply_to_series:
      Poisson): H_n = exp(S_n) with S_n = sum_{m<n} log h(f_m), rate
      (f_m - 1) for Poisson.  S_n is kept at every kept horizon and grows
      by one Sum2 prefix sum per block (as log F in the iterate store);
      each new horizon costs one series_exp.  The constant of log h(f_m)
      comes from u_m = 1 - f_m(0) in the model's iterate store, so
      coefficient 0 of H_n is F(n) to rounding, and every other
      coefficient of S_n is a sum of nonnegative terms.  Once F(n) is
      below the normal floats, series_exp keeps log F(n) out of its
      recurrence, so a coefficient underflows only where its own value
      does.
    - product walk (every other law): one truncated product per
      generation, each factor's constant term h(f_m(0)) = 1 - v_m read
      from the iterate store rather than composed from the drifting
      series constant f_m(0).

    It also keeps the joint rows R_m = H_m (h(f_m) - h(f_m(0))),
    m = 0..nrows-1, which do not depend on the horizon:
    P(Y_n = k, theta_n = n - m) = R_m[k] F(n)/F(m+1) for every n > m.
    Each row is a direct product of nonnegative series, so every
    coefficient keeps its relative accuracy; H_{m+1} - h(f_m(0)) H_m is
    the same series but cancels.  On the sum walk H_m = exp(S_m) and
    h(f_m) = exp(log h(f_m)) are read off the same sums, a block's rows
    by one stacked exponential (series_exp_rows).
    """

    def __init__(self, model: Model, K: int):
        self.model = model
        self.K = K
        acc = np.zeros(K + 1)
        acc[0] = 1.0
        self.horizons = [0]
        self.states = [(_frozen(identity_series(K)), _frozen(acc))]
        # S_n = log H_n at each kept horizon n, on the sum walk only, as
        # Sum2's (running sum, running error sum)
        zero = _frozen(np.zeros(K + 1))
        self.sums = {0: (zero, zero)} if _sum_walk(model) else None
        self.nrows = 0
        self._rows = np.zeros((0, K + 1))  # capacity doubles as rows grow

    def state(self, n: int):
        """(series of f_n, series of H_n), both read-only."""
        i = bisect_right(self.horizons, n) - 1
        if self.horizons[i] == n:
            return self.states[i]
        return self._walk(i, n, rows=False)

    def rows(self, count: int) -> np.ndarray:
        """R_0..R_{count-1} as the lines of one read-only array."""
        if count > self.nrows:
            cap = self._rows.shape[0]
            if count > cap:
                grown = np.zeros((max(count, 2 * cap), self.K + 1))
                grown[: self.nrows] = self._rows[: self.nrows]
                self._rows = grown
            # the walk keeps its end state, so nrows is always a kept horizon
            self._walk(self.horizons.index(self.nrows), count, rows=True)
        return _frozen(self._rows[:count])

    def _walk(self, i: int, n: int, rows: bool):
        """Step from kept state i to horizon n and keep the state there;
        with rows, also fill the rows of the generations stepped over."""
        m = self.horizons[i]
        g, acc = self.states[i]
        off, imm, K = self.model.offspring, self.model.immigration, self.K
        cache = extinction_iterates(self.model, n)
        if self.sums is not None:
            total, carry = self.sums[m]
        while m < n:
            count = min(CHAIN_BLOCK, n - m)
            later = off.iterate_series(g, m, count, K)  # f_{m+1}..f_{m+count}
            block = np.concatenate((g[None], later[:-1]))  # f_m..f_{m+count-1}
            if self.sums is not None:
                logs = imm.log_apply_to_series(block, cache.one_minus_fj0[m : m + count], K)
                totals, carries = _running_sum2(total, carry, logs)  # S_m..S_{m+count}
                if rows:
                    # H_m..H_{m+count-1} and the cohort factors h(f_m), in
                    # one stacked exponential
                    hz = series_exp_rows(np.concatenate((totals[:-1] + carries[:-1], logs)), K)
                    hz[count:, 0] = 0.0
                    for r in range(count):
                        self._rows[m + r] = series_mul(hz[r], hz[count + r], K)
                total, carry = totals[-1], carries[-1]
            else:
                factors = imm.apply_to_series(block, K)
                factors[:, 0] = 1.0 - cache.one_minus_hfj0[m : m + count]
                if rows:
                    zs = factors.copy()
                    zs[:, 0] = 0.0
                # series_mul's bits: acc and every factor have K+1 terms
                for r, factor in enumerate(factors):
                    if rows:
                        self._rows[m + r] = np.convolve(acc, zs[r])[: K + 1]
                    acc = np.convolve(acc, factor)[: K + 1]
            m += count
            g = later[-1]
        if rows:
            self.nrows = n
        j = bisect_right(self.horizons, n)
        if self.horizons[j - 1] != n:
            if self.sums is not None:
                # copies: a row would keep its whole block alive
                self.sums[n] = (_frozen(total.copy()), _frozen(carry.copy()))
                acc = series_exp(total + carry, K)
            self.horizons.insert(j, n)
            # a copy: a row of `later` would keep its whole block alive
            self.states.insert(j, (_frozen(g.copy()), _frozen(acc)))
            j += 1
        return self.states[j - 1]


def _sum_walk(model: Model) -> bool:
    """Whether the series chain of model sums log h(f_m): its immigration
    law gives them by overriding Law.log_apply_to_series."""
    return type(model.immigration).log_apply_to_series is not Law.log_apply_to_series


_CHAINS: dict[tuple[Model, int], _ChainStore] = {}


def _closed_form(model: Model) -> bool:
    """Whether both laws are vectorised_pgf laws: those whose one_minus_pgf
    is a closed form on complex arrays (so a full law can take the circle
    path) and whose apply_to_series and iterate_series are exact in the
    truncated ring at any order (closed forms, bounded support, the
    Poisson exponential)."""
    return model.offspring.vectorised_pgf and model.immigration.vectorised_pgf


def _chain_order(model: Model, K: int) -> int:
    """Order of the stored chain that serves windows at K.

    For closed-form models, coefficients 0..K of the chain at a higher
    order are the same numbers up to rounding, so one chain at
    CIRCLE_WINDOW serves every K below it.  Log-heavy laws are cut at K,
    so their chain must run at K itself.
    """
    return max(K, CIRCLE_WINDOW) if _closed_form(model) else K


def _chain_store(model: Model, K: int) -> _ChainStore:
    """The stored chain that serves windows at K (created on first use)."""
    key = (model, _chain_order(model, K))
    store = _CHAINS.get(key)
    if store is None:
        store = _CHAINS[key] = _ChainStore(model, key[1])
    return store


def _series_pmf(model: Model, n: int, K: int, initial: int) -> np.ndarray:
    """Coefficients 0..K of the law of Y_n, read off the model's stored
    series chain (one truncated multiply, or one row of a sum, per
    generation not yet reached)."""
    g, acc = _chain_store(model, K).state(n)
    acc = acc[: K + 1]
    return acc if initial == 0 else series_mul(acc, series_pow(g[: K + 1], initial, K), K)


def _series_cohort(model: Model, m: int, K: int) -> np.ndarray:
    """Coefficients 0..K of h(f_m(s)) by series composition, the constant
    terms f_m(0) and h(f_m(0)) read from the iterate store as in
    _ChainStore (the series chain's own f_m(0) drifts at late m)."""
    cache = extinction_iterates(model, max(m, 1))
    g = identity_series(K)
    for start in range(0, m, CHAIN_BLOCK):
        g = model.offspring.iterate_series(g, start, min(CHAIN_BLOCK, m - start), K)[-1]
    g[0] = 1.0 - cache.one_minus_fj0[m]
    out = model.immigration.apply_to_series(g, K)
    out[0] = 1.0 - cache.one_minus_hfj0[m]
    return out


def next_fast_len(n: int) -> int:
    """The least 2**i 3**j 5**k >= n, for n >= 1: a length the FFT
    factors into radices 2, 3 and 5 (scipy.fft.next_fast_len(n,
    real=True) gives the same)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two with p35 * p2 >= n
            p2 = 1 << (-(-n // p35) - 1).bit_length()
            best = min(best, p35 * p2)
            p35 *= 3
        p5 *= 5
    return best


def _circle_points(K: int):
    """(N, r, u): u = 1 - z at the N // 2 + 1 points z = r e^{-2 pi i j / N},
    the half circle a real inverse FFT of length N reads, formed as
    -expm1(log r - 2 pi i j / N) so that u keeps its digits near z = 1."""
    N = next_fast_len(CIRCLE_OVERSAMPLE * (K + 1))
    r = CIRCLE_DAMPING ** (1.0 / N)
    return N, r, -np.expm1(math.log(r) - 2j * math.pi / N * np.arange(N // 2 + 1))


def _circle_coefficients(values: np.ndarray, N: int, r: float, K: int) -> np.ndarray:
    """Coefficients 0..K of a pgf from its values at _circle_points(K)."""
    return np.fft.irfft(values, N)[: K + 1] * r ** -np.arange(K + 1.0)


def _circle_products(model: Model, u: np.ndarray, n: int, products: bool = True):
    """(H_n(z), 1 - f_n(z)) at the points z = 1 - u, where H_n(z) =
    prod_{m<n} h(f_m(z)).  The walk steps u_m = 1 - f_m(z), the precise
    coordinate near z = 1: each generation multiplies in 1 -
    imm.one_minus_pgf(u_m), then steps u_{m+1} = off.one_minus_pgf(u_m).
    With products=False only u steps and H_n is None.

    The walk works in place on a copy of u, on w and on one buffer for
    the factors, through the kernels' ``out``, so a generation allocates
    only the kernels' temporaries (one array or none for the closed
    forms but the explicit law's two).  With several fresh arrays per
    generation, glibc's allocator returned their memory to the system
    and faulted it back in every generation once N was large: the
    cohort law of binary + bernoulli01(0.5) at m = 1024, K = 6144 took
    34k page faults and 0.08 s on a 2-vCPU host, against 220 and 0.03 s
    in place.  The values have the bits of the walk written with fresh
    arrays."""
    imm, off = model.immigration, model.offspring
    u = u.copy()
    w = np.ones_like(u) if products else None
    factor = np.empty_like(u) if products else None
    for _ in range(n):
        if products:
            imm.one_minus_pgf(u, out=factor)
            w *= np.subtract(1.0, factor, out=factor)
        off.one_minus_pgf(u, out=u)
    return w, u


def _circle_pmf(model: Model, n: int, K: int, initial: int) -> np.ndarray:
    """As _series_pmf, from the pgf on a damped circle; coefficients
    0..CIRCLE_WINDOW from _series_pmf at K = CIRCLE_WINDOW."""
    N, r, u = _circle_points(K)
    w, un = _circle_products(model, u, n)
    if initial > 0:
        w = w * (1.0 - un) ** initial
    probs = _circle_coefficients(w, N, r, K)
    probs[: CIRCLE_WINDOW + 1] = _series_pmf(model, n, CIRCLE_WINDOW, initial)
    return probs


def _circle_cohort(model: Model, m: int, K: int) -> np.ndarray:
    """As _series_cohort, from h(f_m(z)) = 1 - imm.one_minus_pgf(1 -
    f_m(z)) on a damped circle; coefficients 0..CIRCLE_WINDOW from
    _series_cohort at K = CIRCLE_WINDOW."""
    N, r, u = _circle_points(K)
    _, um = _circle_products(model, u, m, products=False)
    probs = _circle_coefficients(1.0 - model.immigration.one_minus_pgf(um), N, r, K)
    probs[: CIRCLE_WINDOW + 1] = _series_cohort(model, m, CIRCLE_WINDOW)
    return probs


def _exact_law(model: Model, n: int, K: int, initial: int, deficit_ceiling: float,
               cohort: bool = False) -> TruncatedPmf:
    """Truncated law at generation n, validated, routed and guarded: the
    law of Y_n (exact_pmf_Y) or, with cohort=True, of one cohort's line
    after n generations (exact_pmf_Z)."""
    n = int(n)
    _check_generation(n, "m" if cohort else "n")
    if initial < 0:
        raise ValueError("initial population must be >= 0")
    if K < 0:
        raise ValueError(f"truncation bound must be >= 0, got K={K}")
    path = "circle" if K > DIRECT_CONV_MAX and _closed_form(model) else "series"
    if cohort:
        engine = _circle_cohort if path == "circle" else _series_cohort
        probs = engine(model, n, K)
    else:
        engine = _circle_pmf if path == "circle" else _series_pmf
        probs = engine(model, n, K, initial)
    pmf = TruncatedPmf(probs, path=path)
    if pmf.deficit > deficit_ceiling:
        where = (f"for cohort law at m={n}; increase K={K}" if cohort
                 else f"at n={n}; increase the truncation bound K={K}")
        raise DeficitError(
            f"deficit {pmf.deficit:.3e} exceeds ceiling {deficit_ceiling:.3e} {where}")
    return pmf


def exact_pmf_Y(
    model: Model,
    n: int,
    K: int,
    initial: int = 0,
    deficit_ceiling: float = DEFAULT_DEFICIT_CEILING,
) -> TruncatedPmf:
    """Exact truncated law of Y_n given Y_0 = initial, at one horizon n.

    Uses the independent-cohort product: the pgf of Y_n from 0 is
    prod_{m=0}^{n-1} h(f_m(s)), and initial particles contribute an extra
    factor f_n(s)**initial.  Two routes, recorded in ``path``:

    - "series" (K <= DIRECT_CONV_MAX, or a log-heavy law): one truncated
      direct convolution per generation, of nonnegative series at every
      K, each factor's constant term h(f_m(0)) read from the iterate
      store.  Poisson immigration instead sums log h(f_m) = rate (f_m -
      1), its constant -rate u_m from the store, and takes one
      series_exp per horizon (a recurrence of nonnegative terms, with no
      pmf cut-off).  Coefficients are exact up to relative roundoff
      whenever the factor series are: bounded-support families, the
      geometric closed form and geometric immigration (a nonnegative
      reciprocal recurrence), and Poisson immigration.  Log-heavy laws
      are cut at K and give lower bounds, except coefficient 0, which is
      F(n) to rounding for every law when initial = 0.  The chain is
      stored per model and order, and a later call, at any horizon,
      continues it from the largest stored horizon below its own:
      closed-form models run one chain at max(K, CIRCLE_WINDOW), so
      every window K <= CIRCLE_WINDOW at every horizon reached so far is
      a slice of it; log-heavy models keep one chain per K.  Results
      depend only on (model, n, K, initial), never on earlier calls.
    - "circle" (K > DIRECT_CONV_MAX, both pgfs closed forms): the product
      evaluated pointwise on a damped circle, walked in u = 1 - z from
      the circle's points to generation n, and inverted by one FFT;
      coefficients 0..CIRCLE_WINDOW come from the series route at K =
      CIRCLE_WINDOW and keep full relative accuracy, the rest are within
      about 1e-13 absolute of the true probabilities.
    """
    return _exact_law(model, n, K, initial, deficit_ceiling)


def exact_pmf_Z(
    model: Model,
    m: int,
    K: int,
    deficit_ceiling: float = DEFAULT_DEFICIT_CEILING,
) -> TruncatedPmf:
    """Exact truncated law of one immigrant cohort's line after m
    generations: coefficients of h(f_m(s)).

    Routed as exact_pmf_Y: above DIRECT_CONV_MAX, for closed-form
    pgfs, h(f_m(z)) on a damped circle with coefficients
    0..CIRCLE_WINDOW from the series composition at K = CIRCLE_WINDOW.
    """
    return _exact_law(model, m, K, 0, deficit_ceiling, cohort=True)


def charfn_modulus(model: Model, n: int, t_grid) -> np.ndarray:
    """|H_n(exp(it))| on a grid of real t, by the walk of _circle_products
    from u = 1 - e^{it} = -expm1(it).

    The error is absolute, about 1e-15 of the grid's largest modulus: a
    factor 1 - (1 - h) cannot resolve |h| below about 1e-16, so where
    |H_n| is tiny relative accuracy goes (binary + poisson(20), n = 64:
    1e-32 at t = pi for a true 4.2e-18, relative error 3e-5 at t = 2).
    """
    _check_generation(n)
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    w, _ = _circle_products(model, -np.expm1(1j * t), n)
    return np.abs(w)
