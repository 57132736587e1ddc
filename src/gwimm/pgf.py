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
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
from scipy import fft as sp_fft
from scipy import special

from .models import Model
from .series import DIRECT_CONV_MAX, identity_series, series_mul, series_pow

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
        only reader of logF_pos and zero_factors."""
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


# Generations are added to an iterate store in blocks of this length: a
# scalar loop runs the offspring recursion over the block, then the block's
# immigration factors and log F prefix are computed on arrays.
ITER_BLOCK = 8192


class _IterStore:
    """Grow-on-demand backing arrays shared by every cache on one model.

    Only u_{j+1} = 1 - f(1 - u_j) is sequential.  v_j = 1 - h(1 - u_j) is
    one array call per block, and log F accumulates by Sum2 (Ogita, Rump
    and Oishi, SIAM J. Sci. Comput. 26, 2005): a running float sum of the
    log factors, plus a running sum of the exact error of each of its
    additions.  Every step is elementwise or a sequential cumsum continued
    from stored totals, so a store grown in any sequence of steps holds
    the same bits as a fresh one.
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
        off = self.model.offspring.one_minus_pgf
        u = self.u
        uj = float(u[a])
        for j in range(a + 1, b + 1):
            uj = off(uj)
            u[j] = uj
        self.v[a + 1 : b + 1] = self.model.immigration.one_minus_pgf(u[a + 1 : b + 1])
        v = self.v[a:b]
        zero = v >= 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(zero, 0.0, np.log1p(-v))
        total = np.cumsum(np.concatenate(([self._sum], terms)))
        prev, now = total[:-1], total[1:]
        # TwoSum: prev + terms == now + err exactly
        back = now - prev
        err = (prev - (now - back)) + (terms - back)
        carry = np.cumsum(np.concatenate(([self._carry], err)))
        self.logFp[a + 1 : b + 1] = now + carry[1:]
        self.nzero[a + 1 : b + 1] = self.nzero[a] + np.cumsum(zero)
        self._sum = float(total[-1])
        self._carry = float(carry[-1])
        self.filled = b


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


def kolmogorov_diagnostic(cache: IterateCache) -> np.ndarray:
    """n * (1 - f_n(0)) * B/2 for n = 1..N; converges to 1 for B < inf."""
    n = np.arange(1, cache.N + 1, dtype=float)
    return n * cache.one_minus_fj0[1:] * (cache.model.B / 2.0)


# ---------------------------------------------------------------------------
# truncated pmfs


@dataclass
class TruncatedPmf:
    """Probability vector on 0..K with the lost tail mass tracked.

    Mass beyond K is dropped, never renormalized.  K = len(probs) - 1 and
    deficit = 1 - sum(probs) are derived from the coefficients.  ``path``
    names the engine that produced them:

    - "series": truncated products of the factor series.  Up to
      K = DIRECT_CONV_MAX these are direct convolutions of nonnegative
      series, so each coefficient is a certified lower bound on the true
      probability, to relative rounding (exact for laws whose series are
      exact; log-heavy laws are cut at K).  Above that the products go
      through FFTs and small coefficients carry absolute FFT noise.
    - "circle": coefficients 0..CIRCLE_WINDOW as on "series" at
      K = CIRCLE_WINDOW, with the same guarantee; the rest from the pgf
      on a damped circle, within about 1e-13 absolute of the true value
      (not a lower bound; slightly negative noise is clipped to 0).
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
        return float(self.probs[k]) if 0 <= k <= self.K else 0.0


def full_law_truncation(model: Model, n: int, tail: float) -> int:
    """Truncation bound for the full law of Y_n: 64 past the point x B n / 2
    beyond which the gamma limit law of 2 Y_n / (B n) keeps mass ``tail``,
    so the deficit at K is of the order of ``tail``."""
    x_hi = float(special.gammainccinv(model.gamma, tail))
    return int(x_hi * model.B * n / 2.0) + 64


def _check_generation(n: int, name: str = "n") -> None:
    if n < 0:
        raise ValueError(f"generation count must be >= 0, got {name}={n}")


# The series chain steps this many generations per block: one call for the
# block's offspring iterates and one for its immigration factors, then one
# truncated product per generation.  Every row has the bits it would have
# one generation at a time, so block edges never show in a result.
CHAIN_BLOCK = 64


class _ChainStore:
    """The series chain of one model at one order K.

    It keeps the state (f_n, H_n) with H_n = prod_{m<n} h(f_m) at every
    horizon n asked for so far.  A later horizon continues from the
    largest kept state below it, by the same steps as a fresh chain, so it
    gets bit-identical series.

    It also keeps the joint rows R_m = H_m (h(f_m) - h(f_m(0))),
    m = 0..nrows-1, which do not depend on the horizon:
    P(Y_n = k, theta_n = n - m) = R_m[k] F(n)/F(m+1) for every n > m.
    Each row is a direct product of nonnegative series, so every
    coefficient keeps its relative accuracy; H_{m+1} - h(f_m(0)) H_m is
    the same series but cancels.
    """

    def __init__(self, model: Model, K: int):
        self.model = model
        self.K = K
        acc = np.zeros(K + 1)
        acc[0] = 1.0
        self.horizons = [0]
        self.states = [(_frozen(identity_series(K)), _frozen(acc))]
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
        while m < n:
            count = min(CHAIN_BLOCK, n - m)
            later = off.iterate_series(g, m, count, K)  # f_{m+1}..f_{m+count}
            factors = imm.apply_to_series(np.concatenate((g[None], later[:-1])), K)
            if rows:
                zs = factors.copy()
                zs[:, 0] = 0.0
            for r, factor in enumerate(factors):
                if rows:
                    self._rows[m + r] = series_mul(acc, zs[r], K)
                acc = series_mul(acc, factor, K)
            m += count
            g = later[-1]
        if rows:
            self.nrows = n
        j = bisect_right(self.horizons, n)
        if self.horizons[j - 1] != n:
            self.horizons.insert(j, n)
            # a copy: a row of `later` would keep its whole block alive
            self.states.insert(j, (_frozen(g.copy()), _frozen(acc)))
            j += 1
        return self.states[j - 1]


_CHAINS: dict[tuple[Model, int], _ChainStore] = {}


def _closed_form(model: Model) -> bool:
    """Whether both laws are vectorised_pgf laws: those whose pgf is a
    closed form on complex arrays (so a full law can take the circle path)
    and whose apply_to_series and iterate_series are exact in the
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


def _series_pmfs(model: Model, targets: list[int], K: int, initial: int) -> dict:
    """Coefficients 0..K of the laws of Y_n, n in the sorted targets, read
    off the model's stored series chain (one truncated multiply per
    generation not yet reached)."""
    store = _chain_store(model, K)
    out = {}
    for n in targets:
        g, acc = store.state(n)
        acc = acc[: K + 1]
        out[n] = acc if initial == 0 else series_mul(acc, series_pow(g[: K + 1], initial, K), K)
    return out


def _series_cohort(model: Model, m: int, K: int) -> np.ndarray:
    """Coefficients 0..K of h(f_m(s)) by series composition."""
    g = identity_series(K)
    for start in range(0, m, CHAIN_BLOCK):
        g = model.offspring.iterate_series(g, start, min(CHAIN_BLOCK, m - start), K)[-1]
    return model.immigration.apply_to_series(g, K)


def _circle_points(K: int):
    """(N, r, z): z the N // 2 + 1 points r e^{-2 pi i j / N}, the half
    circle a real inverse FFT of length N reads."""
    N = sp_fft.next_fast_len(CIRCLE_OVERSAMPLE * (K + 1), real=True)
    r = CIRCLE_DAMPING ** (1.0 / N)
    return N, r, r * np.exp(-2j * math.pi / N * np.arange(N // 2 + 1))


def _circle_coefficients(values: np.ndarray, N: int, r: float, K: int) -> np.ndarray:
    """Coefficients 0..K of a pgf from its values at _circle_points(K)."""
    return sp_fft.irfft(values, N)[: K + 1] * r ** -np.arange(K + 1.0)


def _circle_products(model: Model, z: np.ndarray, targets, products: bool = True):
    """Yield (n, H_n(z), f_n(z)) for n in the sorted targets, where
    H_n(z) = prod_{m<n} h(f_m(z)): each generation multiplies in h(z),
    then steps z <- f(z).  With products=False only z steps and H_n is
    None."""
    imm, off = model.immigration, model.offspring
    # the first generation goes through Law.pgf, which checks that the start
    # points lie in the closed disk; a pgf maps the disk into itself, so
    # later generations call _pgf and skip the check
    h, f = imm.pgf, off.pgf
    w = np.ones_like(z) if products else None
    done = 0
    for n in targets:
        for _ in range(n - done):
            if products:
                w = w * h(z)
            z = f(z)
            h, f = imm._pgf, off._pgf
        done = n
        yield n, w, z


def _circle_pmfs(model: Model, targets: list[int], K: int, initial: int) -> dict:
    """As _series_pmfs, from the pgf on a damped circle; coefficients
    0..CIRCLE_WINDOW from _series_pmfs at K = CIRCLE_WINDOW."""
    N, r, z = _circle_points(K)
    window = _series_pmfs(model, targets, CIRCLE_WINDOW, initial)
    out = {}
    for n, w, fz in _circle_products(model, z, targets):
        if initial > 0:
            w = w * fz**initial
        out[n] = _circle_coefficients(w, N, r, K)
        out[n][: CIRCLE_WINDOW + 1] = window[n]
    return out


def _circle_cohort(model: Model, m: int, K: int) -> np.ndarray:
    """As _series_cohort, from h(f_m(z)) on a damped circle; coefficients
    0..CIRCLE_WINDOW from _series_cohort at K = CIRCLE_WINDOW."""
    N, r, z = _circle_points(K)
    _, _, fz = next(_circle_products(model, z, [m], products=False))
    probs = _circle_coefficients(model.immigration.pgf(fz), N, r, K)
    probs[: CIRCLE_WINDOW + 1] = _series_cohort(model, m, CIRCLE_WINDOW)
    return probs


def _exact_laws(model: Model, ns, K: int, initial: int, deficit_ceiling: float,
                cohort: bool = False) -> dict[int, TruncatedPmf]:
    """Truncated laws at the generations ns, validated, routed and guarded:
    the laws of Y_n (exact_pmf_Y_multi) or, with cohort=True, of one
    cohort's line after m generations (exact_pmf_Z)."""
    targets = sorted(set(int(n) for n in ns))
    if targets:
        _check_generation(targets[0], "m" if cohort else "n")
    if initial < 0:
        raise ValueError("initial population must be >= 0")
    if K < 0:
        raise ValueError(f"truncation bound must be >= 0, got K={K}")
    if not targets:
        return {}
    path = "circle" if K > DIRECT_CONV_MAX and _closed_form(model) else "series"
    if cohort:
        engine = _circle_cohort if path == "circle" else _series_cohort
        laws = {m: engine(model, m, K) for m in targets}
    else:
        engine = _circle_pmfs if path == "circle" else _series_pmfs
        laws = engine(model, targets, K, initial)
    out = {}
    for m, probs in laws.items():
        pmf = TruncatedPmf(probs, path=path)
        if pmf.deficit > deficit_ceiling:
            where = (f"for cohort law at m={m}; increase K={K}" if cohort
                     else f"at n={m}; increase the truncation bound K={K}")
            raise DeficitError(
                f"deficit {pmf.deficit:.3e} exceeds ceiling {deficit_ceiling:.3e} {where}")
        out[m] = pmf
    return out


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
    factor f_n(s)**initial.  Two routes, recorded in ``path``:

    - "series" (K <= DIRECT_CONV_MAX, or a log-heavy law): one truncated
      series multiply per generation.  Coefficients are exact up to
      roundoff whenever the factor series are: bounded-support families,
      the geometric closed form, and Poisson immigration (composed by the
      exponential recurrence, with no pmf cut-off).  Log-heavy laws are
      cut at K and give lower bounds.  The chain is stored per model and
      order and continued by later calls: closed-form models run one
      chain at max(K, CIRCLE_WINDOW), so every window K <= CIRCLE_WINDOW
      at every horizon reached so far is a slice of it; log-heavy models
      keep one chain per K.  Results depend only on (model, n, K,
      initial), never on earlier calls.
    - "circle" (K > DIRECT_CONV_MAX, both pgfs closed forms): the product
      evaluated pointwise on a damped circle and inverted by one FFT per
      horizon; coefficients 0..CIRCLE_WINDOW come from the series route
      at K = CIRCLE_WINDOW and keep full relative accuracy, the rest are
      within about 1e-13 absolute of the true probabilities.
    """
    return _exact_laws(model, ns, K, initial, deficit_ceiling)


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
    generations: coefficients of h(f_m(s)).

    Routed as exact_pmf_Y_multi: above DIRECT_CONV_MAX, for closed-form
    pgfs, h(f_m(z)) on a damped circle with coefficients
    0..CIRCLE_WINDOW from the series composition at K = CIRCLE_WINDOW.
    """
    return _exact_laws(model, [m], K, 0, deficit_ceiling, cohort=True)[m]


def charfn_modulus(model: Model, n: int, t_grid) -> np.ndarray:
    """|H_n(exp(it))| on a grid of real t, via the complex iteration
    z <- f(z) with the immigration factor accumulated each generation."""
    _check_generation(n)
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    _, w, _ = next(_circle_products(model, np.exp(1j * t), [n]))
    return np.abs(w)
