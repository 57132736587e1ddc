"""Offspring and immigration laws on the nonnegative integers, and the
derived model constants for critical branching with immigration.

A Law carries its pmf, probability generating function (with closed forms
where the family has one), moment metadata, and sampling routines.  A Model
pairs a critical offspring law with a nondegenerate immigration law and
derives

    B     = sum k(k-1) p_k      (offspring factorial second moment),
    lam   = sum k q_k           (immigration mean),
    gamma = 2*lam / B           (limit shape parameter),

plus tri-state flags for the extra tail conditions
sum k^2 log k p_k < inf and sum k log k q_k < inf.

The two log-heavy families are constructed so that the base moments stay
finite while exactly one of those extra sums diverges:

    log-heavy-offspring(beta):   p_k = c / (k^3 (log k)^beta), k >= 2,
                                 p_1 = 1/2 exactly (so the mean is 1),
                                 p_0 absorbs the remainder;
                                 c normalised so sum_{k>=2} k p_k = 1/2.
    log-heavy-immigration(beta): q_k = c / (k^2 (log k)^beta), k >= 2,
                                 q_0 absorbs the remainder;
                                 c normalised so lam = sum k q_k = 1/2.

Both need beta > 1 for B resp. lam to be finite; the extra sum diverges
iff beta <= 2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_legendre

from .series import series_compose_poly, series_exp, series_recip, series_square, trim

CRITICALITY_TOL = 1e-10
EXPLICIT_MASS_TOL = 1e-12
PGF_DOMAIN_TOL = 1e-12

# Head length for direct summation of log-heavy pmfs; beyond this the
# tail is handled by quadrature (see _HeavyTailKernel).  A square, so the
# head sum splits into sqrt(head) baby steps and as many giant steps.
_HEAVY_HEAD = 4096
_HEAD_STEP = math.isqrt(_HEAVY_HEAD)
# Points per block of an array head sum: 128 KB of powers at a time.
_HEAD_ROWS = 128
# Direct-summation horizon for the one-off series constants, summed in
# blocks of _CONST_BLOCK terms.
_CONST_HEAD = 1 << 20
_CONST_BLOCK = 1 << 16
# Inverse-cdf table length for sampling unbounded laws.
_SAMPLE_TABLE = 1 << 16
# Largest beta of the log-heavy laws.  Their tail values go down to about
# 4096**-a (log 4096)**-beta, 7e-293 at beta = 300 for a = 3.  From beta ~ 317
# they are subnormal and lose their digits; from ~1940 the head terms
# overflow to nan.
HEAVY_BETA_MAX = 300.0

FINITE = "finite"
INFINITE = "infinite"
UNKNOWN = "unknown"


def _as_float_array(s):
    arr = np.asarray(s)
    return arr, arr.ndim == 0


def _is_array(u) -> bool:
    return isinstance(u, np.ndarray) and u.ndim > 0


class Law:
    """Base class: a probability law on {0, 1, 2, ...}."""

    kind: str
    mean: float
    factorial_second_moment: float  # math.inf marks a divergent sum
    support_bound: int | None = None  # largest atom, None if unbounded
    # pgf is a closed form evaluated elementwise on complex arrays, cheap
    # enough for the exact engine's circle path; such laws also keep their
    # series hooks exact at every order, so the engine shares one series
    # chain across orders (see gwimm.pgf._chain_order)
    vectorised_pgf: bool = True
    # sample_generations draws Z_m in one step from a closed form for the
    # m-generation law, so the simulator draws Y_m cohort by cohort instead
    # of stepping it generation by generation (see
    # gwimm.montecarlo.simulate_Y_batch)
    closed_form_generations: bool = False

    # -- identity ---------------------------------------------------------

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Law) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<Law {self.describe()}>"

    def describe(self) -> str:
        return self.kind

    # -- pgf --------------------------------------------------------------

    def pgf(self, s):
        """sum p_k s**k for |s| <= 1 (+ tolerance); scalar or ndarray."""
        arr, scalar = _as_float_array(s)
        if np.max(np.abs(arr)) > 1.0 + PGF_DOMAIN_TOL:
            raise ValueError("pgf argument outside the closed unit disk")
        out = self._pgf(arr)
        return out[()] if scalar else out

    def _pgf(self, s):
        raise NotImplementedError

    def one_minus_pgf(self, u):
        """1 - pgf(1 - u) for real u in [0, 1], computed without cancellation.

        ``u`` is a float or a float array; an array is mapped elementwise,
        and each element's value does not depend on the array's length.
        """
        raise NotImplementedError

    def one_minus_iterates(self, u: float, start: int, count: int) -> np.ndarray:
        """u_{start+1}..u_{start+count} of u_{j+1} = one_minus_pgf(u_j), the
        extinction iterates u_j = 1 - f_j(0) from u_0 = 1, given u =
        u_start.

        Default: one scalar one_minus_pgf per generation; a family with a
        closed form for 1 - f_j(0) overrides.
        """
        out = np.empty(count)
        for i in range(count):
            u = out[i] = self.one_minus_pgf(u)
        return out

    # -- pmf --------------------------------------------------------------

    @property
    def lattice_span(self) -> int:
        """gcd of the positive support; 1 means aperiodic local behavior."""
        return 1

    def pmf_array(self, K: int) -> np.ndarray:
        """Coefficients p_0..p_K."""
        raise NotImplementedError

    def tail_mass(self, K: int) -> float:
        """sum_{k > K} p_k."""
        return max(0.0, 1.0 - float(np.sum(self.pmf_array(K))))

    # -- series hooks (used by the exact distribution engine) --------------

    def apply_to_series(self, g: np.ndarray, K: int) -> np.ndarray:
        """Coefficients of pgf(g(s)) truncated at order K.

        ``g`` is one series or a stack of series, one per row; each row of
        the result has the bits of the call on that row alone.  This base
        maps a stack row by row through _apply_one.
        """
        g = np.asarray(g, dtype=float)
        if g.ndim == 1:
            return self._apply_one(g, K)
        out = np.empty((g.shape[0], K + 1))
        for i, row in enumerate(g):
            out[i] = self._apply_one(row, K)
        return out

    def _apply_one(self, g: np.ndarray, K: int) -> np.ndarray:
        """apply_to_series on one series.

        Default: Horner over the pmf, exact for bounded support; families
        with closed pgfs override.  An unbounded law is cut at p_K, and
        when g[0] > 0 the dropped powers g**m, m > K, have mass at every
        order: the cut under-counts every coefficient, coefficient 0
        included.  Results stay lower bounds, not exact ones.
        """
        cut = self.support_bound if self.support_bound is not None else K
        return series_compose_poly(self.pmf_array(cut), g, K)

    def iterate_series(self, g: np.ndarray, m: int, count: int, K: int) -> np.ndarray:
        """Series of the pgf iterates f_{m+1}..f_{m+count}, one per row of
        a (count, K+1) array, given g, the series of f_m.

        Default: apply_to_series row after row; a family with a closed
        form for its iterates overrides, with the same rows for every m.
        """
        out = np.empty((count, K + 1))
        for i in range(count):
            g = out[i] = self.apply_to_series(g, K)
        return out

    # -- sampling -----------------------------------------------------------

    def sample(self, size: int, rng) -> np.ndarray:
        """iid draws."""
        raise NotImplementedError

    def sample_sum(self, counts: np.ndarray, rng) -> np.ndarray:
        """Entrywise sums of `counts[i]` iid draws (one array per call)."""
        raise NotImplementedError

    def sample_generations(self, counts, gens, rng) -> np.ndarray:
        """Entrywise sums of `counts[i]` iid copies of Z_{gens[i]}, the
        population `gens[i]` offspring-only generations after one ancestor
        (`gens` an int or one per entry).

        Default: one generation loop over all entries.  Each generation is
        one sample_sum over the entries still running, in input order; an
        entry stops when it dies or finishes.  Entries with count 0 or 0
        generations draw nothing.  A family with a closed form for Z_m
        overrides and sets closed_form_generations.
        """
        vals = np.asarray(counts, dtype=np.int64)
        out = np.zeros_like(vals)
        idx = np.flatnonzero(vals > 0)
        rem = np.broadcast_to(np.asarray(gens, dtype=np.int64), vals.shape)[idx]
        vals = vals[idx]
        while True:
            done = rem == 0
            out[idx[done]] = vals[done]
            vals, idx, rem = vals[~done], idx[~done], rem[~done]
            if idx.shape[0] == 0:
                return out
            vals = self.sample_sum(vals, rng)
            rem -= 1
            alive = vals > 0
            vals, idx, rem = vals[alive], idx[alive], rem[alive]


class ExplicitLaw(Law):
    kind = "explicit"

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1:
            raise ValueError(f"key 'probs' must be a flat list of probabilities, "
                             f"got {probs.ndim} dimensions")
        if probs.size == 0:
            raise ValueError("explicit law needs a nonempty probability vector")
        if np.any(probs < 0):
            raise ValueError("negative probability in explicit law")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > EXPLICIT_MASS_TOL:
            raise ValueError(
                f"explicit probabilities sum to {total!r}, not 1 within {EXPLICIT_MASS_TOL}"
            )
        self.probs = probs
        ks = np.arange(probs.size, dtype=float)
        self.mean = float(np.dot(ks, probs))
        self.factorial_second_moment = float(np.dot(ks * (ks - 1.0), probs))
        self.support_bound = int(probs.size - 1)
        span = 0
        for k in range(1, probs.size):
            if probs[k] > 0.0:
                span = math.gcd(span, k)
        self._lattice_span = max(span, 1)

    @property
    def lattice_span(self):
        return self._lattice_span

    def _key(self):
        return ("explicit", tuple(self.probs.tolist()))

    def describe(self):
        return f"explicit[{self.probs.size}]"

    def _pgf(self, s):
        out = np.zeros_like(s, dtype=np.result_type(s, float))
        for p in self.probs[::-1]:
            out = out * s + p
        return out

    def one_minus_pgf(self, u):
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        ks = np.arange(1, self.probs.size, dtype=float)
        with np.errstate(divide="ignore"):  # u = 1 gives -inf, replaced below
            logs = np.log1p(-np.clip(arr, 0.0, 1.0))
        # one row of p_k (1 - (1 - u)**k), k >= 1, per point
        terms = self.probs[1:] * -np.expm1(np.multiply.outer(logs, ks))
        out = np.where(arr >= 1.0, 1.0 - self.probs[0],
                       np.where(arr <= 0.0, 0.0, np.sum(terms, axis=-1)))
        return out if _is_array(u) else float(out[0])

    def pmf_array(self, K):
        return trim(self.probs, K)

    def sample(self, size, rng):
        return rng.choice(self.probs.size, size=size, p=self.probs)

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts, dtype=np.int64)
        total = np.zeros_like(counts)
        remaining = counts.copy()
        rest = 1.0
        # sequential binomial splitting == one multinomial per entry
        for k, p in enumerate(self.probs):
            if rest <= 0:
                break
            frac = min(1.0, p / rest)
            draws = rng.binomial(remaining, frac)
            total += k * draws
            remaining -= draws
            rest -= p
        return total


class GeometricCriticalLaw(Law):
    """p_k = 2**-(k+1); pgf 1/(2-s); the linear-fractional critical law."""

    kind = "geometric-critical"
    closed_form_generations = True

    def __init__(self):
        self.mean = 1.0
        self.factorial_second_moment = 2.0

    def _key(self):
        return ("geometric-critical",)

    def _pgf(self, s):
        return 1.0 / (2.0 - s)

    def one_minus_pgf(self, u):
        return u / (1.0 + u)

    def one_minus_iterates(self, u, start, count):
        # f_j(0) = j/(j+1), so u_j = 1/(j+1), correctly rounded at every j
        return 1.0 / np.arange(start + 2, start + count + 2)

    def pmf_array(self, K):
        return 0.5 ** (np.arange(K + 1, dtype=float) + 1.0)

    def _apply_one(self, g, K):
        denom = -trim(g, K)
        denom[0] += 2.0
        return series_recip(denom, K)

    def iterate_series(self, g, m, count, K):
        # the i-th iterate is (i - (i-1)s)/((i+1) - i s); coefficients
        # j=0: i/(i+1), j>=1: i**(j-1)/(i+1)**(j+1).  math.log per i, as
        # one row at a time would take it, keeps the bits of that row.
        its = range(m + 1, m + count + 1)
        out = np.empty((count, K + 1))
        out[:, 0] = [i / (i + 1.0) for i in its]
        if K >= 1:
            j = np.arange(1, K + 1, dtype=float)
            log_i = np.array([[math.log(i)] for i in its])
            log_i1 = np.array([[math.log(i + 1.0)] for i in its])
            out[:, 1:] = np.exp((j - 1.0) * log_i - (j + 1.0) * log_i1)
        return out

    def sample(self, size, rng):
        return rng.geometric(0.5, size=size) - 1

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts, dtype=np.int64)
        out = np.zeros_like(counts)
        pos = counts > 0
        if np.any(pos):
            out[pos] = rng.negative_binomial(counts[pos], 0.5)
        return out

    def sample_generations(self, counts, gens, rng):
        # f_m(s) = m/(m+1) + (1/(m+1)) s/(m+1 - m s): one ancestor leaves
        # no one with probability m/(m+1), else a Geometric(1/(m+1)) count
        # on 1, 2, ...  So c ancestors leave B ~ Bin(c, 1/(m+1)) surviving
        # lines and B + NegBin(B, 1/(m+1)) descendants.
        counts = np.asarray(counts, dtype=np.int64)
        gens = np.broadcast_to(np.asarray(gens, dtype=np.int64), counts.shape)
        out = counts.copy()
        run = np.flatnonzero((counts > 0) & (gens > 0))
        if run.shape[0]:
            p = 1.0 / (gens[run] + 1.0)
            alive = rng.binomial(counts[run], p)
            out[run] = alive
            pos = alive > 0
            if np.any(pos):
                out[run[pos]] += rng.negative_binomial(alive[pos], p[pos])
        return out


class BinaryLaw(Law):
    """p_0 = p_2 = 1/2; pgf (1 + s**2)/2."""

    kind = "binary"

    def __init__(self):
        self.mean = 1.0
        self.factorial_second_moment = 1.0
        self.support_bound = 2

    @property
    def lattice_span(self):
        return 2

    def _key(self):
        return ("binary",)

    def _pgf(self, s):
        # 0.5 * x has the bits of x / 2.0, without a complex division
        return 0.5 + 0.5 * (s * s)

    def one_minus_pgf(self, u):
        return u * (2.0 - u) / 2.0

    def pmf_array(self, K):
        out = np.zeros(K + 1)
        out[0] = 0.5
        if K >= 2:
            out[2] = 0.5
        return out

    def _apply_one(self, g, K):
        out = 0.5 * series_square(g, K)
        out[0] += 0.5
        return out

    def sample(self, size, rng):
        return 2 * rng.integers(0, 2, size=size)

    def sample_sum(self, counts, rng):
        return 2 * rng.binomial(np.asarray(counts, dtype=np.int64), 0.5)


class PoissonLaw(Law):
    kind = "poisson"

    def __init__(self, mean: float):
        if not (mean > 0 and math.isfinite(mean)):
            raise ValueError("poisson mean must be positive and finite")
        self.rate = float(mean)
        self.mean = self.rate
        self.factorial_second_moment = self.rate**2

    def _key(self):
        return ("poisson", self.rate)

    def describe(self):
        return f"poisson({self.rate})"

    def _pgf(self, s):
        return np.exp(self.rate * (s - 1.0))

    def one_minus_pgf(self, u):
        # np.expm1 for floats and arrays alike, so both give the same bits
        out = -np.expm1(-self.rate * u)
        return out if _is_array(u) else float(out)

    def pmf_array(self, K):
        k = np.arange(K + 1, dtype=float)
        return np.exp(k * math.log(self.rate) - gammaln(k + 1.0) - self.rate)

    def _apply_one(self, g, K):
        # exp(rate (g - 1)), with no pmf cut-off; g[1:] >= 0 for a pgf
        g = trim(g, K)
        a = self.rate * g
        a[0] = -self.rate * (1.0 - g[0])
        return series_exp(a, K)

    def sample(self, size, rng):
        return rng.poisson(self.rate, size=size)

    def sample_sum(self, counts, rng):
        return rng.poisson(self.rate * np.asarray(counts, dtype=np.float64))


class Bernoulli01Law(Law):
    """Mass q1 at 1 and 1-q1 at 0."""

    kind = "bernoulli01"

    def __init__(self, q1: float):
        if not (0.0 <= q1 <= 1.0):
            raise ValueError("bernoulli01 q1 must lie in [0, 1]")
        self.q1 = float(q1)
        self.mean = self.q1
        self.factorial_second_moment = 0.0
        self.support_bound = 1

    def _key(self):
        return ("bernoulli01", self.q1)

    def describe(self):
        return f"bernoulli01({self.q1})"

    def _pgf(self, s):
        return (1.0 - self.q1) + self.q1 * s

    def one_minus_pgf(self, u):
        return self.q1 * u

    def pmf_array(self, K):
        out = np.zeros(K + 1)
        out[0] = 1.0 - self.q1
        if K >= 1:
            out[1] = self.q1
        return out

    def apply_to_series(self, g, K):
        # elementwise, so a stack of series maps in one expression
        out = self.q1 * trim(g, K)
        out[..., 0] += 1.0 - self.q1
        return out

    def sample(self, size, rng):
        return rng.binomial(1, self.q1, size=size)

    def sample_sum(self, counts, rng):
        return rng.binomial(np.asarray(counts, dtype=np.int64), self.q1)


# ---------------------------------------------------------------------------
# log-heavy tails


def _heavy_term(x, a, beta):
    return x ** (-a) * np.log(x) ** (-beta)


def _heavy_tail_integral(A: float, a: int, beta: float) -> float:
    """integral_A^inf x**-a (log x)**-beta dx.

    a = 1 has the closed form (log A)**(1-beta)/(beta-1); otherwise the
    substitution w = log x turns the slowly decaying integrand into
    exp(-(a-1) w) w**-beta, which quadrature handles comfortably.
    """
    la = math.log(A)
    if a == 1:
        return la ** (1.0 - beta) / (beta - 1.0)
    from scipy import integrate

    val, _ = integrate.quad(
        lambda w: math.exp(-(a - 1.0) * w) * w ** (-beta),
        la,
        np.inf,
        epsabs=0.0,
        epsrel=1e-12,
        limit=300,
    )
    return val


def _heavy_head_sum(a: int, beta: float) -> float:
    """sum_{2 <= k <= _CONST_HEAD} k**-a (log k)**-beta, within an ulp, in
    blocks of _CONST_BLOCK terms.

    Every term splits exactly into a multiple of q = 2**-37 times a power
    of two above the largest term (k = 2), plus a remainder below q/2
    (error-free extraction; Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008).  A block's multiples sum without rounding in any order, its
    remainders with an error far below the result's ulp, and math.fsum
    adds the parts of all blocks.
    """
    q = 2.0 ** (math.frexp(_heavy_term(2.0, a, beta))[1] - 37)
    parts = []
    for lo in range(0, _CONST_HEAD, _CONST_BLOCK):
        terms = _heavy_term(np.arange(max(lo + 1, 2), lo + _CONST_BLOCK + 1, dtype=float), a, beta)
        hi = np.round(terms / q) * q
        parts += [float(np.sum(hi)), float(np.sum(terms - hi))]
    return math.fsum(parts)


@lru_cache(maxsize=None)
def _heavy_series_sum(a: int, beta: float) -> float:
    """sum_{k >= 2} k**-a (log k)**-beta, head summation plus midpoint
    Euler-Maclaurin tail (the first correction term is included; the next
    one is O(K**-(a+3)) and far below double precision here)."""
    head = _heavy_head_sum(a, beta)
    A = _CONST_HEAD + 0.5
    tail = _heavy_tail_integral(A, a, beta)
    la = math.log(A)
    deriv = -(A ** (-a - 1)) * la ** (-beta) * (a + beta / la)
    return head + tail + deriv / 24.0


@lru_cache(maxsize=None)
def _heavy_tail_cumulative(a: int, beta: float) -> np.ndarray:
    """R[k] = sum_{i > k} i**-a (log i)**-beta for k = 0.._SAMPLE_TABLE."""
    total = _heavy_series_sum(a, beta)
    k = np.arange(2, _SAMPLE_TABLE + 1, dtype=float)
    terms = _heavy_term(k, a, beta)
    out = np.empty(_SAMPLE_TABLE + 1)
    out[0] = out[1] = total
    out[2:] = total - np.cumsum(terms)
    return out


# Tail-table quadrature: Gauss-Legendre with _GL_POINTS points on every
# panel; the finite piece has _LOW_PANELS equal panels (each under 1.5 units
# of log x), each semi-infinite piece _INF_PANELS panels of doubling width.
# _TABLE_ROWS nodes are evaluated at a time (under 0.2 MB per array).
_GL_POINTS = 10
_LOW_PANELS = 12
_INF_PANELS = 10
_TABLE_ROWS = 128


@lru_cache(maxsize=None)
def _gauss_legendre():
    """The _GL_POINTS-point Gauss-Legendre rule on [0, 1]."""
    x, w = roots_legendre(_GL_POINTS)
    return (x + 1.0) / 2.0, w / 2.0


def _gauss_panels(edges: np.ndarray):
    """Points and weights of Gauss-Legendre on each panel between
    consecutive edges, flattened panel by panel."""
    x, w = _gauss_legendre()
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * x).ravel(), (width * w).ravel()


def _heavy_tail_table(a: int, beta: float, theta: np.ndarray) -> np.ndarray:
    """log of sum_{k > head} k**-a (log k)**-beta (1 - e**-(k t)) at every
    t = exp(theta), theta a 1-D array.

    The sum is the integral over x > A = head + 1/2 plus the midpoint
    Euler-Maclaurin correction.  With z = log x >= L = log A, zc =
    max(L, log(2/t)) and y = t e**z, the integral is low + pure - expo:

        low  = int_L^zc  -expm1(-y) e**(-(a-1) z) z**-beta dz,
        pure = int_zc^oo e**(-(a-1) z) z**-beta dz,
        expo = int_zc^oo e**-y e**(-(a-1) z) z**-beta dz   (taken in y),

    every integrand positive and expo below e**-2 pure.  Each piece is one
    fixed panel rule, the same for every node, evaluated on a 2-D array of
    nodes by points in units of e**ref, the low and pure integrands' bound
    at z = L.  The rule follows the decay rate r = (a-1) + beta/z: low's
    first panel is halved until r * width <= 4, and the doubling panels of
    pure and expo start at width 2/r of the piece's start, so they run on
    until the integrand has dropped by e**-99 or more for every beta.
    """
    A = _HEAVY_HEAD + 0.5
    L = math.log(A)
    ref = -(a - 1.0) * L - beta * math.log(L)
    # low: equal panels of [L, zc], the first split by halving
    D = np.maximum(math.log(2.0 / A) - theta, 0.0)
    width = float(np.max(D)) / _LOW_PANELS
    halvings = math.ceil(math.log2(max(((a - 1.0) + beta / L) * width / 4.0, 1.0)))
    fracs = np.concatenate(([0.0], 0.5 ** np.arange(halvings, 0, -1),
                            np.arange(1.0, _LOW_PANELS + 1.0))) / _LOW_PANELS
    low_x, low_w = _gauss_panels(fracs)
    # pure and expo: doubling panels from the piece's start
    inf_x, inf_w = _gauss_panels(2.0 ** np.arange(_INF_PANELS + 1) - 1.0)
    out = np.empty(theta.shape)
    for rows in range(0, theta.size, _TABLE_ROWS):
        lt = theta[rows : rows + _TABLE_ROWS, None]
        d = D[rows : rows + _TABLE_ROWS, None]
        z = L + d * low_x
        f = np.log(-np.expm1(-np.exp(z + lt))) - (a - 1.0) * z - beta * np.log(z)
        low = d[:, 0] * (np.exp(f - ref) @ low_w)
        zc = L + d
        h = 2.0 / ((a - 1.0) + beta / zc)
        z = zc + h * inf_x
        pure = h[:, 0] * (np.exp(-(a - 1.0) * z - beta * np.log(z) - ref) @ inf_w)
        yc = np.exp(zc + lt)
        h = 2.0 / (1.0 + a / yc + beta / (yc * zc))
        y = yc + h * inf_x
        f = -y - a * np.log(y) - beta * np.log(np.log(y) - lt) + (a - 1.0) * lt
        expo = h[:, 0] * (np.exp(f - ref) @ inf_w)
        # Euler-Maclaurin: psi'(A)/24 for psi(x) = (1 - e**-(x t)) x**-a
        # (log x)**-beta, with A**-a L**-beta = e**ref / A
        t = np.exp(lt[:, 0])
        psi = t * np.exp(-A * t) + np.expm1(-A * t) * (a + beta / L) / A
        out[rows : rows + _TABLE_ROWS] = ref + np.log(low + pure - expo + psi / (24.0 * A))
    return out


class _HeavyTailKernel:
    """Shared numerics for laws with pmf c * k**-a (log k)**-beta, k >= 2.

    Evaluates u |-> sum_{k >= 2} k**-a (log k)**-beta (1 - (1-u)**k) as a
    head k <= _HEAVY_HEAD, summed exactly by baby-step giant-step (see
    one_minus_head), plus the tail beyond it, a cubic spline in log-log
    coordinates through a table built once by fixed-order quadrature (see
    _build_spline and one_minus_tail).  Scalar and array arguments go
    through the same operations, so a point's value has the same bits
    alone and inside any array.
    """

    T_LO = 1e-11
    T_HI = 4.0

    def __init__(self, a: int, beta: float):
        # Only function-level scipy imports: these log-heavy ones, oracles.py's quad.
        # Loaded at construction, as is the tail table's quadrature rule, so
        # no timed spline build pays the import or the rule's eigensolver.
        import scipy.integrate  # noqa: F401
        import scipy.interpolate  # noqa: F401

        _gauss_legendre()

        self.a = a
        self.beta = beta
        head_terms = _heavy_term(np.arange(2, _HEAVY_HEAD + 1, dtype=float), a, beta)
        self.head_mass = float(np.sum(head_terms))
        self.total_mass = _heavy_series_sum(a, beta)
        self.tail_mass_const = self.total_mass - self.head_mass
        # T_i = sum_{i < k <= head} of the head terms, i = 0..head-1 (T_0 =
        # T_1), as a matrix with T_{64 g + b} in row g, column b
        rest = np.cumsum(head_terms[::-1])[::-1]
        self._head_matrix = np.concatenate((rest[:1], rest)).reshape(_HEAD_STEP, _HEAD_STEP)
        # exponents of s = e**-t: baby steps 0..63, then giant steps 64 g
        steps = np.arange(_HEAD_STEP, dtype=float)
        self._powers = -np.concatenate((steps, _HEAD_STEP * steps))
        self._spline = None

    def _build_spline(self):
        """Cubic spline of log tail(t) in log t through 929 nodes from T_LO
        to T_HI, their values from one vectorised quadrature over all nodes
        (_heavy_tail_table)."""
        from scipy.interpolate import CubicSpline

        n_nodes = int(math.log(self.T_HI / self.T_LO) / math.log(10.0) * 80) + 1
        theta = np.linspace(math.log(self.T_LO), math.log(self.T_HI), n_nodes)
        self._spline = CubicSpline(theta, _heavy_tail_table(self.a, self.beta, theta))
        self._knots = theta
        self._knot_list = theta.tolist()
        self._pieces = np.ascontiguousarray(self._spline.c.T)  # one row per piece
        self._piece_list = self._pieces.tolist()
        # tail value at T_LO, the slope of the linear regime below it
        self._base = float(np.exp(self._log_tail(self._knot_list[0])))

    def _log_tail(self, x: float) -> float:
        """The spline at one point x = log t in [log T_LO, log T_HI]: the
        piece found by bisection, then its cubic c0 + c1 d + c2 d**2 +
        c3 d**3 summed in the order of CubicSpline.__call__ (and of
        _log_tail_array)."""
        i = min(max(bisect_right(self._knot_list, x) - 1, 0), len(self._knot_list) - 2)
        c3, c2, c1, c0 = self._piece_list[i]
        d = x - self._knot_list[i]
        z = d * d
        return c0 + c1 * d + c2 * z + c3 * (z * d)

    def _log_tail_array(self, x: np.ndarray) -> np.ndarray:
        """_log_tail elementwise, with the same operations per point."""
        i = np.clip(np.searchsorted(self._knots, x, side="right") - 1, 0, self._knots.size - 2)
        c = self._pieces[i]
        d = x - self._knots[i]
        z = d * d
        return c[:, 3] + c[:, 2] * d + c[:, 1] * z + c[:, 0] * (z * d)

    def one_minus_tail(self, t):
        """sum_{k > head} c-free tail of sum p_k (1 - e**-(k t)) at t = -log s,
        t a float or an array (elementwise)."""
        if _is_array(t):
            out = np.full(t.shape, self.tail_mass_const)
            below = t < self.T_HI
            if not np.any(below):
                return out
            if self._spline is None:
                self._build_spline()
            low = t < self.T_LO
            out[low] = self._base * t[low] / self.T_LO
            mid = below & ~low
            out[mid] = np.exp(self._log_tail_array(np.log(t[mid])))
            return out
        if t >= self.T_HI:
            return self.tail_mass_const
        if self._spline is None:
            self._build_spline()
        if t < self.T_LO:
            # linear regime: the tail behaves like t * integral x p(x)
            return self._base * t / self.T_LO
        return float(np.exp(self._log_tail(float(np.log(t)))))

    def one_minus_head(self, u, t):
        """sum_{2 <= k <= head} c-free p_k (1 - (1-u)**k) at t = -log(1-u),
        u and t floats or 1-D arrays (elementwise).

        With s = 1 - u = e**-t, 1 - s**k = u (1 + s + ... + s**(k-1)), so the
        sum is u * sum_{i < head} T_i s**i with the nonnegative tail sums T_i.
        Baby-step giant-step (Paterson and Stockmeyer, SIAM J. Comput. 2,
        1973) with i = 64 g + b: u * sum_g s**(64 g) (sum_b T_{64g+b} s**b),
        one 64 x 64 matrix-vector product and one dot product per point, the
        128 powers from exp.  Every term is nonnegative, so the sum keeps its
        relative accuracy.  For an array, numpy's stacked matmul makes per
        point the two BLAS calls of the scalar form (a gemv, then a dot),
        so each point gets the bits of the scalar call.
        """
        if _is_array(t):
            out = np.empty(t.shape)
            for lo in range(0, t.size, _HEAD_ROWS):
                e = np.exp(np.multiply.outer(t[lo : lo + _HEAD_ROWS], self._powers))
                inner = self._head_matrix @ e[:, :_HEAD_STEP, None]
                out[lo : lo + _HEAD_ROWS] = (e[:, None, _HEAD_STEP:] @ inner)[:, 0, 0]
            return u * out
        e = np.exp(t * self._powers)
        return u * float(np.dot(e[_HEAD_STEP:], np.dot(self._head_matrix, e[:_HEAD_STEP])))

    def tail_mass_beyond(self, k: int) -> float:
        """sum_{i > k} i**-a (log i)**-beta (c-free)."""
        table = _heavy_tail_cumulative(self.a, self.beta)
        if k < table.size:
            return float(table[k])
        A = k + 0.5
        val = _heavy_tail_integral(A, self.a, self.beta)
        la = math.log(A)
        deriv = -(A ** (-self.a - 1)) * la ** (-self.beta) * (self.a + self.beta / la)
        return val + deriv / 24.0


class _HeavyLawBase(Law):
    """Common plumbing for the two log-heavy families."""

    _COMPLEX_HEAD = 1 << 17
    vectorised_pgf = False  # complex points cost a 2**17-term dot product each

    def __init__(self, beta: float, a: int):
        if not (beta > 1.0):
            raise ValueError(
                f"{self.kind} requires beta > 1 (got {beta}); the base moment diverges otherwise"
            )
        if beta > HEAVY_BETA_MAX:
            raise ValueError(
                f"{self.kind} requires beta <= {HEAVY_BETA_MAX:g} (got {beta}); "
                "its tail table underflows beyond that"
            )
        self.beta = float(beta)
        self.kernel = _HeavyTailKernel(a, self.beta)
        self.c: float = 0.0  # set by subclass
        self.atom0: float = 0.0
        self.atom1: float = 0.0

    def _key(self):
        return (self.kind, self.beta)

    def describe(self):
        return f"{self.kind}({self.beta})"

    def pmf_array(self, K):
        out = np.zeros(K + 1)
        out[0] = self.atom0
        if K >= 1:
            out[1] = self.atom1
        if K >= 2:
            ks = np.arange(2, K + 1, dtype=float)
            out[2:] = self.c * _heavy_term(ks, self.kernel.a, self.beta)
        return out

    def tail_mass(self, K):
        if K < 1:
            return 1.0 - (self.atom0 if K == 0 else 0.0)
        return self.c * self.kernel.tail_mass_beyond(max(K, 1))

    def one_minus_pgf(self, u):
        if _is_array(u):
            return self._one_minus_pgf_array(u)
        if u <= 0.0:
            return 0.0
        head = self.atom1 * u
        if u >= 1.0:
            return head + self.c * self.kernel.total_mass
        # np.log1p, not math.log1p: the two differ in the last bit at some
        # points, and the array form uses numpy's
        t = float(-np.log1p(-u))
        return head + self.c * (self.kernel.one_minus_head(u, t) + self.kernel.one_minus_tail(t))

    def _one_minus_pgf_array(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        inner = (u > 0.0) & (u < 1.0)
        ui = u[inner]
        t = -np.log1p(-ui)
        out[inner] = self.atom1 * ui + self.c * (
            self.kernel.one_minus_head(ui, t) + self.kernel.one_minus_tail(t)
        )
        full = u >= 1.0
        out[full] = self.atom1 * u[full] + self.c * self.kernel.total_mass
        return out

    def _pgf(self, s):
        flat = np.ravel(np.asarray(s))
        out = np.empty(flat.shape, dtype=complex)
        real_path = (flat.imag == 0.0) & (flat.real >= 0.0) if np.iscomplexobj(flat) \
            else (flat >= 0.0)
        out[real_path] = 1.0 - self.one_minus_pgf(1.0 - np.real(flat[real_path]))
        rest = np.nonzero(~real_path)[0]
        if rest.size:
            # direct head sum; the neglected tail has modulus below
            # c * tail_mass(2**17) ~ 1e-10, fine for modulus diagnostics
            coeffs = self.pmf_array(self._COMPLEX_HEAD)
            ks = np.arange(self._COMPLEX_HEAD + 1)
            for i in rest:
                z = complex(flat[i])
                out[i] = np.dot(coeffs, z**ks)
        if not np.iscomplexobj(np.asarray(s)) and np.all(real_path):
            out = out.real
        return out.reshape(np.shape(s))

    def _cdf_table(self):
        if not hasattr(self, "_cdf"):
            self._cdf = np.cumsum(self.pmf_array(_SAMPLE_TABLE))
        return self._cdf

    def sample(self, size, rng):
        cdf = self._cdf_table()
        u = rng.random(size)
        out = np.searchsorted(cdf, u, side="right")
        over = np.nonzero(out > _SAMPLE_TABLE)[0]
        for idx in over:
            out[idx] = self._sample_tail_walk(u[idx])
        return out.astype(np.int64)

    def _sample_tail_walk(self, u):
        # walk the analytic pmf beyond the table in blocks
        k0 = _SAMPLE_TABLE + 1
        acc = float(self._cdf_table()[-1])
        block = 4096
        while True:
            ks = np.arange(k0, k0 + block, dtype=float)
            probs = self.c * _heavy_term(ks, self.kernel.a, self.beta)
            cum = acc + np.cumsum(probs)
            hit = np.nonzero(cum >= u)[0]
            if hit.size:
                return int(k0 + hit[0])
            acc = float(cum[-1])
            k0 += block
            block *= 2
            if 1.0 - acc < 1e-15:  # u in the last sliver of roundoff
                return int(k0)

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.zeros_like(counts)
        # entry i sums the draws between its two count edges; an entry with
        # count 0 has equal edges and sums to 0
        csum = np.concatenate(([0], np.cumsum(self.sample(total, rng))))
        edges = np.cumsum(counts)
        return csum[edges] - csum[edges - counts]


class LogHeavyOffspringLaw(_HeavyLawBase):
    kind = "log-heavy-offspring"

    def __init__(self, beta: float):
        super().__init__(beta, a=3)
        s_mean = _heavy_series_sum(2, self.beta)  # sum k * k^-3 log^-beta
        s_mass = _heavy_series_sum(3, self.beta)
        t1 = _heavy_series_sum(1, self.beta)  # sum k(k-1) p_k / c + s_mean
        self.c = 0.5 / s_mean
        self.atom1 = 0.5
        self.atom0 = 0.5 - self.c * s_mass
        self.mean = 1.0
        self.factorial_second_moment = self.c * (t1 - s_mean)


class LogHeavyImmigrationLaw(_HeavyLawBase):
    kind = "log-heavy-immigration"

    def __init__(self, beta: float):
        super().__init__(beta, a=2)
        t1 = _heavy_series_sum(1, self.beta)  # sum k q_k / c
        s_mass = _heavy_series_sum(2, self.beta)
        self.c = 0.5 / t1
        self.atom1 = 0.0
        self.atom0 = 1.0 - self.c * s_mass
        self.mean = 0.5
        # sum k(k-1) q_k has terms ~ c/(log k)^beta: divergent for every beta
        self.factorial_second_moment = math.inf


# ---------------------------------------------------------------------------
# model assembly

_FAMILIES = {
    "explicit": ExplicitLaw,
    "geometric-critical": GeometricCriticalLaw,
    "binary": BinaryLaw,
    "poisson": PoissonLaw,
    "bernoulli01": Bernoulli01Law,
    "log-heavy-offspring": LogHeavyOffspringLaw,
    "log-heavy-immigration": LogHeavyImmigrationLaw,
}


def make_law(spec) -> Law:
    """Build a Law from a declarative descriptor.

    ``spec`` is a mapping with key ``family`` plus either ``probs`` (for
    family "explicit") or ``params``; parameters may also sit at the top
    level.  A plain family-name string works for parameter-free families.
    """
    if isinstance(spec, Law):
        return spec
    if isinstance(spec, str):
        spec = {"family": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"law spec must be a mapping or family name, got {type(spec).__name__}")
    if "family" not in spec:
        raise ValueError("law spec missing key 'family'")
    family = spec["family"]
    if not isinstance(family, str):
        raise ValueError(f"key 'family' must be a string, got {type(family).__name__}")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family '{family}' in key 'family'")
    params = spec.get("params")
    if not isinstance(params, (dict, type(None))):
        raise ValueError(f"key 'params' must be a mapping, got {type(params).__name__}")
    params = dict(params or {})
    for key, value in spec.items():
        if key not in ("family", "params"):
            params.setdefault(key, value)
    if family == "explicit":
        if "probs" not in params:
            raise ValueError("explicit law spec missing key 'probs'")
        return ExplicitLaw(params["probs"])
    try:
        return _FAMILIES[family](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family '{family}': {exc}") from None


def classify_xlogx(law: Law, role: str) -> str:
    """Tri-state for the extra tail sum in the given role.

    offspring role tests sum k^2 log k p_k; immigration role tests
    sum k log k q_k.  Decided analytically per family; bounded-support
    laws are always finite.
    """
    if role not in ("offspring", "immigration"):
        raise ValueError(f"role must be offspring or immigration, got {role!r}")
    if isinstance(law, LogHeavyOffspringLaw):
        if role == "offspring":
            return INFINITE if law.beta <= 2.0 else FINITE
        return FINITE  # sum k log k p_k ~ sum (log k)^(1-beta) / k^2 converges
    if isinstance(law, LogHeavyImmigrationLaw):
        if role == "immigration":
            return INFINITE if law.beta <= 2.0 else FINITE
        return INFINITE  # sum k^2 log k q_k ~ sum (log k)^(1-beta) diverges
    return FINITE


@dataclass(frozen=True)
class Model:
    """Critical offspring law + immigration law with derived constants."""

    offspring: Law
    immigration: Law
    B: float
    lam: float
    gamma: float
    xlogx_offspring_finite: str
    xlogx_immigration_finite: str

    def describe(self) -> str:
        return f"{self.offspring.describe()}+{self.immigration.describe()}"


def make_model(offspring, immigration) -> Model:
    """Validate criticality and moment assumptions, derive B, lam, gamma."""
    offspring = make_law(offspring)
    immigration = make_law(immigration)
    if abs(offspring.mean - 1.0) > CRITICALITY_TOL:
        raise ValueError(
            f"offspring law is not critical: mean {offspring.mean!r} differs from 1 "
            f"beyond {CRITICALITY_TOL}"
        )
    B = offspring.factorial_second_moment
    if not (0.0 < B < math.inf):
        raise ValueError(f"offspring factorial second moment B={B!r} outside (0, inf)")
    lam = immigration.mean
    if lam == 0.0:
        raise ValueError("degenerate immigration: lam = 0 (plain branching excluded)")
    if not (0.0 < lam < math.inf):
        raise ValueError(f"immigration mean lam={lam!r} outside (0, inf)")
    return Model(
        offspring=offspring,
        immigration=immigration,
        B=B,
        lam=lam,
        gamma=2.0 * lam / B,
        xlogx_offspring_finite=classify_xlogx(offspring, "offspring"),
        xlogx_immigration_finite=classify_xlogx(immigration, "immigration"),
    )
