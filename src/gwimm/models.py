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
from scipy.special import gammaln

from .series import series_compose_poly, series_exp, series_recip, series_square, trim

CRITICALITY_TOL = 1e-10
EXPLICIT_MASS_TOL = 1e-12
PGF_DOMAIN_TOL = 1e-12

# Head length for direct summation of log-heavy pmfs; beyond this the
# tail is handled by quadrature (see _HeavyTail).
_HEAVY_HEAD = 4096
# Direct-summation horizon for the one-off series constants.
_CONST_HEAD = 1 << 20
# Inverse-cdf table length for sampling unbounded laws.
_SAMPLE_TABLE = 1 << 16

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

        Default: Horner over the pmf, exact for bounded support; families
        with closed pgfs override.  An unbounded law is cut at p_K, and
        when g[0] > 0 the dropped powers g**m, m > K, have mass at every
        order: the cut under-counts every coefficient, coefficient 0
        included.  Results stay lower bounds, not exact ones.
        """
        cut = self.support_bound if self.support_bound is not None else K
        return series_compose_poly(self.pmf_array(cut), g, K)

    def iterate_series(self, m: int, K: int) -> np.ndarray | None:
        """Closed-form series of the m-th pgf iterate, when available."""
        return None

    # -- sampling -----------------------------------------------------------

    def sample(self, size: int, rng) -> np.ndarray:
        """iid draws."""
        raise NotImplementedError

    def sample_sum(self, counts: np.ndarray, rng) -> np.ndarray:
        """Entrywise sums of `counts[i]` iid draws (one array per call)."""
        raise NotImplementedError


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

    def __init__(self):
        self.mean = 1.0
        self.factorial_second_moment = 2.0

    def _key(self):
        return ("geometric-critical",)

    def _pgf(self, s):
        return 1.0 / (2.0 - s)

    def one_minus_pgf(self, u):
        return u / (1.0 + u)

    def pmf_array(self, K):
        return 0.5 ** (np.arange(K + 1, dtype=float) + 1.0)

    def apply_to_series(self, g, K):
        denom = -trim(g, K)
        denom[0] += 2.0
        return series_recip(denom, K)

    def iterate_series(self, m, K):
        # m-th iterate is (m - (m-1)s)/((m+1) - m s); coefficients
        # j=0: m/(m+1), j>=1: m**(j-1)/(m+1)**(j+1).
        out = np.zeros(K + 1)
        out[0] = m / (m + 1.0)
        if K >= 1:
            j = np.arange(1, K + 1, dtype=float)
            if m == 0:
                out[1] = 1.0
            else:
                out[1:] = np.exp((j - 1.0) * math.log(m) - (j + 1.0) * math.log(m + 1.0))
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
        return (1.0 + s * s) / 2.0

    def one_minus_pgf(self, u):
        return u * (2.0 - u) / 2.0

    def pmf_array(self, K):
        out = np.zeros(K + 1)
        out[0] = 0.5
        if K >= 2:
            out[2] = 0.5
        return out

    def apply_to_series(self, g, K):
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

    def apply_to_series(self, g, K):
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
        out = self.q1 * trim(g, K)
        out[0] += 1.0 - self.q1
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


@lru_cache(maxsize=None)
def _heavy_series_sum(a: int, beta: float) -> float:
    """sum_{k >= 2} k**-a (log k)**-beta, head summation plus midpoint
    Euler-Maclaurin tail (the first correction term is included; the next
    one is O(K**-(a+3)) and far below double precision here)."""
    k = np.arange(2, _CONST_HEAD + 1, dtype=float)
    head = float(np.sum(_heavy_term(k, a, beta)))
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


class _HeavyTailKernel:
    """Shared numerics for laws with pmf c * k**-a (log k)**-beta, k >= 2.

    Evaluates t |-> sum_{k > head} k**-a (log k)**-beta (1 - e**-(k t))
    through a one-off quadrature table splined in log-log coordinates;
    the head is summed directly.  See one_minus_tail for the contract.
    """

    T_LO = 1e-11
    T_HI = 4.0

    def __init__(self, a: int, beta: float):
        # Only function-level scipy imports: these log-heavy ones, oracles.py's quad.
        # Loaded at construction, so no timed spline build pays the import.
        import scipy.integrate  # noqa: F401
        import scipy.interpolate  # noqa: F401

        self.a = a
        self.beta = beta
        kk = np.arange(2, _HEAVY_HEAD + 1, dtype=float)
        self.head_k = kk
        self.head_terms = _heavy_term(kk, a, beta)
        self.head_mass = float(np.sum(self.head_terms))
        self.total_mass = _heavy_series_sum(a, beta)
        self.tail_mass_const = self.total_mass - self.head_mass
        # T_i = sum_{i < k <= head} of the head terms, i = 0..head-1, listed
        # from i = head-1 down: the Horner coefficients of one_minus_head_array
        rest = np.cumsum(self.head_terms[::-1])
        self._head_tail_sums = np.concatenate((rest, rest[-1:]))
        self._spline = None

    def _tail_integral(self, t: float) -> float:
        """integral_A^inf (1 - e**-(x t)) x**-a (log x)**-beta dx plus the
        midpoint Euler-Maclaurin correction, A = head + 1/2.

        Computed in y = x t coordinates as three well-conditioned pieces:
        a finite piece below y0 = 2 in w = log y coordinates, and above y0
        the split integral of (1 - e**-y) with the pure power part again in
        log coordinates (exponentially decaying integrands throughout).
        """
        from scipy import integrate

        A = _HEAVY_HEAD + 0.5
        a, beta = self.a, self.beta
        lt = math.log(t)
        y0 = 2.0
        lo = A * t
        scale = t ** (a - 1)

        pieces = 0.0
        if lo < y0:
            low, _ = integrate.quad(
                lambda w: -math.expm1(-math.exp(w))
                * math.exp(-(a - 1.0) * w)
                * (w - lt) ** (-beta),
                math.log(lo),
                math.log(y0),
                epsabs=0.0,
                epsrel=1e-11,
                limit=500,
            )
            pieces += low
            ycut = y0
        else:
            ycut = lo
        pure, _ = integrate.quad(
            lambda w: math.exp(-(a - 1.0) * w) * (w - lt) ** (-beta),
            math.log(ycut),
            np.inf,
            epsabs=0.0,
            epsrel=1e-11,
            limit=300,
        )
        expo, _ = integrate.quad(
            lambda y: math.exp(-y) * y ** (-a) * (math.log(y) - lt) ** (-beta),
            ycut,
            np.inf,
            epsabs=0.0,
            epsrel=1e-11,
            limit=300,
        )
        pieces += pure - expo
        val = scale * pieces
        la = math.log(A)
        g = A ** (-a) * la ** (-beta)
        psi_prime = t * math.exp(-A * t) * g + math.expm1(-A * t) * g * (a / A + beta / (A * la))
        return val + psi_prime / 24.0

    def _build_spline(self):
        from scipy.interpolate import CubicSpline

        n_nodes = int(math.log(self.T_HI / self.T_LO) / math.log(10.0) * 80) + 1
        theta = np.linspace(math.log(self.T_LO), math.log(self.T_HI), n_nodes)
        vals = np.array([self._tail_integral(math.exp(th)) for th in theta])
        self._spline = CubicSpline(theta, np.log(vals))
        self._knots = theta.tolist()
        self._pieces = np.ascontiguousarray(self._spline.c.T)  # one row per piece
        # tail value at T_LO, the slope of the linear regime below it
        self._base = math.exp(self._log_tail(self._knots[0]))

    def _log_tail(self, x: float) -> float:
        """The spline at one point x = log t in [log T_LO, log T_HI]: the
        piece found by bisection, then its cubic summed with the same
        operations in the same order as CubicSpline.__call__, which gives
        the same bits without that call's per-point overhead."""
        i = min(bisect_right(self._knots, x) - 1, len(self._knots) - 2)
        c3, c2, c1, c0 = self._pieces[i].tolist()
        d = x - self._knots[i]
        z = d * d
        return c0 + c1 * d + c2 * z + c3 * (z * d)

    def one_minus_tail(self, t: float) -> float:
        """sum_{k > head} c-free tail of sum p_k (1 - e**-(k t)) at t = -log s."""
        if t >= self.T_HI:
            return self.tail_mass_const
        if self._spline is None:
            self._build_spline()
        if t < self.T_LO:
            # linear regime: the tail behaves like t * integral x p(x)
            return self._base * t / self.T_LO
        return math.exp(self._log_tail(math.log(t)))

    def one_minus_tail_array(self, t: np.ndarray) -> np.ndarray:
        """one_minus_tail elementwise, with one spline call for all points."""
        out = np.full(t.shape, self.tail_mass_const)
        below = t < self.T_HI
        if not np.any(below):
            return out
        if self._spline is None:
            self._build_spline()
        low = t < self.T_LO
        out[low] = self._base * t[low] / self.T_LO
        mid = below & ~low
        out[mid] = np.exp(self._spline(np.log(t[mid])))
        return out

    def one_minus_head(self, t: float) -> float:
        """sum_{2 <= k <= head} c-free p_k (1 - e**-(k t)) at one point."""
        buf = self.head_k * -t
        np.expm1(buf, out=buf)
        return -float(np.dot(self.head_terms, buf))

    def one_minus_head_array(self, u: np.ndarray) -> np.ndarray:
        """one_minus_head elementwise, at t = -log(1 - u).

        With s = 1 - u, 1 - s**k = u (1 + s + ... + s**(k-1)), so the sum
        is u * sum_{i < head} T_i s**i with the nonnegative tail sums T_i,
        evaluated by Horner across all points at once.
        """
        s = 1.0 - u
        coeffs = self._head_tail_sums
        acc = np.full(s.shape, coeffs[0])
        for T in coeffs[1:]:
            acc *= s
            acc += T
        return u * acc

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
        t = -math.log1p(-u) if u < 1.0 else math.inf
        head = self.atom1 * u
        if math.isinf(t):
            return head + self.c * self.kernel.total_mass
        return head + self.c * (
            self.kernel.one_minus_head(t) + self.kernel.one_minus_tail(t)
        )

    def _one_minus_pgf_array(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        inner = (u > 0.0) & (u < 1.0)
        ui = u[inner]
        t = -np.log1p(-ui)
        out[inner] = self.atom1 * ui + self.c * (
            self.kernel.one_minus_head_array(ui) + self.kernel.one_minus_tail_array(t)
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
