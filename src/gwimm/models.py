"""Offspring and immigration laws on the nonnegative integers, and the
derived model constants for critical branching with immigration.

A Law carries its pmf, one pointwise kernel 1 - h(1 - u) of its probability
generating function h (a closed form where the family has one), moment
metadata, and sampling routines.  A Model
pairs a critical offspring law with a nondegenerate immigration law and
derives

    B     = sum k(k-1) p_k      (offspring factorial second moment),
    lam   = sum k q_k           (immigration mean),
    gamma = 2*lam / B           (limit shape parameter),

plus "finite"/"infinite" flags for the extra tail conditions
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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import (
    mul_padded,
    product_pad,
    series_compose_poly,
    series_exp,
    series_recip,
    trim,
)

CRITICALITY_TOL = 1e-10
EXPLICIT_MASS_TOL = 1e-12
PGF_DOMAIN_TOL = 1e-12

# Head length for direct summation of log-heavy pmfs; beyond this the
# tail is handled by quadrature (see _heavy_tail_sum and _HeavyLawBase).
# A square, so the head sum splits into sqrt(head) baby steps and as many
# giant steps.
_HEAVY_HEAD = 4096
_HEAD_STEP = math.isqrt(_HEAVY_HEAD)
# Points per block of an array head sum: 128 KB of powers at a time.
_HEAD_ROWS = 128
# Inverse-cdf table length for sampling unbounded laws.
_SAMPLE_TABLE = 1 << 16
# Largest beta of the log-heavy laws.  Their tail values go down to about
# 4096**-a (log 4096)**-beta, 7e-293 at beta = 300 for a = 3.  From beta ~ 317
# they are subnormal and lose their digits; from ~1940 the head terms
# overflow to nan.
HEAVY_BETA_MAX = 300.0

FINITE = "finite"
INFINITE = "infinite"


def _is_array(u) -> bool:
    return isinstance(u, np.ndarray) and u.ndim > 0


def _lines_to_run(counts, gens):
    """counts and gens (an int or one per entry) as int64 arrays of one
    shape, a copy of counts to start the output from, and the entries with
    both a positive count and positive generations, the only ones that
    draw."""
    counts = np.asarray(counts, dtype=np.int64)
    gens = np.broadcast_to(np.asarray(gens, dtype=np.int64), counts.shape)
    return counts, gens, counts.copy(), np.flatnonzero((counts > 0) & (gens > 0))


# Tries per round of a rejection draw (_first_positive): a round's arrays
# stay near 512 KB however small the acceptance.
_REJECTION_BLOCK = 1 << 16


def _first_positive(draw, accept: np.ndarray) -> tuple[np.ndarray, int]:
    """Per entry i, a positive value of repeated tries draw(who), which
    makes one try for each entry index in `who`; accept[i] > 0 is the
    chance that one try of entry i is positive.  Returns (values, tries
    drawn).

    Each round gives every pending entry ceil(1/accept) tries at once
    (about e**-1 of the entries stay pending), pending entries in index
    order up to _REJECTION_BLOCK tries per round, and keeps each entry's
    first positive try, so every value has the law of one try given that
    it is positive.
    """
    if not np.all(accept > 0.0):
        raise ValueError("a conditioned draw needs a positive acceptance chance")
    per = np.minimum(np.ceil(1.0 / accept), _REJECTION_BLOCK).astype(np.int64)
    out = np.zeros(accept.shape[0], dtype=np.int64)
    pending = np.arange(accept.shape[0])
    tries = 0
    while pending.shape[0]:
        # the longest prefix of pending entries within one block, at least one
        take = max(1, int(np.searchsorted(np.cumsum(per[pending]), _REJECTION_BLOCK,
                                          side="right")))
        who = np.repeat(pending[:take], per[pending[:take]])
        vals = draw(who)
        tries += who.shape[0]
        hit = np.flatnonzero(vals > 0)
        # `who` ascends, so np.unique's first index is each entry's first hit
        done, first = np.unique(who[hit], return_index=True)
        out[done] = vals[hit[first]]
        pending = np.setdiff1d(pending, done, assume_unique=True)
    return out, tries


def _redraw_survivors(law, counts, gens, u, rng) -> np.ndarray:
    """Law.sample_survivors by rejection: every line is drawn through
    law.sample_generations until it survives (_first_positive, u[gens] the
    acceptance)."""
    counts, gens, out, run = _lines_to_run(counts, gens)
    if run.shape[0]:
        line = np.repeat(run, counts[run])  # entry of each line
        line_gens = gens[line]
        z, _ = _first_positive(
            lambda who: law.sample_generations(np.ones(who.shape[0], dtype=np.int64),
                                               line_gens[who], rng),
            np.asarray(u, dtype=float)[line_gens])
        out[run] = 0
        np.add.at(out, line, z)
    return out


# Steps times atoms of the law per block of split chances computed at once
# (Law._reduced_splits): each of its tables stays near 128 KB, whatever the
# support of the law.
_SPLIT_CELLS = 1 << 14


def _reduced_step(lines: np.ndarray, go: list, stay: list, rng) -> np.ndarray:
    """Entrywise sum over lines[i] lines of their children J >= 1, by
    sequential binomial splits: of the lines with J >= j, go[j-1] is the
    chance of J > j and stay[j-1] that of J = j (j = 1..d-1).  Each split
    draws the rarer side, so no chance is formed as 1 - x, and the splits
    stop once no line is left to split."""
    out = rem = lines
    for j, (g, s) in enumerate(zip(go, stay)):
        if j and not rem.any():
            break
        if g <= 0.5:
            if g == 0.0:
                break
            rem = rng.binomial(rem, g)
        elif s > 0.0:
            rem = rem - rng.binomial(rem, s)
        out = out + rem
    return out


class Law:
    """Base class: a probability law on {0, 1, 2, ...}."""

    kind: str
    mean: float
    factorial_second_moment: float  # math.inf marks a divergent sum
    support_bound: int | None = None  # largest atom, None if unbounded
    # one_minus_pgf is a closed form evaluated elementwise on complex
    # arrays, cheap enough for the exact engine's circle path; such laws
    # also keep their series hooks exact at every order, so the engine
    # shares one series chain across orders (see gwimm.pgf._chain_order)
    vectorised_pgf: bool = True
    # sample_survivors draws a surviving cohort's descendants in one step
    # from a closed form for the m-generation law, so the simulator draws
    # Y_m from the immigrant batches with descendants at time m alone
    # instead of stepping it generation by generation (see
    # gwimm.montecarlo._from_survivors)
    closed_form_generations: bool = False
    # one_minus_iterates gives a stored run's bits only from a start that is
    # a multiple of this, so the iterate store fills to such ends (see
    # gwimm.pgf._IterStore)
    iterate_granule: int = 1

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
        """sum p_k s**k for |s| <= 1 (+ tolerance), as 1 - one_minus_pgf(1 -
        s); scalar or ndarray."""
        s = np.asarray(s)
        if np.max(np.abs(s), initial=0.0) > 1.0 + PGF_DOMAIN_TOL:
            raise ValueError("pgf argument outside the closed unit disk")
        # 1.0 - s is a numpy scalar for a 0-d s, so a scalar stays a scalar
        return 1.0 - self.one_minus_pgf(1.0 - s)

    def one_minus_pgf(self, u, out=None):
        """1 - pgf(1 - u), the law's one pointwise kernel, for real or
        complex u with |1 - u| <= 1, formed in u without cancellation.

        A float gives a float, a complex a complex; an array is mapped
        elementwise, and each element's value does not depend on the
        array's length.  The closed forms (vectorised_pgf laws) also take
        ``out``, as a numpy ufunc does: an array of u's shape and type
        that receives the values and is returned; it may be u itself.
        They then allocate no more than one temporary of u's size (two
        for the explicit law), so the circle walk steps in place
        (gwimm.pgf._circle_products), with the bits of the call without
        ``out``.  Log-heavy laws take only real 0 <= u <= 1, raising
        ValueError off it, and never take the circle route; they fill
        ``out`` from a fresh array.
        """
        raise NotImplementedError

    def one_minus_iterates(self, u: float, start: int, count: int) -> np.ndarray:
        """u_{start+1}..u_{start+count} of u_{j+1} = one_minus_pgf(u_j), the
        extinction iterates u_j = 1 - f_j(0) from u_0 = 1, given u =
        u_start.

        A scalar loop, a closed form, or corrected runs.  Default: one
        scalar one_minus_pgf per generation.  The geometric law overrides
        with its closed form for 1 - f_j(0), the log-heavy laws with
        corrected runs that start at multiples of iterate_granule (see
        _HeavyLawBase.one_minus_iterates).  Every override keeps prefixes:
        a shorter count gives the first values of a longer one.
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

    def log_apply_to_series(self, g: np.ndarray, u: np.ndarray, K: int) -> np.ndarray:
        """Coefficients of log pgf(g(s)) truncated at order K.

        ``g`` is one series or a stack of series, one per row, and ``u``
        their constant terms' complements 1 - g[0], given exactly (a float
        or one per row); the result's constant terms come from u alone.
        Coefficients 1..K are nonnegative.  Only compound Poisson laws,
        whose log pgf is exact in the truncated ring, override it; the
        series chain then sums these logs over generations (see
        gwimm.pgf._ChainStore).
        """
        raise NotImplementedError

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
        """Entrywise sums of `counts[i]` iid draws (one array per call).

        Only the offspring steps of a generation loop call it:
        gwimm.montecarlo._generation_loop and sample_generations, which
        Poisson and log-heavy offspring reach.  Generic: sum(counts) draws
        of sample, entry i summing those between its two count edges (a
        zero count sums to 0).  Poisson overrides with its closed form.
        """
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.zeros_like(counts)
        csum = np.concatenate(([0], np.cumsum(self.sample(total, rng))))
        edges = np.cumsum(counts)
        return csum[edges] - csum[edges - counts]

    def sample_generations(self, counts, gens, rng) -> np.ndarray:
        """Entrywise sums of `counts[i]` iid copies of Z_{gens[i]}, the
        population `gens[i]` offspring-only generations after one ancestor
        (`gens` an int or one per entry): the draws that _redraw_survivors
        conditions on survival.

        One generation loop over all entries: each generation is one
        sample_sum over the entries still running, in input order; an entry
        stops when it dies or finishes.  Entries with count 0 or 0
        generations draw nothing.
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

    def sample_survivors(self, counts, gens, u, rng) -> np.ndarray:
        """Entrywise sums of `counts[i]` iid copies of Z_{gens[i]} given
        Z_{gens[i]} > 0 (one ancestor each): the population of counts[i]
        lines that each survive gens[i] generations.  u[j] = 1 - f_j(0) for
        j = 0..max(gens), the extinction iterates (IterateCache.one_minus_fj0).
        Entries with count 0 or 0 generations draw nothing and keep their
        count.

        Default: a bounded law steps the reduced tree (sample_reduced, no
        immigration); an unbounded one redraws every line through
        sample_generations until it survives (_redraw_survivors).
        """
        if self.support_bound is not None:
            return self.sample_reduced(counts, gens, u, rng)
        return _redraw_survivors(self, counts, gens, u, rng)

    def sample_reduced(self, counts, gens, u, rng, immigration=None) -> np.ndarray:
        """The reduced tree of a bounded law (support_bound set; Fleischmann
        and Siegmund-Schultze, Math. Nachr. 79, 1977): entrywise, the
        population after gens[i] generations of counts[i] lines that each
        survive them, plus, given an `immigration` law, the descendants
        then alive of one immigrant batch per generation.  u is the table of
        extinction iterates as for sample_survivors.  Entries with 0
        generations draw nothing and keep their count, as do entries with
        count 0 when there is no immigration.

        Only lines with descendants at the end are drawn.  Lines are aligned
        to end together: an entry with g generations joins g steps before
        the end (the most generations first, ties in input order), so at a
        step every joined line has the same r generations left and v = u_r
        is one scalar.  A step replaces each line by its children that
        survive r more generations, J given J >= 1 for J ~ Bin(X, v), X a
        draw of this law (_reduced_splits, _reduced_step), then adds the
        step's immigrants that survive, immigration.sample_thinned_count.
        """
        counts = np.asarray(counts, dtype=np.int64)
        gens = np.broadcast_to(np.asarray(gens, dtype=np.int64), counts.shape)
        out = counts.copy()
        run = np.flatnonzero((gens > 0) if immigration is not None else (counts > 0) & (gens > 0))
        order = run[np.argsort(-gens[run], kind="stable")]
        steps = int(gens[order[0]]) if order.shape[0] else 0
        # entries joined by step s: those with gens >= steps - s
        joined = np.searchsorted(-gens[order], np.arange(steps) - steps, side="right")
        pops = counts[order]
        u = np.asarray(u, dtype=float)
        block = max(1, _SPLIT_CELLS // (self.support_bound + 1))
        for lo in range(0, steps, block):
            # v at steps lo, lo+1, ...: u_r for r = steps-1-lo, steps-2-lo, ...
            v = u[max(steps - lo - block, 0):steps - lo][::-1]
            go, stay = (rows.tolist() for rows in self._reduced_splits(v))
            for i, (width, v_i) in enumerate(zip(joined[lo:lo + block].tolist(),
                                                 v.tolist())):
                head = _reduced_step(pops[:width], go[i], stay[i], rng)
                if immigration is not None:
                    head += immigration.sample_thinned_count(width, v_i, rng)
                pops[:width] = head
        out[order] = pops
        return out

    def _reduced_splits(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split chances of J given J >= 1, J ~ Bin(X, v) for X a draw of
        this bounded law, at every point of v: two (len(v), d-1) arrays, d
        the support bound, holding per j = 1..d-1 the chance that J > j and
        the chance that J = j, each given J >= j.

        Both are ratios of sums of nonnegative terms: the weights w_j =
        sum_{i>=j} p_i b_i(j), b_i(j) = C(i, j) v**j (1-v)**(i-j) the
        Bin(i, v) pmf, and their suffix sums S_j = w_j + ... + w_d, so
        S_{j+1}/S_j and w_j/S_j (0 where S_j = 0) carry no cancellation.
        The pmf rows come from b_{i+1}(j) = (1-v) b_i(j) + v b_i(j-1), every
        term in [0, 1], so no binomial coefficient is formed and nothing
        overflows at any support.  S_1 is one_minus_pgf(v) up to rounding.
        """
        d = self.support_bound
        p = self.pmf_array(d).tolist()
        v = np.asarray(v, dtype=float)[:, None]
        q = 1.0 - v
        b = np.zeros((v.shape[0], d + 1))  # b[:, j] = b_i(j), i the row built
        b[:, 0] = 1.0
        w = np.zeros_like(b)
        for i in range(1, d + 1):
            b[:, 1:i + 1] = b[:, 1:i + 1] * q + b[:, :i] * v
            b[:, :1] *= q
            if p[i] > 0.0:
                w[:, 1:i + 1] += p[i] * b[:, 1:i + 1]
        w = w[:, 1:]
        suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
        head, tail = suffix[:, :-1], suffix[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            go = np.where(head > 0.0, tail / head, 0.0)
            stay = np.where(head > 0.0, w[:, :-1] / head, 0.0)
        return go, stay

    def sample_thinned(self, u, rng) -> tuple[np.ndarray, int]:
        """Per entry i, B given B >= 1, where B ~ Bin(I, u[i]) and I is a
        draw of this law: the immigrants of one batch whose lines survive m
        generations, given that one does, for u[i] = u_m = 1 - f_m(0) in
        (0, 1].  Returns (draws, tries), tries the number of (I, B) pairs
        drawn.

        Default: a bounded law draws B by its inverse survival function,
        one uniform per entry, in input order: P(B > j | B >= 1) is the
        product of the split chances go_1..go_j of _reduced_splits(u), so
        B - 1 counts those products above the uniform.  The products are
        formed once per distinct u, and every table holds at most
        _SPLIT_CELLS // (d+1) rows.  An unbounded law rejects on (I, Bin(I,
        u)) (_first_positive), with acceptance P(B >= 1) =
        one_minus_pgf(u).  A family with a closed form for the thinned law
        overrides and draws once per entry.
        """
        u = np.asarray(u, dtype=float)
        if u.shape[0] == 0:
            return np.zeros(0, dtype=np.int64), 0
        if self.support_bound is None:
            return _first_positive(
                lambda who: rng.binomial(self.sample(who.shape[0], rng), u[who]),
                self.one_minus_pgf(u))
        if not (self.mean > 0.0 and np.all(u > 0.0)):
            raise ValueError("a conditioned draw needs a positive acceptance chance")
        r = rng.random(u.shape[0])
        out = np.empty(u.shape[0], dtype=np.int64)
        # entries sorted by u, so the entries of a block of points are one run
        order = np.argsort(u, kind="stable")
        points, at = np.unique(u[order], return_inverse=True)
        block = max(1, _SPLIT_CELLS // (self.support_bound + 1))
        for lo in range(0, points.shape[0], block):
            surv = np.cumprod(self._reduced_splits(points[lo:lo + block])[0], axis=1)
            run = np.arange(*np.searchsorted(at, [lo, lo + block]))
            for a in range(0, run.shape[0], block):
                who = run[a:a + block]
                above = surv[at[who] - lo] > r[order[who], None]
                out[order[who]] = 1 + np.count_nonzero(above, axis=1)
        return out, u.shape[0]

    def sample_thinned_count(self, size: int, v: float, rng) -> np.ndarray:
        """`size` iid draws of Bin(I, v), I a draw of this law and v in (0,
        1]: the immigrants of one batch whose lines survive r generations,
        for v = u_r.

        Default: Bin(sample, v), with no binomial at v = 1; a family whose
        thinned law has a closed form overrides.  At v = 1 every family
        draws what sample(size, rng) draws.
        """
        draws = self.sample(size, rng)
        return rng.binomial(draws, v) if v < 1.0 else draws


class ExplicitLaw(Law):
    kind = "explicit"

    def __init__(self, probs):
        # a read-only copy: the law's identity (its hash) and moments must not
        # follow later writes to the caller's array
        probs = np.array(probs, dtype=float)
        if probs.ndim != 1:
            raise ValueError(f"key 'probs' must be a flat list of probabilities, "
                             f"got {probs.ndim} dimensions")
        if probs.size == 0:
            raise ValueError("explicit law needs a nonempty probability vector")
        if not np.all(np.isfinite(probs)):
            raise ValueError(f"key 'probs' must hold finite probabilities, got {probs.tolist()}")
        if np.any(probs < 0):
            raise ValueError("negative probability in explicit law")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > EXPLICIT_MASS_TOL:
            raise ValueError(
                f"explicit probabilities sum to {total!r}, not 1 within {EXPLICIT_MASS_TOL}"
            )
        probs.flags.writeable = False
        self.probs = probs
        # T_i = P(X > i) from i = d-1 down to 0, one_minus_pgf's Horner order
        self._tail_sums = np.cumsum(probs[:0:-1]).tolist()
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

    def one_minus_pgf(self, u, out=None):
        # 1 - s**k = u (1 + s + ... + s**(k-1)), so 1 - pgf(s) = u T(s) with
        # T(s) = sum_i T_i s**i, by Horner on its nonnegative coefficients,
        # in one buffer on an array.  A float stays in Python arithmetic:
        # the iterate store makes one scalar call per generation, and
        # ufuncs took 2000 of them from 1.2 to 6.4 ms on [.25, .5, .25]
        s = 1.0 - u
        acc = 0.0 * s  # a zero of s's type and shape
        for t in self._tail_sums:
            acc *= s
            acc += t
        return u * acc if out is None else np.multiply(u, acc, out=out)

    def pmf_array(self, K):
        return trim(self.probs, K).copy()

    def sample(self, size, rng):
        return rng.choice(self.probs.size, size=size, p=self.probs)


class GeometricCriticalLaw(Law):
    """p_k = 2**-(k+1); pgf 1/(2-s); the linear-fractional critical law."""

    kind = "geometric-critical"
    closed_form_generations = True

    def __init__(self):
        self.mean = 1.0
        self.factorial_second_moment = 2.0

    def _key(self):
        return ("geometric-critical",)

    def one_minus_pgf(self, u, out=None):
        return np.divide(u, 1.0 + u, out=out)

    def one_minus_iterates(self, u, start, count):
        # f_j(0) = j/(j+1), so u_j = 1/(j+1), correctly rounded at every j
        return 1.0 / np.arange(start + 2, start + count + 2)

    def pmf_array(self, K):
        return 0.5 ** (np.arange(K + 1, dtype=float) + 1.0)

    def apply_to_series(self, g, K):
        # 1/(2 - g); a stack of series goes through one stacked recurrence
        denom = -trim(g, K)
        denom[..., 0] += 2.0
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

    def sample_survivors(self, counts, gens, u, rng):
        # f_m(s) = m/(m+1) + (1/(m+1)) s/(m+1 - m s), so c lines alive after
        # m generations leave c + NegBin(c, 1/(m+1)); 1/(m+1) is u_m in
        # closed form, so the table u is not read
        counts, gens, out, run = _lines_to_run(counts, gens)
        if run.shape[0]:
            out[run] += rng.negative_binomial(counts[run], 1.0 / (gens[run] + 1.0))
        return out

    def sample_thinned(self, u, rng):
        # Bin(I, u) of a Geometric(1/2) count on 0, 1, ... has pgf
        # 1/(1 + u - u s): a Geometric(1/(1+u)) count, which given >= 1 is
        # one on 1, 2, ...
        u = np.asarray(u, dtype=float)
        return rng.geometric(1.0 / (1.0 + u)), u.shape[0]


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

    def one_minus_pgf(self, u, out=None):
        # 0.5 * x has the bits of x / 2.0, without a complex division.  A
        # float stays in Python arithmetic: the iterate store steps u one
        # scalar call at a time (Law.one_minus_iterates), and ufuncs on a
        # float took that loop from 5 to 62 ms at 2e4 generations
        if out is None:
            return 0.5 * (u * (2.0 - u))
        return np.multiply(0.5, np.multiply(u, 2.0 - u, out=out), out=out)

    def pmf_array(self, K):
        out = np.zeros(K + 1)
        out[0] = 0.5
        if K >= 2:
            out[2] = 0.5
        return out

    def _apply_one(self, g, K):
        return self.iterate_series(g, 0, 1, K)[0]

    def iterate_series(self, g, m, count, K):
        # (1 + g*g)/2 row after row, g in one pad: each square is
        # series_mul(g, g, K) with its bits, written straight into out[i]
        out = np.empty((count, K + 1))
        pad = product_pad(g, K)
        g = pad[K:]
        for i in range(count):
            np.multiply(mul_padded(pad, g[::-1]), 0.5, out=out[i])
            out[i, 0] += 0.5
            g[:] = out[i]
        return out

    def sample(self, size, rng):
        return 2 * rng.integers(0, 2, size=size)


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

    def one_minus_pgf(self, u, out=None):
        # np.expm1 for scalars and arrays alike, so both give the same bits
        if not _is_array(u):
            return (-np.expm1(-self.rate * u)).item()
        out = np.multiply(-self.rate, u, out=out)
        return np.negative(np.expm1(out, out=out), out=out)

    def pmf_array(self, K):
        k = np.arange(K + 1, dtype=float)
        log_factorial = np.array([math.lgamma(j + 1.0) for j in range(K + 1)])
        return np.exp(k * math.log(self.rate) - log_factorial - self.rate)

    def _apply_one(self, g, K):
        # exp(rate (g - 1)), with no pmf cut-off; g[1:] >= 0 for a pgf
        g = trim(g, K)
        a = self.rate * g
        a[0] = -self.rate * (1.0 - g[0])
        return series_exp(a, K)

    def iterate_series(self, g, m, count, K):
        # f_{r+1} = exp(rate (f_r - 1)) for all count rows, one order k at
        # a time: k f_{r+1}[k] = sum_{i=1..k} rate i f_r[i] f_{r+1}[k-i].
        # The terms i < k are known for every row: one stacked dot (a BLAS
        # dot per row).  The term i = k, rate f_{r+1}[0] f_r[k], ties a row
        # to the one before it and is added in a scalar pass down the
        # rows.  A block costs O(K) numpy calls, where series_exp costs
        # O(K) per row, and a coefficient is the same operations on the
        # same operands however the generations are split into calls, so
        # a chain continued from a kept horizon has the bits of a fresh
        # one.  Every term is nonnegative.  Once exp(-rate) is below the
        # normal floats the rows go one at a time through series_exp,
        # which keeps such a constant out of its recurrence.
        if not math.exp(-self.rate) >= sys.float_info.min:
            return super().iterate_series(g, m, count, K)
        rev = np.empty((count + 1, K + 1))  # rev[r, K - j] = f_r[j]
        rev[0] = trim(g, K)[::-1]
        x = rev[0, K]
        for r in range(1, count + 1):
            x = rev[r, K] = math.exp(-self.rate * (1.0 - x))
        lead = (self.rate * rev[1:, K]).tolist()  # rate f_{r+1}[0]
        c = np.zeros((count, K + 1))  # c[r, i] = rate i f_r[i], filled up to k - 1
        for k in range(1, K + 1):
            c[:, k - 1] = (self.rate * (k - 1)) * rev[:count, K - k + 1]
            # sum_{i<k} c[r, i] f_{r+1}[k-i]: f_{r+1}[k-1..1] ascend in rev
            col = np.matmul(c[:, None, 1:k], rev[1:, K - k + 1 : K, None])[:, 0, 0] / k
            x = rev[0, K - k]
            rev[1:, K - k] = [x := s + lead_r * x for s, lead_r in zip(col.tolist(), lead)]
        return np.ascontiguousarray(rev[1:, ::-1])

    def log_apply_to_series(self, g, u, K):
        # rate (g - 1), elementwise; the constant is log pgf(1 - u) = -rate u
        out = self.rate * trim(g, K)
        out[..., 0] = -self.rate * np.asarray(u, dtype=float)
        return out

    def sample(self, size, rng):
        return rng.poisson(self.rate, size=size)

    def sample_sum(self, counts, rng):
        return rng.poisson(self.rate * np.asarray(counts, dtype=np.float64))

    def sample_thinned(self, u, rng):
        # Bin(I, u) of a Poisson(rate) count is Poisson(mu), mu = rate u: the
        # arrivals of a rate-mu process on [0, 1].  Given one, the first
        # arrival T is drawn by its inverse cdf on [0, 1), then
        # Poisson(mu (1 - T)) more arrive after it.
        mu = self.rate * np.asarray(u, dtype=float)
        first = -np.log1p(rng.random(mu.shape) * np.expm1(-mu)) / mu
        return 1 + rng.poisson(mu * np.maximum(1.0 - first, 0.0)), mu.shape[0]

    def sample_thinned_count(self, size, v, rng):
        # Bin(I, v) of a Poisson(rate) count is Poisson(rate v)
        return rng.poisson(self.rate * v, size=size)


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

    def one_minus_pgf(self, u, out=None):
        return np.multiply(self.q1, u, out=out)

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

    def sample_thinned(self, u, rng):
        # at most one immigrant: given that one survives, it is the one
        size = np.shape(u)[0]
        return np.ones(size, dtype=np.int64), size


# ---------------------------------------------------------------------------
# log-heavy tails


def _heavy_term(x, a, beta):
    return x ** (-a) * np.log(x) ** (-beta)


# Tail quadrature: 10-point Gauss-Legendre on every panel;
# the tail table's finite piece has _LOW_PANELS equal panels (each under 1.5
# units of log x), every semi-infinite piece _INF_PANELS panels of doubling
# width.  _TABLE_ROWS nodes are evaluated at a time (under 0.2 MB per array).
_LOW_PANELS = 12
_INF_PANELS = 10
_TABLE_ROWS = 128


# Offspring iterates by corrected runs (_HeavyLawBase.one_minus_iterates):
# runs of _RUN generations from multiples of _RUN, predicted on
# quarter-octave cells of u by a degree _CELL_DEGREE interpolant, built
# _CELL_BATCH cells per one_minus_pgf call.  Below _CELL_FLOOR (1.1e-289)
# a run goes on by the scalar loop: cells reach the subnormals from 2**-1022,
# and one_minus_pgf is not smooth to rounding from about 1e-292, where the
# tail's linear regime forms a subnormal base * t (_one_minus_tail).
_RUN = 512
_CELL_DEGREE = 12
_CELL_BATCH = 4
_CELL_FLOOR = 2.0**-960


@lru_cache(maxsize=None)
def _cell_fit():
    """The _CELL_DEGREE + 1 Chebyshev points of the first kind x_k =
    cos(theta_k), theta_k = (2k+1) pi / (2N), and the matrix that takes
    values at them to the monomial coefficients in x of their interpolant.

    The interpolant's Chebyshev coefficients are (2/N) sum_k f_k
    cos(m theta_k), halved at m = 0; the monomial coefficients of T_m
    follow from T_{m+1} = 2x T_m - T_{m-1}, exact in floats.
    """
    n = _CELL_DEGREE + 1
    theta = (2.0 * np.arange(n) + 1.0) * (math.pi / (2 * n))
    cheb = np.cos(np.multiply.outer(np.arange(n), theta)) * (2.0 / n)
    cheb[0] /= 2.0
    mono = np.zeros((n, n))  # row m: coefficients of T_m
    mono[0, 0] = mono[1, 1] = 1.0
    for m in range(1, n - 1):
        mono[m + 1, 1:] = 2.0 * mono[m, :-1]
        mono[m + 1] -= mono[m - 1]
    return np.cos(theta), mono.T @ cheb


# The 10-point Gauss-Legendre rule on [-1, 1], its positive nodes (the
# roots of P_10) and their weights 2 / ((1 - x**2) P_10'(x)**2), each the
# double nearest the true value; the rule is symmetric about 0.
_GL_NODES = (0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
             0.8650633666889845, 0.9739065285171717)
_GL_WEIGHTS = (0.29552422471475287, 0.26926671930999635, 0.21908636251598204,
               0.1494513491505806, 0.06667134430868814)


@lru_cache(maxsize=None)
def _gauss_legendre():
    """The 10-point Gauss-Legendre rule on [0, 1]."""
    x = np.array(_GL_NODES)
    w = np.array(_GL_WEIGHTS)
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    return (x + 1.0) / 2.0, w / 2.0


def _gauss_panels(edges: np.ndarray):
    """Points and weights of Gauss-Legendre on each panel between
    consecutive edges, flattened panel by panel."""
    x, w = _gauss_legendre()
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * x).ravel(), (width * w).ravel()


@lru_cache(maxsize=None)
def _doubling_panels():
    """The semi-infinite pieces' rule: _INF_PANELS panels with edges 0, 1,
    3, ..., 2**_INF_PANELS - 1 in units of the first panel's width."""
    return _gauss_panels(2.0 ** np.arange(_INF_PANELS + 1) - 1.0)


def _pure_tail(zc: np.ndarray, a: int, beta: float, ref: float) -> np.ndarray:
    """int_zc^oo e**(-(a-1) z) z**-beta dz in units of e**ref, a >= 2, for
    every zc of a column (shape (n, 1)).  The doubling panels start at width
    2/r, r = (a-1) + beta/zc the integrand's decay rate at zc, so they run on
    until it has dropped by e**-99 or more for every beta."""
    x, w = _doubling_panels()
    h = 2.0 / ((a - 1.0) + beta / zc)
    z = zc + h * x
    return h[:, 0] * (np.exp(-(a - 1.0) * z - beta * np.log(z) - ref) @ w)


def _heavy_tail_sum(a: int, beta: float, k: int) -> float:
    """sum_{i > k} i**-a (log i)**-beta for k >= 1.

    The terms up to _HEAVY_HEAD are summed by math.fsum.  Beyond them, from
    A = max(k, _HEAVY_HEAD) + 1/2, comes the integral of the same function
    (the closed form (log A)**(1-beta)/(beta-1) at a = 1, _pure_tail in z =
    log x otherwise) plus the midpoint Euler-Maclaurin corrections
    f'(A)/24 - 7 f'''(A)/5760 of f(x) = x**-a (log x)**-beta.
    """
    terms = _heavy_term(np.arange(max(k, 1) + 1, _HEAVY_HEAD + 1, dtype=float), a, beta)
    A = max(k, _HEAVY_HEAD) + 0.5
    L = math.log(A)
    if a == 1:
        integral = L ** (1.0 - beta) / (beta - 1.0)
    else:
        ref = -(a - 1.0) * L - beta * math.log(L)
        integral = math.exp(ref) * float(_pure_tail(np.array([[L]]), a, beta, ref)[0])
    deriv = -(A ** (-a - 1)) * L ** (-beta) * (a + beta / L)
    # f'''(A) = -A**(-a-3) L**-beta times a cubic in y = 1/L
    y = 1.0 / L
    cubic = a * (a + 1) * (a + 2) + beta * y * (
        3 * a * (a + 2) + 2 + (beta + 1) * y * (3 * (a + 1) + (beta + 2) * y))
    deriv3 = -(A ** (-a - 3)) * L ** (-beta) * cubic
    return math.fsum(terms.tolist()) + (integral + (deriv / 24.0 - 7.0 * deriv3 / 5760.0))


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
    first panel is halved until r * width <= 4, and pure (_pure_tail) and
    expo take the doubling panels from width 2/r of the piece's start.
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
    inf_x, inf_w = _doubling_panels()
    out = np.empty(theta.shape)
    for rows in range(0, theta.size, _TABLE_ROWS):
        lt = theta[rows : rows + _TABLE_ROWS, None]
        d = D[rows : rows + _TABLE_ROWS, None]
        z = L + d * low_x
        f = np.log(-np.expm1(-np.exp(z + lt))) - (a - 1.0) * z - beta * np.log(z)
        low = d[:, 0] * (np.exp(f - ref) @ low_w)
        zc = L + d
        pure = _pure_tail(zc, a, beta, ref)
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


class _NotAKnotSpline:
    """The not-a-knot cubic spline through (x_i, y_i), 1-D float arrays
    with x increasing and at least 4 nodes (de Boor, A Practical Guide to
    Splines, ch. IV): scipy.interpolate.CubicSpline's default.

    The slopes solve CubicSpline's tridiagonal rows by one elimination
    without pivoting, the steps LAPACK's gtsv (CubicSpline's solver) takes
    when it need not pivot, as on the near-uniform grids of the tail
    tables; there the bits are CubicSpline's.  The pieces are kept in
    PPoly's layout, c of shape (4, n-1) with c[k, i] the coefficient of
    (q - x_i)**(3-k), and evaluated in PPoly's order.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = x.size
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # row i: lower[i-1] s_{i-1} + diag[i] s_i + upper[i] s_{i+1} = rhs[i]
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.concatenate(([x[2] - x[0]], dx[:-1]))
        lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))
        rhs = np.empty(n)
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] * dx[0] * slope[1]) / d
        d = x[-1] - x[-3]
        rhs[-1] = (dx[-1] * dx[-1] * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        diag, upper, lower, s = diag.tolist(), upper.tolist(), lower.tolist(), rhs.tolist()
        for i in range(n - 1):
            fact = lower[i] / diag[i]
            diag[i + 1] -= fact * upper[i]
            s[i + 1] -= fact * s[i]
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
        s = np.array(s)
        # CubicHermiteSpline's coefficients from the slopes
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self._step = (x[-1] - x[0]) / (n - 1)
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def interval(self, q):
        """The piece of each point of q: np.searchsorted(x, q, "right") - 1,
        clipped to 0..n-2, found arithmetically.  The guess (q - x_0) / h
        for the mean spacing h is one off at most on a uniform grid (the
        tail tables' linspace), and one comparison on each side corrects
        it; on other grids the corrections repeat until none is needed."""
        x, last = self.x, self.x.size - 2
        # fmin and fmax take nan to the last piece, where searchsorted puts it
        i = np.fmax(np.fmin(np.floor((q - x[0]) / self._step), last), 0).astype(np.intp)
        while True:
            down = (q < x[i]) & (i > 0)
            up = (q >= x[i + 1]) & (i < last)
            if not (down.any() or up.any()):
                return i
            i += up
            i -= down

    def __call__(self, q):
        """Values at q (any shape); beyond the ends the end pieces go on."""
        i = self.interval(q)
        s = q - self.x[i]
        s2 = s * s
        c0, c1, c2, c3 = self.c
        return ((c3[i] + c2[i] * s) + c1[i] * s2) + c0[i] * (s2 * s)


class _HeavyLawBase(Law):
    """A log-heavy law: pmf c * k**-a (log k)**-beta for k >= 2, plus the
    atoms atom0 and atom1 that each family sets.

    total_mass = sum_{k >= 2} k**-a (log k)**-beta and tail_mass_const, the
    same sum over k > _HEAVY_HEAD, are sums without c.  The c-free sum
    u |-> sum_{k >= 2} k**-a (log k)**-beta (1 - (1-u)**k) is a head
    k <= _HEAVY_HEAD, summed exactly by baby-step giant-step (see
    _one_minus_head), plus the tail beyond it, a not-a-knot cubic spline
    in log-log coordinates through a table built once by a 10-point
    Gauss-Legendre rule (see _build_spline and _one_minus_tail); both run
    on numpy and math alone, so a log-heavy law loads no scipy module.
    one_minus_pgf works on 1-D arrays only and takes a scalar as a
    one-element array, so a point's value has the same bits as a scalar
    and inside any array.  It takes only real u on the segment 0 <= u <=
    1 and raises ValueError off it (complex u, u < 0 or u > 1): no tail
    there is summed to the head's accuracy, so pgf at s < 0 and
    gwimm.pgf.charfn_modulus on a log-heavy model refuse too.

    Offspring iterates come in corrected runs of _RUN generations (see
    one_minus_iterates): a Python-float predictor steps each run on cells,
    quarter octaves of u with a degree-12 Chebyshev interpolant of
    one_minus_pgf(u)/u each (_build_cells), and one array one_minus_pgf
    call corrects the run to first order.  The neglected second-order term,
    1/2 phi'' e**2 for the predictor's drift e, is below 1e-20 relative.
    """

    T_LO = 1e-11
    T_HI = 4.0
    vectorised_pgf = False  # one_minus_pgf takes no complex points
    iterate_granule = _RUN

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
        self.a = a
        self.beta = float(beta)
        self.total_mass = _heavy_tail_sum(a, self.beta, 1)
        self.tail_mass_const = _heavy_tail_sum(a, self.beta, _HEAVY_HEAD)
        head_terms = _heavy_term(np.arange(2, _HEAVY_HEAD + 1, dtype=float), a, self.beta)
        # T_i = sum_{i < k <= head} of the head terms, i = 0..head-1 (T_0 =
        # T_1), as a matrix with T_{64 g + b} in row g, column b
        rest = np.cumsum(head_terms[::-1])[::-1]
        self._head_matrix = np.concatenate((rest[:1], rest)).reshape(_HEAD_STEP, _HEAD_STEP)
        # exponents of s = e**-t: baby steps 0..63, then giant steps 64 g
        steps = np.arange(_HEAD_STEP, dtype=float)
        self._powers = -np.concatenate((steps, _HEAD_STEP * steps))
        self._spline = None
        self._cells = {}  # cell index -> (mid, half, monomial coefficients)

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
            out[2:] = self.c * _heavy_term(ks, self.a, self.beta)
        return out

    def tail_mass(self, K):
        if K < 1:
            return 1.0 - (self.atom0 if K == 0 else 0.0)
        return self.c * _heavy_tail_sum(self.a, self.beta, K)

    # -- 1 - pgf ----------------------------------------------------------

    def _build_spline(self):
        """Cubic spline of log tail(t) in log t through 929 nodes from T_LO
        to T_HI, their values from one vectorised quadrature over all nodes
        (_heavy_tail_table)."""
        n_nodes = int(math.log(self.T_HI / self.T_LO) / math.log(10.0) * 80) + 1
        theta = np.linspace(math.log(self.T_LO), math.log(self.T_HI), n_nodes)
        self._spline = _NotAKnotSpline(theta, _heavy_tail_table(self.a, self.beta, theta))
        # tail value at T_LO, the slope of the linear regime below it
        self._base = float(np.exp(self._spline(theta[0])))

    def _one_minus_tail(self, t: np.ndarray) -> np.ndarray:
        """sum_{k > head} c-free tail of sum p_k (1 - e**-(k t)) at t = -log s,
        elementwise over a 1-D array."""
        out = np.full(t.shape, self.tail_mass_const)
        below = t < self.T_HI
        if not np.any(below):
            return out
        if self._spline is None:
            self._build_spline()
        # linear regime: the tail behaves like t * integral x p(x); t / T_LO
        # first, as self._base * t is subnormal below t ~ 1e-292
        low = t < self.T_LO
        out[low] = self._base * (t[low] / self.T_LO)
        mid = below & ~low
        out[mid] = np.exp(self._spline(np.log(t[mid])))
        return out

    def _one_minus_head(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """sum_{2 <= k <= head} c-free p_k (1 - (1-u)**k) at t = -log(1-u),
        elementwise over 1-D arrays.

        With s = 1 - u = e**-t, 1 - s**k = u (1 + s + ... + s**(k-1)), so the
        sum is u * sum_{i < head} T_i s**i with the nonnegative tail sums T_i.
        Baby-step giant-step (Paterson and Stockmeyer, SIAM J. Comput. 2,
        1973) with i = 64 g + b: u * sum_g s**(64 g) (sum_b T_{64g+b} s**b),
        one 64 x 64 matrix-vector product and one dot product per point, the
        128 powers from exp.  Every term is nonnegative, so the sum keeps its
        relative accuracy.  numpy's stacked matmul makes the two BLAS calls
        (a gemv, then a dot) per point, so a point's value does not depend
        on the block it sits in.
        """
        out = np.empty(t.shape)
        for lo in range(0, t.size, _HEAD_ROWS):
            e = np.exp(np.multiply.outer(t[lo : lo + _HEAD_ROWS], self._powers))
            inner = self._head_matrix @ e[:, :_HEAD_STEP, None]
            out[lo : lo + _HEAD_ROWS] = (e[:, None, _HEAD_STEP:] @ inner)[:, 0, 0]
        return u * out

    def one_minus_pgf(self, u, out=None):
        arr = np.atleast_1d(np.asarray(u))
        off = arr if np.iscomplexobj(arr) else arr[(arr < 0.0) | (arr > 1.0)]
        if off.size:
            raise ValueError(f"{self.describe()} evaluates 1 - pgf(1 - u) only on the real "
                             f"segment 0 <= u <= 1 (0 <= s <= 1), got u = {off[0]}")
        vals = np.where(arr == 0.0, 0.0, np.nan)  # nan stays nan
        inner = (arr > 0.0) & (arr < 1.0)
        ui = arr[inner]
        t = -np.log1p(-ui)
        vals[inner] = self.atom1 * ui + self.c * (
            self._one_minus_head(ui, t) + self._one_minus_tail(t)
        )
        vals[arr == 1.0] = self.atom1 + self.c * self.total_mass
        if out is not None:
            out[...] = vals
            return out
        return vals if _is_array(u) else vals[0].item()

    # -- offspring iterates ------------------------------------------------

    def _build_cells(self, i: int):
        """Cells i..i+_CELL_BATCH-1 from one array one_minus_pgf call.

        Cell i covers u in [2**(-(i+1)/4), 2**(-i/4)] and holds the degree
        _CELL_DEGREE interpolant of g(u) = one_minus_pgf(u)/u at the
        cell's Chebyshev points, as monomial coefficients (Python floats) in
        x = (u - mid)/half.  Every value is elementwise or one fixed-shape
        product per cell, so a cell has the same bits in any build order.
        """
        nodes, fit = _cell_fit()
        cells = []
        for k in range(i, i + _CELL_BATCH):
            hi, lo = 2.0 ** (-k / 4.0), 2.0 ** (-(k + 1) / 4.0)
            cells.append(((hi + lo) / 2.0, (hi - lo) / 2.0))
        u = np.array([mid + half * nodes for mid, half in cells])
        g = self.one_minus_pgf(u.ravel()).reshape(u.shape) / u
        for k, (mid, half) in enumerate(cells):
            self._cells.setdefault(i + k, (mid, half, (fit @ g[k]).tolist()))

    def one_minus_iterates(self, u, start, count):
        """Corrected runs: the recursion linearised around a predicted
        trajectory and corrected by one array call (the DEER scheme of Lim
        et al., ICLR 2024, with one Newton step).

        Runs of _RUN generations start at multiples of _RUN (absolute
        generations), each from the value it is given:

        - predict: u~_0 = u, u~_{j+1} = u~_j g(u~_j) with g the interpolant
          of u's cell (_build_cells), by Horner in Python floats, and the
          slope a_{j+1} = g + u~_j g'(u~_j) of phi(u) = one_minus_pgf(u);
        - correct: r_{j+1} = phi(u~_j) - u~_{j+1} from one array call,
          e_{j+1} = a_{j+1} e_j + r_{j+1} from e_0 = 0, and u_j = u~_j + e_j.

        So u_{j+1} - phi(u_j) is the rounding of phi plus the neglected
        1/2 phi''(u~_j) e_j**2, |phi''| <= B.  The predicted steps follow
        phi to 2e-12 relative, so |e_j| stays below 1e-9 u_j over a run and
        that term below 1e-20 relative (measured over 1e5 generations from
        u = 1 at beta from 1.01 to HEAVY_BETA_MAX); each step is within 4
        ulp of phi at the value before it.  A run that reaches u <
        _CELL_FLOOR ends by the base class's scalar loop, which keeps u = 0
        at 0.
        """
        out = np.empty(count)
        done = 0
        while done < count:
            m = min(_RUN - (start + done) % _RUN, count - done)
            out[done : done + m] = self._corrected_run(u, start + done, m)
            u = float(out[done + m - 1])
            done += m
        return out

    def _corrected_run(self, u: float, start: int, m: int) -> np.ndarray:
        """u_{start+1}..u_{start+m} of one run from u = u_start (see
        one_minus_iterates)."""
        pred, slope = [u], []
        lo, hi = 1.0, 0.0  # no cell yet
        for _ in range(m):
            if not lo <= u <= hi:
                if not u >= _CELL_FLOOR:
                    break
                i = int(-4.0 * math.log2(u))  # floor, as 0 < u <= 1
                if i not in self._cells:
                    self._build_cells(i)
                mid, half, coeffs = self._cells[i]
                lo, hi = mid - half, mid + half
                top, *rev = coeffs[::-1]
            x = (u - mid) / half
            g, dg = top, 0.0
            for c in rev:
                dg = dg * x + g
                g = g * x + c
            slope.append(g + u * dg / half)
            u *= g
            pred.append(u)
        pred = np.array(pred)
        res = (self.one_minus_pgf(pred[:-1]) - pred[1:]).tolist()
        err, e = [], 0.0
        for a, r in zip(slope, res):
            e = a * e + r
            err.append(e)
        out = pred[1:] + err
        done = out.shape[0]
        if done < m:  # the predictor stopped below _CELL_FLOOR
            last = float(out[-1]) if done else float(pred[0])
            out = np.concatenate((out, Law.one_minus_iterates(self, last, start + done, m - done)))
        return out

    # -- sampling ---------------------------------------------------------

    def _survival_table(self):
        """-P(X > k) for k = 0.._SAMPLE_TABLE, ascending: the tail sum
        c * T(_SAMPLE_TABLE) plus the table's pmf beyond k, summed from the
        far end, so the last entry is the tail sum itself."""
        if not hasattr(self, "_neg_sf"):
            far = self.c * _heavy_tail_sum(self.a, self.beta, _SAMPLE_TABLE)
            p = self.pmf_array(_SAMPLE_TABLE)
            self._neg_sf = -np.cumsum(np.concatenate(([far], p[:0:-1])))[::-1]
        return self._neg_sf

    def sample(self, size, rng):
        # the smallest k with P(X > k) < r, r = 1 - u exact for u from
        # rng.random
        r = 1.0 - rng.random(size)
        out = np.searchsorted(self._survival_table(), -r, side="right")
        for idx in np.nonzero(out > _SAMPLE_TABLE)[0]:
            out[idx] = self._far_tail_draw(r[idx])
        return out.astype(np.int64)

    def _far_tail_draw(self, r: float) -> int:
        """The smallest k > _SAMPLE_TABLE with P(X > k) = c * T(k) < r, T
        the tail sum, by bisection over doubling brackets; r = 1 - u is exact
        for u from rng.random, so r >= 2**-53."""
        lo, hi = _SAMPLE_TABLE, 2 * _SAMPLE_TABLE
        while not self.c * _heavy_tail_sum(self.a, self.beta, hi) < r:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.c * _heavy_tail_sum(self.a, self.beta, mid) < r:
                hi = mid
            else:
                lo = mid
        return hi


class LogHeavyOffspringLaw(_HeavyLawBase):
    kind = "log-heavy-offspring"

    def __init__(self, beta: float):
        super().__init__(beta, a=3)
        s_mean = _heavy_tail_sum(2, self.beta, 1)  # sum k * k^-3 log^-beta
        t1 = _heavy_tail_sum(1, self.beta, 1)  # sum k(k-1) p_k / c + s_mean
        self.c = 0.5 / s_mean
        self.atom1 = 0.5
        self.atom0 = 0.5 - self.c * self.total_mass
        self.mean = 1.0
        self.factorial_second_moment = self.c * (t1 - s_mean)


class LogHeavyImmigrationLaw(_HeavyLawBase):
    kind = "log-heavy-immigration"

    def __init__(self, beta: float):
        super().__init__(beta, a=2)
        t1 = _heavy_tail_sum(1, self.beta, 1)  # sum k q_k / c
        self.c = 0.5 / t1
        self.atom1 = 0.0
        self.atom0 = 1.0 - self.c * self.total_mass
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
    """FINITE or INFINITE: the extra tail sum in the given role.

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
