"""Independent oracles of the population law, used by the verification
checks and the test suite, on numpy and the standard library alone.

The enumeration deliberately avoids the series engine: the branching
recursion is enumerated with exact rational arithmetic, so agreement is
evidence rather than tautology.  step_pmf is a float cross-check of the
exact engine by a different route, the one-generation recursion of the
population law instead of the product over immigrant cohorts.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .models import Model
from .pgf import TruncatedPmf
from .series import series_compose_poly, series_mul


def _as_fractions(probs) -> list[Fraction]:
    # Fraction(float) is the exact dyadic value, so the enumeration is the
    # exact law of the float-valued probabilities actually used upstream
    return [p if isinstance(p, Fraction) else Fraction(p) for p in probs]


def step_pmf(model: Model, y: TruncatedPmf) -> TruncatedPmf:
    """One generation step: coefficients 0..K of (sum_m y_m f(s)**m) h(s).

    Horner from the top coefficient down, one truncated multiply per
    coefficient: the direct transcription of the recursion, a cross-check
    of exact_pmf_Y.
    """
    K = y.K
    if K < 1:
        raise ValueError("truncation bound must be >= 1")
    acc = series_compose_poly(y.probs, model.offspring.pmf_array(K), K)
    return TruncatedPmf(series_mul(acc, model.immigration.pmf_array(K), K))


def enumerate_population_pmf(offspring_probs, immigration_probs, n: int,
                             initial: int = 0) -> dict[int, Fraction]:
    """Exact law of the population after n generations of

        next = sum of per-particle offspring draws + one immigration draw,

    for bounded-support laws, by exhaustive enumeration over all branching
    outcomes (grouped by population, exact Fractions throughout)."""
    off = _as_fractions(offspring_probs)
    imm = _as_fractions(immigration_probs)

    conv_cache: dict[int, dict[int, Fraction]] = {0: {0: Fraction(1)}}

    def offspring_total(m: int) -> dict[int, Fraction]:
        if m not in conv_cache:
            prev = offspring_total(m - 1)
            out: dict[int, Fraction] = defaultdict(Fraction)
            for tot, pt in prev.items():
                for k, pk in enumerate(off):
                    if pk:
                        out[tot + k] += pt * pk
            conv_cache[m] = dict(out)
        return conv_cache[m]

    dist = {initial: Fraction(1)}
    for _ in range(n):
        new: dict[int, Fraction] = defaultdict(Fraction)
        for pop, pr in dist.items():
            totals = offspring_total(pop)
            for tot, pt in totals.items():
                for j, qj in enumerate(imm):
                    if qj:
                        new[tot + j] += pr * pt * qj
        dist = dict(new)
    return dist

