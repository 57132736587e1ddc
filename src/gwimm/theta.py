"""Law of the first immigrant generation with descendants alive at the
horizon, and its joint decomposition with the population size.

With cohorts Z^(i) started by the generation-i immigrants, theta_n is the
smallest i <= n with Z^(i)_{n-i} > 0.  Its law is exact in terms of the
cumulative products F:

    P(theta_n > l)  = F(n) / F(n-l),
    P(theta_n = l)  = (1 - h(f_{n-l}(0))) * F(n) / F(n-l+1),

and the event that no cohort survives carries the atom F(n) = P(Y_n = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Model
from .pgf import DEFAULT_DEFICIT_CEILING, IterateCache, _chain_store, _check_generation


@dataclass
class ThetaLaw:
    """Distribution of theta_n; pmf[l] = P(theta_n = l) for l = 1..n
    (pmf[0] is unused and zero), plus the no-survivor atom."""

    n: int
    pmf: np.ndarray
    atom_none: float

    def total(self) -> float:
        return math.fsum(self.pmf.tolist()) + self.atom_none


def theta_survival(cache: IterateCache, n: int, l):
    """P(theta_n > l) = F(n)/F(n-l); elementwise over an array of l, a
    float for an int."""
    ls = np.asarray(l)
    if np.any((ls < 0) | (ls > n)):
        raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
    if n > cache.N:
        raise ValueError(f"cache horizon {cache.N} < n={n}")
    return cache.F_ratio(n, n - l)


def theta_pmf(cache: IterateCache, n: int) -> ThetaLaw:
    """Full law of theta_n from the iterate cache."""
    _check_generation(n)
    if n > cache.N:
        raise ValueError(f"cache horizon {cache.N} < n={n}")
    pmf = np.zeros(n + 1)
    m = n - np.arange(1, n + 1)  # cohort age at the horizon
    pmf[1:] = cache.one_minus_hfj0_at(m) * cache.F_ratio(n, m + 1)
    return ThetaLaw(n=n, pmf=pmf, atom_none=cache.F_ratio(n, 0))


def joint_Y_theta_window(
    model: Model,
    cache: IterateCache,
    n: int,
    k: int,
    K: int,
    m_max: int | None = None,
    deficit_ceiling: float = DEFAULT_DEFICIT_CEILING,
) -> np.ndarray:
    """P(Y_n = k, theta_n = n - m) for all cohort ages m = 0..m_max.

    Entry m is the surviving cohort's law restricted to positive values,
    convolved with the law of Y_m (the younger cohorts), times
    F(n)/F(m+1), the probability that every older cohort is extinct.  The
    convolutions are the joint rows of the model's stored series chain at
    order K (pgf._ChainStore), which do not depend on n, so later windows
    at any horizon reuse them.  k > K or m_max < 0 raises; k < 0 gives
    zeros.  deficit_ceiling is accepted and ignored: the window certifies
    no mass."""
    if k > K:
        raise ValueError(f"k={k} exceeds truncation bound K={K}")
    if n > cache.N:
        raise ValueError(f"cache horizon {cache.N} < n={n}")
    _check_generation(n)
    if m_max is None:
        m_max = n - 1
    elif m_max < 0:
        raise ValueError(f"need m_max >= 0, got m_max={m_max}")
    m_max = min(m_max, n - 1)
    if k < 0 or m_max < 0:
        return np.zeros(m_max + 1)
    rows = _chain_store(model, K).rows(m_max + 1)
    return rows[:, k] * cache.F_ratio(n, np.arange(1, m_max + 2))
