"""Truncated power-series arithmetic on numpy coefficient vectors.

A series is a 1-d float array ``a`` with ``a[j]`` the coefficient of s**j.
All operations truncate at a caller-supplied order ``K`` (inclusive), i.e.
they work in the ring R[s]/(s**(K+1)).  Truncation is exact for coefficient
extraction: the coefficient of s**j in a product depends only on inputs of
index <= j, so low-order coefficients are never corrupted by the cutoff.
Products are np.convolve; exp and reciprocal share one triangular recurrence.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.linalg.blas import dtrsv

# Above this truncation order, full laws of closed-form models are read off
# a circle (pgf.py); every product here is np.convolve at every order.
DIRECT_CONV_MAX = 512

# Coefficients the triangular recurrence solves for at once.  Cost stays
# O(K**2) for any block size; of 32..256, 64 timed best or near-best for
# series_exp from K = 8 to 6144.
EXP_BLOCK = 64
# series_exp with a subnormal exp(a_0) scales a[1:] to sum to at most this,
# so the coefficients of exp(a - a_0), which are below exp(sum a[1:]), stay
# finite
EXP_SCALE_SUM = 512.0
# r - c below the diagonal, 0 on and above it: the block's Toeplitz index
_EXP_DIFF = np.subtract.outer(np.arange(EXP_BLOCK), np.arange(EXP_BLOCK)).clip(0)


def trim(a: np.ndarray, K: int) -> np.ndarray:
    """Truncate (or zero-pad) ``a`` to exactly K+1 coefficients; a stack
    of series, one per row, is cut along its last axis."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] >= K + 1:
        return a[..., : K + 1]
    out = np.zeros(a.shape[:-1] + (K + 1,))
    out[..., : a.shape[-1]] = a
    return out


def _cut(full: np.ndarray, K: int) -> np.ndarray:
    """trim for a fresh product: a slice when it has K+1 terms already."""
    return full[: K + 1] if full.shape[0] > K else trim(full, K)


def series_mul(a: np.ndarray, b: np.ndarray, K: int) -> np.ndarray:
    """Product of two series, truncated at order K."""
    a = np.asarray(a, dtype=float)[: K + 1]
    b = np.asarray(b, dtype=float)[: K + 1]
    return _cut(np.convolve(a, b), K)


def series_square(a: np.ndarray, K: int) -> np.ndarray:
    """a**2 truncated at order K."""
    a = np.asarray(a, dtype=float)[: K + 1]
    return _cut(np.convolve(a, a), K)


def series_pow(a: np.ndarray, m: int, K: int) -> np.ndarray:
    """a**m for integer m >= 0, by binary exponentiation."""
    if m < 0:
        raise ValueError("negative series power")
    result = np.zeros(K + 1)
    result[0] = 1.0
    base = trim(a, K)
    while m:
        if m & 1:
            result = series_mul(result, base, K)
        m >>= 1
        if m:
            base = series_square(base, K)
    return result


def series_recip(a: np.ndarray, K: int) -> np.ndarray:
    """1/a truncated at order K.  Requires a[0] != 0.

    Recurrence x_0 = 1/a_0, a_0 x_k = sum_{i=1..k} (-a_i) x_{k-i}: for
    1/(2 - g) with g a pgf every term is nonnegative.
    """
    a = trim(a, K)
    if a[0] == 0.0:
        raise ValueError("series reciprocal needs a nonzero constant term")
    return _forward_solve(-a, a[0], 1.0 / a[0], K)


def series_compose_poly(coeffs: np.ndarray, g: np.ndarray, K: int) -> np.ndarray:
    """sum_m coeffs[m] * g**m truncated at order K, by Horner from the top."""
    coeffs = np.asarray(coeffs, dtype=float)
    g = trim(g, K)
    acc = np.zeros(K + 1)
    if coeffs.shape[0] == 0:
        return acc
    acc[0] = coeffs[-1]
    for m in range(coeffs.shape[0] - 2, -1, -1):
        acc = series_mul(acc, g, K)
        acc[0] += coeffs[m]
    return acc


def _forward_solve(c: np.ndarray, d, e0: float, K: int) -> np.ndarray:
    """e_0..e_K with e_0 = e0 and d_k e_k = sum_{i=1..k} c_i e_{k-i}.

    ``c`` holds c_i at index i (c[0] is not read, missing terms are 0);
    ``d`` is one number or the array d_0..d_K.  With c[1:] >= 0 and d > 0
    every term is nonnegative, so each coefficient keeps its relative
    accuracy however small it is.  Coefficients are found EXP_BLOCK at a
    time: the history e_0..e_{k0-1} enters through one correlation, the
    block itself through one triangular solve whose off-diagonal entries
    are -c_i, so forward substitution only adds nonnegative terms too.
    O(K**2) flops, O(K) memory.
    """
    e = np.zeros(K + 1)
    e[0] = e0
    b = min(EXP_BLOCK, K)
    if b == 0:
        return e
    # zero tail of c, unit tail of d: the last block may run past K
    cz = np.zeros(K + b + 1)
    cz[: c.shape[0]] = c
    dz = np.ones(K + b + 1)
    dz[: K + 1] = d
    # (diag(dz[k0:k0+b]) - T) e[k0:k0+b] = history, T[r, c] = cz[r - c]
    neg = -cz[:b]
    neg[0] = 0.0
    tri = np.asfortranarray(neg[_EXP_DIFF[:b, :b]])
    diag = np.arange(b)
    for k0 in range(1, K + 1, b):
        history = np.correlate(cz[1 : k0 + b], e[k0 - 1 :: -1], "valid")
        tri[diag, diag] = dz[k0 : k0 + b]
        m = min(b, K + 1 - k0)
        e[k0 : k0 + m] = dtrsv(tri, history, lower=1)[:m]
    return e


def series_exp(a: np.ndarray, K: int) -> np.ndarray:
    """exp(a) truncated at order K, for a series with a[1:] >= 0.

    Exact recurrence e_0 = exp(a_0), k e_k = sum_{i=1..k} i a_i e_{k-i},
    whose terms are all nonnegative when a[1:] is.  Every e_k is e_0
    times a polynomial in a[1:], so when exp(a_0) is not a normal float
    the constant stays out of the recurrence: it runs from e_0 = 1 on
    a[1:] scaled to sum to at most EXP_SCALE_SUM (a_i t^i, so no e_k
    overflows), and coefficient k is exp(a_0 + log e_k - k log t).  A
    coefficient then underflows only where its own value does; it loses
    about |a_0| ulps, as exp of a rounded a_0 does.
    """
    a = np.asarray(a, dtype=float)[: K + 1]
    i = np.arange(a.shape[0])
    e0 = math.exp(a[0])
    if e0 >= sys.float_info.min or K == 0:
        return _forward_solve(i * a, np.arange(K + 1), e0, K)
    t = EXP_SCALE_SUM / max(math.fsum(a[1:]), EXP_SCALE_SUM)
    e = _forward_solve(i * (a * t**i), np.arange(K + 1), 1.0, K)
    with np.errstate(divide="ignore"):
        return np.exp(a[0] + np.log(e) - np.arange(K + 1) * math.log(t))


def series_exp_rows(a: np.ndarray, K: int) -> np.ndarray:
    """series_exp of each row of a 2-d stack, truncated at order K.

    The same recurrence, with the same treatment of a subnormal exp(a_0),
    run on all rows at once, one k at a time: O(K) numpy calls for the
    whole stack, where series_exp pays its block set-up per row.  Row i
    has the bits of the call on row i alone (a one-row stack); they agree
    with series_exp(a[i], K) to relative rounding, not bit for bit.
    """
    a = trim(a, K)
    i = np.arange(K + 1)
    e = np.empty(a.shape)
    e[:, 0] = np.exp(a[:, 0])
    low = ~(e[:, 0] >= sys.float_info.min)
    t = np.ones(a.shape[0])
    if K > 0 and low.any():
        t[low] = EXP_SCALE_SUM / np.maximum(a[low, 1:].sum(axis=1), EXP_SCALE_SUM)
        e[low, 0] = 1.0
    c = i[1:] * a[:, 1:] * t[:, None] ** i[1:]  # c[:, j] is (j+1) a_{j+1} t^(j+1)
    for k in range(1, K + 1):
        e[:, k] = np.einsum("ij,ij->i", c[:, :k], e[:, k - 1 :: -1]) / k
    if K > 0 and low.any():
        with np.errstate(divide="ignore"):
            e[low] = np.exp(a[low, :1] + np.log(e[low]) - i * np.log(t[low])[:, None])
    return e


def identity_series(K: int) -> np.ndarray:
    """The series of s itself."""
    out = np.zeros(K + 1)
    if K >= 1:
        out[1] = 1.0
    return out
