"""Truncated power-series arithmetic on numpy coefficient vectors.

A series is a 1-d float array ``a`` with ``a[j]`` the coefficient of s**j.
All operations truncate at a caller-supplied order ``K`` (inclusive), i.e.
they work in the ring R[s]/(s**(K+1)).  Truncation is exact for coefficient
extraction: the coefficient of s**j in a product depends only on inputs of
index <= j, so low-order coefficients are never corrupted by the cutoff.
Products are np.convolve; exp and reciprocal share one forward recurrence,
run on a stack of series one coefficient at a time.
"""

from __future__ import annotations

import sys

import numpy as np

# Above this truncation order, full laws of closed-form models are read off
# a circle (pgf.py); every product here is np.convolve at every order.
DIRECT_CONV_MAX = 512

# series_exp with a subnormal exp(a_0) scales a[1:] to sum to at most this,
# so the coefficients of exp(a - a_0), which are below exp(sum a[1:]), stay
# finite
EXP_SCALE_SUM = 512.0


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
            base = series_mul(base, base, K)
    return result


def series_recip(a: np.ndarray, K: int) -> np.ndarray:
    """1/a truncated at order K, of one series or of each row of a stack.
    Requires a[..., 0] != 0.

    Recurrence x_0 = 1/a_0, a_0 x_k = sum_{i=1..k} (-a_i) x_{k-i}: for
    1/(2 - g) with g a pgf every term is nonnegative.  A stack runs
    through one recurrence (_forward_rows), and each row has the bits of
    the call on that row alone.
    """
    a = trim(a, K)
    if np.any(a[..., 0] == 0.0):
        raise ValueError("series reciprocal needs a nonzero constant term")
    rows = np.atleast_2d(a)
    e = np.empty(rows.shape)
    e[:, 0] = 1.0 / rows[:, 0]
    _forward_rows(-rows, rows[:, :1], e)
    return e if a.ndim == 2 else e[0]


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


def _forward_rows(c: np.ndarray, d, e: np.ndarray) -> np.ndarray:
    """Fill e[:, 1:] by d_k e[:, k] = sum_{i=1..k} c[:, i] e[:, k-i], from
    the given column e[:, 0], for every row of the stack at once.

    ``c`` has e's shape (c[:, 0] is not read); ``d`` broadcasts to it.
    One k at a time over all rows: O(K) numpy calls for the whole stack,
    O(K**2) flops per row.  Each row's dot products see only that row, so
    a row has the bits of a one-row call.  With c[:, 1:] >= 0 and d > 0
    every term is nonnegative, so each coefficient keeps its relative
    accuracy however small it is.
    """
    n = e.shape[1]
    c = c[:, 1:, None]
    d = np.broadcast_to(d, e.shape).T  # d[k]: the divisors of coefficient k
    back = e[:, None, ::-1]  # back[..., n - k:] is e_{k-1}, ..., e_0
    col = e.T
    for k in range(1, n):
        # one batched (1, k) @ (k, 1) product per row, into column k
        np.divide(np.matmul(back[..., n - k :], c[:, :k])[:, 0, 0], d[k], out=col[k])
    return e


def series_exp(a: np.ndarray, K: int) -> np.ndarray:
    """exp(a) truncated at order K, for a series with a[1:] >= 0: the
    one-row case of series_exp_rows, with its bits.

    Exact recurrence e_0 = exp(a_0), k e_k = sum_{i=1..k} i a_i e_{k-i},
    whose terms are all nonnegative when a[1:] is.  Every e_k is e_0
    times a polynomial in a[1:], so when exp(a_0) is not a normal float
    the constant stays out of the recurrence: it runs from e_0 = 1 on
    a[1:] scaled to sum to at most EXP_SCALE_SUM (a_i t^i, so no e_k
    overflows), and coefficient k is exp(a_0 + log e_k - k log t).  A
    coefficient then underflows only where its own value does; it loses
    about |a_0| ulps, as exp of a rounded a_0 does.
    """
    return series_exp_rows(np.asarray(a, dtype=float)[None, : K + 1], K)[0]


def series_exp_rows(a: np.ndarray, K: int) -> np.ndarray:
    """series_exp of each row of a 2-d stack, truncated at order K.

    The recurrence of series_exp, with the same treatment of a subnormal
    exp(a_0), run on all rows at once by _forward_rows; row i has the
    bits of series_exp(a[i], K).
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
    _forward_rows(i * a * t[:, None] ** i, i, e)  # c_i = i a_i t^i
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
