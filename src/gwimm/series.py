"""Truncated power-series arithmetic on numpy coefficient vectors.

A series is a 1-d float array ``a`` with ``a[j]`` the coefficient of s**j.
All operations truncate at a caller-supplied order ``K`` (inclusive), i.e.
they work in the ring R[s]/(s**(K+1)).  Truncation is exact for coefficient
extraction: the coefficient of s**j in a product depends only on inputs of
index <= j, so low-order coefficients are never corrupted by the cutoff.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as sp_fft
from scipy.linalg.blas import dtrsv

# Above this truncation order, products go through FFT instead of the
# schoolbook convolution.  Both paths must agree to 1e-12 (tested).
DIRECT_CONV_MAX = 512

# Coefficients series_exp solves for at once.  Cost stays O(K**2) for any
# block size; of 32..256, 64 timed best or near-best from K = 8 to 6144.
EXP_BLOCK = 64
# r - c below the diagonal, 0 on and above it: the block's Toeplitz index
_EXP_DIFF = np.subtract.outer(np.arange(EXP_BLOCK), np.arange(EXP_BLOCK)).clip(0)


def trim(a: np.ndarray, K: int) -> np.ndarray:
    """Truncate (or zero-pad) ``a`` to exactly K+1 coefficients."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] >= K + 1:
        return a[: K + 1]
    out = np.zeros(K + 1)
    out[: a.shape[0]] = a
    return out


def _split(a: np.ndarray, bits: int):
    """(u, hi, lo) with a = u * hi + lo exactly: u a power of two, hi
    integers of modulus at most 2**bits, |lo| <= u / 2."""
    top = float(np.max(np.abs(a)))
    u = math.ldexp(1.0, max(math.frexp(top)[1] - bits, -1000))
    hi = np.rint(a / u)
    return u, hi, a - hi * u


def _fft_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full product a * b by FFT, with each input split as in _split.

    A floating-point FFT convolution errs by up to about
    10 log2(size) eps ||a||_2 ||b||_2 in every coefficient (Percival,
    Math. Comp. 72, 2003).  With `bits` chosen so that bound stays below
    1/4 for the integer parts, their product is exact after rounding; the
    rest carries a factor 2**-bits, so the error falls from
    ~ eps * len * max|a| max|b| to ~ 2**-bits of that.  Six transforms
    for a product, four for a square (b is a), instead of three and two.
    """
    n = a.shape[0] + b.shape[0] - 1
    size = sp_fft.next_fast_len(n, real=True)
    bound = 10.0 * math.log2(size) * math.sqrt(a.shape[0] * b.shape[0])
    bits = int((51.0 - math.log2(bound)) // 2)
    ua, ha, la = _split(a, bits)
    fha, fla = sp_fft.rfft(ha, size), sp_fft.rfft(la, size)
    if b is a:
        ub, fhb, flb = ua, fha, fla
    else:
        ub, hb, lb = _split(b, bits)
        fhb, flb = sp_fft.rfft(hb, size), sp_fft.rfft(lb, size)
    exact = np.rint(sp_fft.irfft(fha * fhb, size)[:n]) * (ua * ub)
    rest = sp_fft.irfft(ua * fha * flb + ub * fla * fhb + fla * flb, size)[:n]
    return exact + rest


def series_mul(a: np.ndarray, b: np.ndarray, K: int) -> np.ndarray:
    """Product of two series, truncated at order K."""
    a = np.asarray(a, dtype=float)[: K + 1]
    b = np.asarray(b, dtype=float)[: K + 1]
    if K <= DIRECT_CONV_MAX:
        return trim(np.convolve(a, b), K)
    return trim(_fft_product(a, b), K)


def series_mul_direct(a: np.ndarray, b: np.ndarray, K: int) -> np.ndarray:
    """Schoolbook product regardless of K; cross-check for the FFT path.

    Inputs are split as in _split, with integer parts small enough that
    their convolution sums exactly; the rest carries a factor 2**-bits.
    So each coefficient is within about half an ulp of the true one,
    where a plain running sum drifts by up to len * eps * max|a| max|b|.
    """
    a = np.asarray(a, float)[: K + 1]
    b = np.asarray(b, float)[: K + 1]
    bits = int((52.0 - math.log2(min(a.shape[0], b.shape[0]))) // 2)
    ua, ha, la = _split(a, bits)
    ub, hb, lb = _split(b, bits)
    exact = np.convolve(ha, hb) * (ua * ub)
    rest = ua * np.convolve(ha, lb) + ub * np.convolve(la, hb) + np.convolve(la, lb)
    return trim(exact + rest, K)


def series_square(a: np.ndarray, K: int) -> np.ndarray:
    """a**2 truncated at order K (half the transforms on the FFT path)."""
    a = np.asarray(a, dtype=float)[: K + 1]
    if K <= DIRECT_CONV_MAX:
        return trim(np.convolve(a, a), K)
    return trim(_fft_product(a, a), K)


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

    Newton iteration x <- x*(2 - a*x), doubling the number of correct
    coefficients each step.
    """
    a = trim(a, K)
    if a[0] == 0.0:
        raise ValueError("series reciprocal needs a nonzero constant term")
    x = np.array([1.0 / a[0]])
    order = 0
    while order < K:
        order = min(2 * order + 1, K)
        ax = series_mul(a[: order + 1], x, order)
        ax = -ax
        ax[0] += 2.0
        x = series_mul(x, ax, order)
    return trim(x, K)


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


def series_exp(a: np.ndarray, K: int) -> np.ndarray:
    """exp(a) truncated at order K, for a series with a[1:] >= 0.

    Exact recurrence e_0 = exp(a_0), k e_k = sum_{i=1..k} i a_i e_{k-i}.
    With a[1:] nonnegative every term is nonnegative, so each coefficient
    keeps its relative accuracy however small it is.  Coefficients are
    found EXP_BLOCK at a time: the history e_0..e_{k0-1} enters through
    one correlation, the block itself through one triangular solve whose
    off-diagonal entries are -i a_i, so forward substitution only adds
    nonnegative terms too.  O(K**2) flops, O(K) memory.
    """
    a = np.asarray(a, dtype=float)[: K + 1]
    e = np.zeros(K + 1)
    e[0] = math.exp(a[0])
    b = min(EXP_BLOCK, K)
    if b == 0:
        return e
    ia = np.zeros(K + b + 1)  # zero tail: the last block may run past K
    ia[: a.shape[0]] = np.arange(a.shape[0]) * a
    # (diag(k0..k0+b-1) - T) e[k0:k0+b] = history, T[r, c] = ia[r - c]
    neg = -ia[:b]
    neg[0] = 0.0
    tri = np.asfortranarray(neg[_EXP_DIFF[:b, :b]])
    diag = np.arange(b)
    for k0 in range(1, K + 1, b):
        history = np.correlate(ia[1 : k0 + b], e[k0 - 1 :: -1], "valid")
        tri[diag, diag] = diag + k0
        m = min(b, K + 1 - k0)
        e[k0 : k0 + m] = dtrsv(tri, history, lower=1)[:m]
    return e


def identity_series(K: int) -> np.ndarray:
    """The series of s itself."""
    out = np.zeros(K + 1)
    if K >= 1:
        out[1] = 1.0
    return out
