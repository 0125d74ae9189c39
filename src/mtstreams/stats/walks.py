"""Exact null distributions of random-walk statistics.

A walk of even length l maps bits to +-1 steps with partial sums
S_0 = 0, ..., S_l. The tested statistics are

- H: number of +1 steps,
- M: max(0, max_j S_j) over the whole walk including S_0,
- R: number of j in [1, l] with S_j = 0.

All three laws have closed forms over the 2^l equally likely walks
(Feller, An Introduction to Probability Theory and Its Applications,
Vol. 1, ch. III; L'Ecuyer and Simard, TestU01, ACM TOMS 33(4), 2007):

- P(H = h) = C(l, h) / 2^l (binomial),
- P(M = m) = P(S_l = m) + P(S_l = m + 1) = C(l, (l + m + 1) // 2) / 2^l
  (reflection principle; only one of the two terms has the parity of l),
- P(R = r) = C(l - r, l/2) * 2^r / 2^l.

Numerators are exact integers, each law one linear pass of a multiplicative
recurrence over the binomial row, and each probability is rounded once to
the nearest binary64 by integer true division. Distributions are cached per
l.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

_INT16_MAX = np.iinfo(np.int16).max


def _check_steps(l: int) -> None:
    if l < 2 or l % 2:
        raise ValueError(f"walk length must be even and >= 2, got {l}")


def _law(counts: list[int], l: int) -> np.ndarray:
    """Frozen array of counts[i] / 2^l, each correctly rounded."""
    total = 1 << l
    arr = np.array([c / total for c in counts])
    arr.flags.writeable = False
    return arr


def _binomial_row(l: int) -> list[int]:
    """C(l, k) for k = 0..l, by C(l, k + 1) = C(l, k) * (l - k) / (k + 1)."""
    row = [1]
    for k in range(l):
        row.append(row[-1] * (l - k) // (k + 1))
    return row


@lru_cache(maxsize=None)
def h_null(l: int) -> np.ndarray:
    """P(H = h) for h = 0..l."""
    _check_steps(l)
    return _law(_binomial_row(l), l)


@lru_cache(maxsize=None)
def m_null(l: int) -> np.ndarray:
    """P(M = m) for m = 0..l."""
    _check_steps(l)
    row = _binomial_row(l)
    return _law([row[(l + m + 1) // 2] for m in range(l + 1)], l)


@lru_cache(maxsize=None)
def r_null(l: int) -> np.ndarray:
    """P(R = r) for r = 0..l/2; a walk of length l returns at most l/2 times."""
    _check_steps(l)
    half = l // 2
    # C(l - r, half), from the central C(l, half) by
    # C(a - 1, half) = C(a, half) * (a - half) / a.
    c = _binomial_row(l)[half]
    counts = []
    for r in range(half + 1):
        counts.append(c << r)
        c = c * (half - r) // (l - r)
    return _law(counts, l)


def walk_statistics(bits: np.ndarray, walks: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-walk H, M, R for a (walks * steps)-bit array of 0/1 values.

    Steps are int8 and partial sums int16, which holds every |S_j| <= steps.
    """
    if steps > _INT16_MAX:
        raise ValueError(f"steps must be <= {_INT16_MAX} for int16 partial sums, got {steps}")
    b = bits.reshape(walks, steps)
    step = b.astype(np.int8)
    step *= 2
    step -= 1
    s = np.cumsum(step, axis=1, dtype=np.int16)
    h = np.count_nonzero(b, axis=1).astype(np.int64)
    m = np.maximum(s.max(axis=1), 0).astype(np.int64)
    r = np.count_nonzero(s == 0, axis=1).astype(np.int64)
    return h, m, r
