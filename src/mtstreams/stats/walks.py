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

``walk_statistics`` reads the walks a byte of 8 steps at a time. Three
256-entry tables, built once at import, give each byte's net step, its
highest prefix level and, for each entry level in [-9, 9], how many of its
prefixes end at 0. A cumulative sum of the net steps gives each byte's entry
level, so M is the largest entry level plus highest prefix, and R sums the
zero counts at each byte's entry level clipped to [-9, 9]. H is
(S_l + l) / 2. Packing pads each walk with pad = -l % 8 zero bits, that is,
pad falling steps after S_l. They raise no maximum, move the last level to
S_l - pad, and pass 0 exactly once when 1 <= S_l <= pad, a return that R
then subtracts.
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


# A byte moves at most 8 levels, so from an entry level beyond +-8 it never
# reaches 0, and +-9 stands for all of those levels. Clipping to +-8 would
# count a false 0 for a byte that falls 8 levels from 10.
_REACH = 9


def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each byte b, read MSB first as 8 steps: its net step, its highest
    prefix level, and how many of its prefixes end at 0 when it enters at
    level e in [-_REACH, _REACH], the last flattened at (e + _REACH) * 256 + b.
    """
    steps = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    prefix = np.cumsum(steps.astype(np.int8) * 2 - 1, axis=1, dtype=np.int8)
    entry = np.arange(-_REACH, _REACH + 1, dtype=np.int8)
    zeros = np.count_nonzero(entry[:, None, None] + prefix == 0, axis=2)
    return prefix[:, -1].copy(), prefix.max(axis=1), zeros.astype(np.int8).ravel()


_DELTA, _MAXPREF, _ZEROS = _byte_tables()


def walk_statistics(bits: np.ndarray, walks: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-walk H, M, R for a (walks * steps)-bit array of 0/1 values.

    Each walk is packed 8 steps to a byte and read through the byte tables
    (see the module docstring). Partial sums are int16, which holds every
    level down to -(steps + pad).
    """
    if steps > _INT16_MAX:
        raise ValueError(f"steps must be <= {_INT16_MAX} for int16 partial sums, got {steps}")
    pad = -steps % 8
    packed = np.packbits(bits.reshape(walks, steps), axis=1)
    delta = _DELTA[packed]
    entry = np.cumsum(delta, axis=1, dtype=np.int16)
    s_l = entry[:, -1].astype(np.int64) + pad
    entry -= delta
    h = (s_l + steps) // 2
    m = np.maximum((entry + _MAXPREF[packed]).max(axis=1), 0).astype(np.int64)
    np.clip(entry, -_REACH, _REACH, out=entry)
    entry += _REACH
    entry <<= 8
    entry |= packed
    r = _ZEROS[entry].sum(axis=1, dtype=np.int64) - ((1 <= s_l) & (s_l <= pad))
    return h, m, r
