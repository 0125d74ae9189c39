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

Numerators are exact integers (H and M read one cached binomial row, R
recurs down from C(l, l/2)), each rounded once to the nearest binary64 by
integer true division. Distributions are cached per l.

``walk_statistics`` reads each walk 16 steps at a time, one 16-bit chunk
per lookup. When 16 divides l, as for both walks of ``mini-crush-v1``, a
walk's chunks are the big-endian 16-bit halves of its words; for other l
each walk is packed into chunks first. 65 536-entry tables, composed from
256-entry byte tables on first use, give each chunk's net step, its
highest prefix level and, for each even entry level in [-16, 16], how many
of its prefixes end at 0. Chunks start every 16 steps, so a walk enters
each at an even level; levels beyond +-16 share one row of zeros, since a
chunk moves at most 16 levels. Walks are read in blocks whose chunks are
laid out chunk-major, so a block's entry levels are one vector add per
chunk row. M is the largest
entry level plus highest prefix, and R sums the zero counts at each
chunk's clipped entry level. H is (S_l + l) / 2. Packing pads each walk
with pad = -l % 16 zero bits, that is, pad falling steps after S_l. They
raise no maximum, move the last level to S_l - pad, and pass 0 exactly
once when 1 <= S_l <= pad, a return that R then subtracts.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_INT16_MAX = np.iinfo(np.int16).max


def _check_steps(l: int) -> None:
    if l < 2 or l % 2:
        raise ValueError(f"walk length must be even and >= 2, got {l}")


def _law(counts: list[int] | tuple[int, ...], l: int) -> np.ndarray:
    """Frozen array of counts[i] / 2^l, each correctly rounded."""
    total = 1 << l
    arr = np.array([c / total for c in counts])
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _binomial_row(l: int) -> tuple[int, ...]:
    """C(l, k) for k = 0..l, by C(l, k + 1) = C(l, k) * (l - k) / (k + 1)."""
    row = [1]
    for k in range(l):
        row.append(row[-1] * (l - k) // (k + 1))
    return tuple(row)


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
    c = math.comb(l, half)
    counts = []
    for r in range(half + 1):
        counts.append(c << r)
        c = c * (half - r) // (l - r)
    return _law(counts, l)


# A chunk moves at most 16 levels, so from an entry level beyond +-16 it
# never reaches 0, and +-18 stands for all of those levels. A byte moves at
# most 8, and +-9 does the same for it.
_REACH = 18
_BYTE_REACH = 9
# Walks are read in blocks of about this many steps, the bits of 2^16
# words, so that a block's temporaries stay in cache.
_BLOCK_STEPS = 1 << 21


def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each byte b, read MSB first as 8 steps: its net step, its highest
    prefix level, and how many of its prefixes end at 0 when it enters at
    level e in [-_BYTE_REACH, _BYTE_REACH], at [e + _BYTE_REACH, b].
    """
    steps = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    prefix = np.cumsum(steps.astype(np.int8) * 2 - 1, axis=1, dtype=np.int8)
    entry = np.arange(-_BYTE_REACH, _BYTE_REACH + 1, dtype=np.int8)
    zeros = np.count_nonzero(entry[:, None, None] + prefix == 0, axis=2)
    return prefix[:, -1].copy(), prefix.max(axis=1), zeros.astype(np.int8)


@lru_cache(maxsize=None)
def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """The byte tables composed over 16-step chunks c = hi << 8 | lo: each
    chunk's net step and highest prefix level as the fields ``delta`` and
    ``peak`` of one record, and its zero count when it enters at even level
    e in [-_REACH, _REACH], at (e + _REACH) / 2 << 16 | c. Built on first
    use, not at import.
    """
    delta, maxpref, zeros = _byte_tables()
    chunk = np.empty((256, 256), dtype=[("delta", np.int8), ("peak", np.int8)])
    chunk["delta"] = delta[:, None] + delta[None, :]
    chunk["peak"] = np.maximum(maxpref[:, None], delta[:, None] + maxpref[None, :])
    levels = np.arange(-_REACH, _REACH + 1, 2)
    hi_entry = np.clip(levels, -_BYTE_REACH, _BYTE_REACH) + _BYTE_REACH
    lo_entry = np.clip(levels[:, None] + delta, -_BYTE_REACH, _BYTE_REACH) + _BYTE_REACH
    chunk_zeros = zeros[hi_entry][:, :, None] + zeros[lo_entry]
    return chunk.ravel(), chunk_zeros.ravel()


def walk_statistics(words: np.ndarray, walks: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-walk H, M, R of ``walks`` walks of ``steps`` steps, read from the
    bits of ceil(walks * steps / 32) uint32 words, each word MSB first.

    Each walk is cut into 16-step chunks and read through the chunk tables
    (see the module docstring). Partial sums are int16, which holds every
    level down to -(steps + pad).
    """
    if steps > _INT16_MAX:
        raise ValueError(f"steps must be <= {_INT16_MAX} for int16 partial sums, got {steps}")
    if words.size != -(-walks * steps // 32):
        raise ValueError(f"{walks} walks of {steps} steps need {-(-walks * steps // 32)} words, got {words.size}")
    chunks = -(-steps // 16)
    pad = 16 * chunks - steps
    if pad:
        bits = np.zeros((walks, 16 * chunks), dtype=np.uint8)
        bits[:, :steps] = np.unpackbits(words.astype(">u4").view(np.uint8))[: walks * steps].reshape(walks, steps)
        halves = np.packbits(bits, axis=1).view(">u2")
    else:
        halves = words.astype(">u4").view(">u2")[: walks * chunks].reshape(walks, chunks)
    hmr = np.empty((3, walks), dtype=np.int64)
    block = max(1, _BLOCK_STEPS // steps)
    for start in range(0, walks, block):
        hmr[:, start : start + block] = _block_statistics(halves[start : start + block], steps, pad)
    return hmr[0], hmr[1], hmr[2]


def _block_statistics(halves: np.ndarray, steps: int, pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H, M, R of a block of walks, one row of 16-bit chunks per walk."""
    chunk_t, zeros_t = _chunk_tables()
    # Chunk-major, so each chunk's row of all walks is contiguous, and intp,
    # so the lookups index with it as it is.
    cells = halves.T.astype(np.intp, order="C")
    chunk = np.take(chunk_t, cells)
    delta = chunk["delta"]
    entry = np.empty(cells.shape, dtype=np.int16)
    entry[0] = 0
    for c in range(1, len(entry)):
        np.add(entry[c - 1], delta[c - 1], out=entry[c])
    s_l = entry[-1].astype(np.int64) + delta[-1] + pad
    peaks = entry + chunk["peak"]
    m = np.maximum(peaks.max(axis=0), 0)
    # Entry levels are even, so (e + _REACH) << 15 is the table row << 16.
    np.clip(entry, -_REACH, _REACH, out=entry)
    entry += _REACH
    cells |= np.left_shift(entry, 15, dtype=np.intp)
    returns = np.take(zeros_t, cells).sum(axis=0, dtype=np.int16)
    return (s_l + steps) // 2, m, returns - ((1 <= s_l) & (s_l <= pad))
