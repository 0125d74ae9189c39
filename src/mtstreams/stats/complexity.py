"""Berlekamp-Massey linear complexity and its exact null distribution.

The complexity of a bit sequence is the length of the shortest linear
feedback shift register over GF(2) that generates it. For uniform random
bits of length n the distribution of that length is known exactly:

    count(0) = 1
    count(l) = 2^min(2l - 1, 2(n - l))   for 1 <= l <= n

with probabilities count(l) / 2^n. The mass concentrates geometrically
around n/2, which is what the saturation test exploits: any output bit of
a generator whose state evolves linearly over GF(2) has complexity capped
at the state dimension.

For MT19937 that cap is reached and proved without running Berlekamp-
Massey. :func:`berlekamp_massey` first checks whether the n bits obey the
recurrence of phi, MT19937's degree-19937 characteristic polynomial
(``mt19937.PHI_EXPONENTS``); when n >= 2 * 19937 and they do, the
complexity is 19937, or 0 for all-zero bits. Proof: by Massey's
uniqueness lemma, two LFSRs of lengths L1 and L2 that generate the same
n >= L1 + L2 bits generate the same infinite sequence, so an LFSR shorter
than 19937 would generate the whole phi-sequence. That sequence would then
be annihilated both by phi and by a polynomial of lower degree, hence by
their greatest common divisor, which is 1 because phi is irreducible: only
the zero sequence qualifies. The loop still runs on sequences shorter than
2 * 19937 bits and on sequences that break the recurrence, such as a
nonlinear generator's bits or those of a status at mti = 0 that no twist
made.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from mtstreams.mt19937 import PHI_EXPONENTS

# The degree of phi, MT19937's state dimension.
_PHI_DEGREE = PHI_EXPONENTS[-1]

# Bits of the discrepancy integer searched before falling back to a search
# of the whole integer: the next discrepancy is usually this close.
_WINDOW = (1 << 256) - 1
# Positions between two trims of the bits past the sequence's end.
_TRIM = 1024


def berlekamp_massey(bits: Sequence[int] | np.ndarray) -> int:
    """Linear complexity of a 0/1 sequence (Massey 1969).

    Exact for every input. Bits that obey phi's recurrence over at least
    2 * 19937 positions are answered by that certificate (see the module
    docstring); all others run :func:`_massey`.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size < 1:
        raise ValueError("need at least one bit")
    if arr.max(initial=0) > 1:
        raise ValueError("sequence must contain only 0 and 1")
    if arr.size >= 2 * _PHI_DEGREE and _obeys_phi(arr):
        return _PHI_DEGREE if arr.any() else 0
    return _massey(arr)


def _obeys_phi(arr: np.ndarray) -> bool:
    """Whether arr[k + 19937] is the XOR of arr[k + e] over phi's other
    exponents e, for every k that keeps k + 19937 inside arr."""
    span = arr.size - _PHI_DEGREE
    acc = arr[_PHI_DEGREE:].copy()
    for e in PHI_EXPONENTS[:-1]:
        acc ^= arr[e : e + span]
    return not acc.any()


def _massey(arr: np.ndarray) -> int:
    """Berlekamp-Massey on packed integers, for a non-empty 0/1 uint8 array.

    ``sc`` holds the discrepancies still to come, bit 0 being the position
    after the last discrepancy ``i``; ``sb`` is the sequence kept from the
    last length change. A discrepancy costs one shift and one XOR of these
    n-bit integers. The loop relies on one invariant: every bit of ``sc``
    below the next discrepancy is zero, so that discrepancy is the lowest
    set bit of ``sc``. It is found in a 256-bit window of ``sc``, or in the
    whole integer when the window is empty, which skips a run of zero
    discrepancies of any length at once. Bits at or past position n belong
    to no element of the sequence, so the loop stops there, or when ``sc``
    is 0: for an LFSR sequence of complexity L every discrepancy after
    position 2L is zero, and the rest costs one search.

    Bit j of ``sc``, and of ``sb`` once XORed into it, stands for position
    i + 1 + j. Shifts and XORs never move a bit to a lower position, so the
    bits at or past position n never reach a live one. Every ``_TRIM``
    positions both integers drop them, keeping their low n - i - 1 bits:
    the integers shrink with the positions still to come.
    """
    n = arr.size
    # Pack so that bit i of the integer is the i-th sequence element.
    s = int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")
    sb = s
    sc = s
    deg_c = 0
    i = -1
    trim_at = _TRIM
    while sc:
        low = sc & _WINDOW or sc  # the whole of sc only when the window is empty
        step = (low & -low).bit_length()
        i += step
        if i >= n:
            break
        sc >>= step
        if i >= trim_at:
            live = (1 << (n - i - 1)) - 1
            sc &= live
            sb &= live
            trim_at = i + _TRIM
        if 2 * deg_c <= i:
            sb, sc = sc, sb
            deg_c = i + 1 - deg_c
        sc ^= sb
    return deg_c


def _count_le(l: int, n: int) -> int:
    """Number of length-n sequences with complexity <= l (exact)."""
    if l < 0:
        return 0
    if l >= n:
        return 1 << n
    if l <= n // 2:
        return (2 * (1 << (2 * l)) + 1) // 3
    return (1 << n) - (((1 << (2 * (n - l))) - 1) // 3)


def linear_complexity_pvalue(l: int, n: int) -> float:
    """Two-sided saturation p-value of observing complexity l at length n.

    p = min(P(L <= l), P(L >= l)), the smaller exact tail of the null
    distribution, correctly rounded to binary64 (underflow to 0.0 for
    deviations far beyond the geometric concentration around n/2). The
    undoubled convention is deliberate: the null has an atom of mass 1/2
    at l = n/2, so the doubled tail saturates at exactly 1.0 for the most
    typical outcome and would trip the too-good side of the verdict rule.
    The smaller tail never exceeds (1 + max pmf) / 2, so only genuine
    deviations can reach either verdict bound.
    """
    if not 0 <= l <= n:
        raise ValueError(f"complexity must be in [0, {n}], got {l}")
    denom = 1 << n
    # Integer true division is correctly rounded.
    p_left = _count_le(l, n) / denom
    p_right = (denom - _count_le(l - 1, n)) / denom
    return min(p_left, p_right)
