"""Berlekamp-Massey and the shortest-LFSR length null distribution."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mtstreams.mt19937 import init_genrand
from mtstreams.stats.complexity import _TRIM, berlekamp_massey, linear_complexity_pvalue
from mtstreams.stats.stream import Mode, StreamView

from support import SplitMix32, bit_by_bit_bm, complexity_count, textbook_bm


def test_all_zero_sequence_has_complexity_zero():
    assert berlekamp_massey(np.zeros(64, dtype=np.uint8)) == 0


def test_trailing_one_needs_full_register():
    for n in (1, 5, 33, 100):
        bits = np.zeros(n, dtype=np.uint8)
        bits[-1] = 1
        assert berlekamp_massey(bits) == n


def test_alternating_sequence_has_complexity_two():
    bits = np.tile([1, 0], 32).astype(np.uint8)
    assert berlekamp_massey(bits) == 2


def test_rejects_non_binary_values():
    with pytest.raises(ValueError):
        berlekamp_massey(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        berlekamp_massey(np.array([], dtype=np.uint8))


def test_matches_textbook_formulation_on_random_sequences():
    rng = np.random.default_rng(555)
    for _ in range(60):
        n = int(rng.integers(1, 120))
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        assert berlekamp_massey(bits) == textbook_bm(bits.tolist())


def _lfsr_sequence(rng, length: int, n: int) -> np.ndarray:
    """n bits of a random LFSR of the given length: complexity <= length,
    and every discrepancy after position 2 * length is zero."""
    taps = rng.integers(0, 2, size=length).astype(np.uint8)
    taps[-1] = 1
    bits = np.zeros(n, dtype=np.uint8)
    bits[:length] = rng.integers(0, 2, size=length)
    for i in range(length, n):
        bits[i] = np.bitwise_and(taps, bits[i - length : i][::-1]).sum() & 1
    return bits


def _past_the_window(rng, n: int) -> list[np.ndarray]:
    """Two random sequences, then three kinds whose discrepancies can have
    zero runs longer than the 256-bit search window: sparse sequences, LFSR
    output and random prefixes followed by all-zero tails."""
    cases = [rng.integers(0, 2, size=n).astype(np.uint8) for _ in range(2)]
    sparse = np.zeros(n, dtype=np.uint8)
    sparse[np.sort(rng.choice(n, size=3, replace=False))] = 1
    cases.append(sparse)
    gaps = np.zeros(n, dtype=np.uint8)
    gaps[::300] = 1
    cases.append(gaps)
    cases.append(_lfsr_sequence(rng, 64, n))
    for prefix in (40, 150):
        tail = np.zeros(n, dtype=np.uint8)
        tail[:prefix] = rng.integers(0, 2, size=prefix)
        cases.append(tail)
    return cases


def test_matches_textbook_formulation_past_the_search_window():
    rng = np.random.default_rng(8128)
    for n in (300, 450, 600):
        for bits in _past_the_window(rng, n):
            expected = textbook_bm(bits.tolist())
            assert berlekamp_massey(bits) == bit_by_bit_bm(bits) == expected, n


def test_matches_bit_by_bit_loop_on_long_sequences():
    rng = np.random.default_rng(1969)
    for n in (_TRIM - 1, _TRIM + 1, 5000, 50000):
        for bits in _past_the_window(rng, n):
            assert berlekamp_massey(bits) == bit_by_bit_bm(bits), n


def test_single_one_needs_a_register_reaching_it():
    # k zeros then a 1: no register shorter than k + 1 makes it, and one of
    # length k + 1 with zero feedback does, whatever follows.
    # The positions around a trim of the bits past the sequence's end.
    for position in (255, 256, 257, 1000, _TRIM - 1, _TRIM, _TRIM + 1, 2 * _TRIM):
        for n in (position + 1, position + 2, 3 * _TRIM):
            bits = np.zeros(n, dtype=np.uint8)
            bits[position] = 1
            oracle = textbook_bm(bits.tolist()) if n <= 600 else bit_by_bit_bm(bits)
            assert berlekamp_massey(bits) == oracle == position + 1, (position, n)


def test_complexity_census_matches_exhaustive_enumeration_n10():
    n = 10
    census = {l: 0 for l in range(n + 1)}
    for value in range(1 << n):
        bits = np.array([(value >> i) & 1 for i in range(n)], dtype=np.uint8)
        census[berlekamp_massey(bits)] += 1
    for l in range(n + 1):
        assert census[l] == complexity_count(l, n), l
    assert sum(census.values()) == 1 << n


def test_complexity_count_boundaries():
    assert complexity_count(0, 8) == 1
    assert complexity_count(1, 8) == 2
    assert complexity_count(8, 8) == 1
    assert sum(complexity_count(l, 16) for l in range(17)) == 1 << 16


def test_mt_bit_lane_saturates_at_19937():
    for bit_offset in (0, 29):  # the lanes of linearcomp.r0 and linearcomp.r29
        bits = StreamView(init_genrand(0), Mode.INT).take_word_bits(50000, bit_offset)
        assert berlekamp_massey(bits) == bit_by_bit_bm(bits) == 19937, bit_offset


def test_mt_short_sample_looks_random():
    # Below the cap the complexity of an MT lane behaves like n/2.
    view = StreamView(init_genrand(0), Mode.INT)
    bits = view.take_word_bits(2000, 0)
    length = berlekamp_massey(bits)
    assert abs(length - 1000) <= 3
    assert linear_complexity_pvalue(length, 2000) > 1e-10


def test_nonlinear_control_passes():
    bits = (SplitMix32(1).take(3000) >> 31).astype(np.uint8)
    length = berlekamp_massey(bits)
    assert abs(length - 1500) <= 3
    assert linear_complexity_pvalue(length, 3000) > 1e-10


def test_pvalue_is_exact_fraction_arithmetic():
    # n = 4: counts are 1, 2, 8, 4, 1 for l = 0..4.
    n = 4
    counts = [complexity_count(l, n) for l in range(n + 1)]
    assert counts == [1, 2, 8, 4, 1]
    # P(L <= 2) = 11/16 and P(L >= 2) = 13/16; the smaller tail wins.
    assert linear_complexity_pvalue(2, n) == 11 / 16
    # P(L <= 1) = 3/16 and P(L >= 1) = 15/16.
    assert linear_complexity_pvalue(1, n) == 3 / 16
    # P(L <= 0) = 1/16 on the low side, exact dyadic in binary64.
    assert linear_complexity_pvalue(0, n) == 1 / 16


@pytest.mark.parametrize("n", [1000, 50000])
def test_pvalue_equals_the_rounded_fraction(n):
    # Both tails, the centre, the 1e-10 verdict bounds, a saturated MT lane
    # (19937 of 50000) and a tail deep enough to underflow to 0.0.
    half = n // 2
    lengths = {0, 1, 2, half - 40, half - 18, half - 1, half, half + 1, half + 18, half + 40,
               n - 2, n - 1, n}
    lengths |= {19937, 24000} if n == 50000 else {100, 900}
    total = 1 << n
    below = 0  # number of sequences with complexity < l
    underflows = 0
    for l in range(n + 1):
        if l in lengths:
            at_or_below = below + complexity_count(l, n)
            expected = min(float(Fraction(at_or_below, total)), float(Fraction(total - below, total)))
            assert linear_complexity_pvalue(l, n) == expected, (l, n)
            underflows += expected == 0.0
        below += complexity_count(l, n)
    # 2^-1000 is still a normal binary64; at n = 50000 the eight tail
    # lengths at least 1000 from the centre underflow.
    assert underflows == (8 if n == 50000 else 0)


def test_pvalue_median_is_not_significant():
    for n in (100, 1000, 50000):
        assert linear_complexity_pvalue(n // 2, n) > 0.1, n


def test_pvalue_never_reaches_the_too_good_bound():
    # The smaller tail is capped near (1 + max pmf) / 2 = 3/4, so the upper
    # verdict bound 1 - eps is unreachable for every (l, n).
    for n in (4, 10, 17, 64):
        for l in range(n + 1):
            assert linear_complexity_pvalue(l, n) <= 0.8, (l, n)


def test_pvalue_saturation_underflows():
    assert linear_complexity_pvalue(19937, 50000) == 0.0


def test_pvalue_rejects_out_of_range_lengths():
    with pytest.raises(ValueError):
        linear_complexity_pvalue(-1, 10)
    with pytest.raises(ValueError):
        linear_complexity_pvalue(11, 10)


def test_exhaustive_small_lengths_match_closed_form():
    for n in range(1, 9):
        census = {l: 0 for l in range(n + 1)}
        for bits in itertools.product((0, 1), repeat=n):
            census[berlekamp_massey(np.array(bits, dtype=np.uint8))] += 1
        for l in range(n + 1):
            assert census[l] == complexity_count(l, n), (n, l)
