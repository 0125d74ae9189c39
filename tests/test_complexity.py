"""Berlekamp-Massey and the shortest-LFSR length null distribution."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

import mtstreams.stats.complexity as complexity
from mtstreams.campaign import run_battery_on_status
from mtstreams.mt19937 import N, PHI_EXPONENTS, MtState, MtStream, init_genrand
from mtstreams.partition import generate_indexed, generate_random_spacing, generate_sequence_splitting
from mtstreams.stats.battery import MINI_CRUSH_V1
from mtstreams.stats.complexity import _TRIM, berlekamp_massey, linear_complexity_pvalue

from support import bit_by_bit_bm, bit_lane, complexity_count, connection_polynomial_bm, splitmix32_words, textbook_bm

PHI_DEGREE = 19937


def _lane(state: MtState, bit_offset: int, n: int = 50000) -> np.ndarray:
    """Bit ``bit_offset`` (0 is the MSB) of each of the status's first n words."""
    return bit_lane(MtStream(state).take(n), bit_offset)


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
        bits = _lane(init_genrand(0), bit_offset)
        assert berlekamp_massey(bits) == bit_by_bit_bm(bits) == 19937, bit_offset


def test_mt_short_sample_looks_random():
    # Below the cap the complexity of an MT lane behaves like n/2.
    bits = _lane(init_genrand(0), 0, 2000)
    length = berlekamp_massey(bits)
    assert abs(length - 1000) <= 3
    assert linear_complexity_pvalue(length, 2000) > 1e-10


def test_nonlinear_control_passes():
    bits = (splitmix32_words(1, 3000) >> 31).astype(np.uint8)
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


def _technique_statuses() -> list[MtState]:
    """One status from each gen technique."""
    return [
        generate_indexed(7, 1).statuses[0],
        generate_random_spacing(8, 1).statuses[0],
        generate_sequence_splitting(9, 1000, 2).statuses[1],
    ]


def _random_status(seed: int, mti: int) -> MtState:
    """A hand-made status: random words at the given index."""
    return MtState(np.random.default_rng(seed).integers(0, 2**32, N, dtype=np.uint32), mti)


def _no_massey(arr):
    raise AssertionError("Berlekamp-Massey's loop ran")


@pytest.fixture
def massey_calls(monkeypatch):
    """The sizes of the arrays that reach Berlekamp-Massey's loop."""
    calls = []
    loop = complexity._massey

    def spy(arr):
        calls.append(arr.size)
        return loop(arr)

    monkeypatch.setattr(complexity, "_massey", spy)
    return calls


def test_phi_is_the_reciprocal_of_an_mt_lane_connection_polynomial():
    bits = _lane(init_genrand(5489), 0, 2 * PHI_DEGREE + 64)
    length, connection = connection_polynomial_bm(bits)
    assert length == PHI_DEGREE
    exponents = sorted(length - j for j in range(connection.bit_length()) if connection >> j & 1)
    assert tuple(exponents) == PHI_EXPONENTS
    assert len(PHI_EXPONENTS) == 135


@pytest.mark.parametrize("bit_offset", [0, 29, 31])
def test_certificate_equals_berlekamp_massey_on_mt_lanes(bit_offset, monkeypatch):
    # Statuses from every technique, and hand-made ones at mti 1, 623 and
    # 624: from the second word of a status on, every lane obeys phi.
    statuses = _technique_statuses() + [_random_status(mti, mti) for mti in (1, 623, 624)]
    lanes = [_lane(state, bit_offset) for state in statuses]
    expected = [bit_by_bit_bm(bits) for bits in lanes]
    monkeypatch.setattr(complexity, "_massey", _no_massey)
    assert [berlekamp_massey(bits) for bits in lanes] == expected == [PHI_DEGREE] * len(lanes)


def test_status_at_mti_0_breaking_phi_gets_berlekamp_massey(massey_calls):
    # The first word's low 31 bits lie outside the state, so some lanes
    # break phi's recurrence at k = 0 and must run the loop.
    state = _random_status(31, 0)
    broken = []
    for bit_offset in range(32):
        bits = _lane(state, bit_offset)
        if bits[PHI_DEGREE] != np.bitwise_xor.reduce(bits[list(PHI_EXPONENTS[:-1])]):
            broken.append(bits)
    assert 1 <= len(broken) < 32
    for bits in broken[:3]:
        assert berlekamp_massey(bits) == bit_by_bit_bm(bits)
    assert massey_calls == [50000] * min(3, len(broken))


def test_phi_sequence_with_its_last_bit_flipped_gets_berlekamp_massey(massey_calls):
    bits = _lane(init_genrand(0), 0)
    bits[-1] ^= 1
    assert berlekamp_massey(bits) == bit_by_bit_bm(bits) == 50000 - PHI_DEGREE
    assert massey_calls == [50000]


@pytest.mark.parametrize("n", [2 * PHI_DEGREE - 1, 2 * PHI_DEGREE - 100, 30000])
def test_phi_sequences_shorter_than_the_bound_get_berlekamp_massey(n, massey_calls):
    bits = _lane(init_genrand(0), 29, n)
    expected = bit_by_bit_bm(bits)
    assert berlekamp_massey(bits) == expected
    assert massey_calls == [n]
    # From 2 * 19937 - 1 bits on no shorter register fits a phi-sequence;
    # below that a lane looks random, with a complexity near n / 2.
    if n == 2 * PHI_DEGREE - 1:
        assert expected == PHI_DEGREE
    else:
        assert expected < PHI_DEGREE


@pytest.mark.parametrize("n", [2 * PHI_DEGREE, 50000])
def test_all_zero_phi_sequence_has_complexity_zero(n, monkeypatch):
    monkeypatch.setattr(complexity, "_massey", _no_massey)
    assert berlekamp_massey(np.zeros(n, dtype=np.uint8)) == 0


def test_builtin_battery_never_runs_the_loop_on_gen_statuses(monkeypatch):
    monkeypatch.setattr(complexity, "_massey", _no_massey)
    for state in _technique_statuses():
        results = run_battery_on_status(state, ("int",), MINI_CRUSH_V1, MINI_CRUSH_V1.threshold)
        found = {}
        for r in results:
            if r.entry.family == "LinearComp":
                n_bits, bit_offset = r.entry.params["n_bits"], r.entry.params["bit_offset"]
                found[r.test_id] = berlekamp_massey(_lane(state, bit_offset, n_bits))
                assert r.p_values == {"saturation": linear_complexity_pvalue(found[r.test_id], n_bits)}
        assert found == {"linearcomp.r0": PHI_DEGREE, "linearcomp.r29": PHI_DEGREE}
