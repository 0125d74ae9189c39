"""Walk statistics and their exact null laws (closed forms vs DP vs brute force)."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mtstreams.stats import walks as walks_module
from mtstreams.stats.walks import h_null, m_null, r_null, walk_statistics

from support import binomial_h_law, dp_walk_laws, reflection_m_law, returns_r_law


def _enumerate_walks(l):
    """Exact H, M, R histograms by walking all 2^l sign sequences."""
    h = np.zeros(l + 1)
    m = np.zeros(l + 1)
    r = np.zeros(l // 2 + 1)
    weight = 1.0 / (1 << l)
    for bits in itertools.product((0, 1), repeat=l):
        pos = 0
        peak = 0
        returns = 0
        heads = 0
        for b in bits:
            pos += 1 if b else -1
            heads += b
            if pos > peak:
                peak = pos
            if pos == 0:
                returns += 1
        h[heads] += weight
        m[peak] += weight
        r[returns] += weight
    return h, m, r


def test_l2_nulls_by_hand():
    assert np.allclose(h_null(2), [0.25, 0.5, 0.25])
    # Paths: --, -+, +-, ++ with peaks 0, 0, 1, 2.
    assert np.allclose(m_null(2), [0.5, 0.25, 0.25])
    # Returns to zero at step 2 for -+ and +-.
    assert np.allclose(r_null(2), [0.5, 0.5])


def test_nulls_match_exhaustive_enumeration_exactly_l16():
    # Probabilities are dyadic rationals with small numerators, so the laws
    # and the DP oracle in float64 must agree bit for bit, not merely within
    # tolerance.
    for l in range(2, 17, 2):
        exact = _enumerate_walks(l)
        for law, dp, enum in zip((h_null(l), m_null(l), r_null(l)), dp_walk_laws(l), exact):
            assert np.array_equal(law, enum), l
            assert np.array_equal(dp, enum), l


def test_nulls_match_closed_forms_l128():
    # Both sides round each exact probability once, so they agree bit for bit.
    for l in (128, 256):
        assert np.array_equal(h_null(l), [float(x) for x in binomial_h_law(l)])
        assert np.array_equal(m_null(l), [float(x) for x in reflection_m_law(l)])
        assert np.array_equal(r_null(l), [float(x) for x in returns_r_law(l)])


@pytest.mark.parametrize("l", [8, 128, 1024, 4096])
def test_nulls_equal_math_comb_forms_exactly(l):
    # The laws come from multiplicative recurrences over the binomial row;
    # each entry must still be the one correctly rounded value of the
    # closed form, up to the largest steps validate_params allows.
    total = 1 << l
    assert np.array_equal(h_null(l), [math.comb(l, h) / total for h in range(l + 1)])
    assert np.array_equal(m_null(l), [math.comb(l, (l + m + 1) // 2) / total for m in range(l + 1)])
    assert np.array_equal(r_null(l), [(math.comb(l - r, l // 2) << r) / total for r in range(l // 2 + 1)])


def test_nulls_match_dynamic_programming_l128():
    h_dp, m_dp, r_dp = dp_walk_laws(128)
    assert np.allclose(h_null(128), h_dp, rtol=1e-12, atol=0)
    assert np.allclose(m_null(128), m_dp, rtol=1e-12, atol=0)
    assert np.allclose(r_null(128), r_dp, rtol=1e-12, atol=0)


def test_nulls_are_normalized():
    for l in (8, 64, 256):
        assert np.isclose(h_null(l).sum(), 1.0, rtol=1e-12)
        assert np.isclose(m_null(l).sum(), 1.0, rtol=1e-12)
        assert np.isclose(r_null(l).sum(), 1.0, rtol=1e-12)


def test_nulls_reject_odd_or_tiny_lengths():
    for bad in (0, 1, 3, 7):
        with pytest.raises(ValueError):
            h_null(bad)
        with pytest.raises(ValueError):
            m_null(bad)
        with pytest.raises(ValueError):
            r_null(bad)


def test_null_arrays_are_frozen():
    arr = h_null(8)
    with pytest.raises(ValueError):
        arr[0] = 0.0


def _words(bits):
    """0/1 steps packed MSB first into uint32 words, zero-padded to a whole word."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8))
    packed = np.concatenate([packed, np.zeros(-packed.size % 4, dtype=np.uint8)])
    return packed.view(">u4").astype(np.uint32)


def test_walk_statistics_known_bits():
    # One walk of 8 steps: positions 1,2,1,0,-1,0,1,2 -> H=5, M=2, R=2.
    bits = np.array([1, 1, 0, 0, 0, 1, 1, 1], dtype=np.uint8)
    h, m, r = walk_statistics(_words(bits), walks=1, steps=8)
    assert h.tolist() == [5]
    assert m.tolist() == [2]
    assert r.tolist() == [2]


def test_walk_statistics_all_ones_and_all_zeros():
    h, m, r = walk_statistics(np.full(1, 2**32 - 1, dtype=np.uint32), walks=2, steps=16)
    assert h.tolist() == [16, 16]
    assert m.tolist() == [16, 16]
    assert r.tolist() == [0, 0]
    h, m, r = walk_statistics(np.zeros(1, dtype=np.uint32), walks=2, steps=16)
    assert h.tolist() == [0, 0]
    assert m.tolist() == [0, 0]
    assert r.tolist() == [0, 0]


def test_walk_statistics_alternating_returns_every_other_step():
    bits = np.tile([1, 0], 8).astype(np.uint8)
    h, m, r = walk_statistics(_words(bits), walks=1, steps=16)
    assert h.tolist() == [8]
    assert m.tolist() == [1]
    assert r.tolist() == [8]


def test_walk_statistics_shape_validation():
    # One walk of 8 steps reads one word, and 33 walks of 8 steps read 9.
    with pytest.raises(ValueError, match="need 1 words, got 10"):
        walk_statistics(np.zeros(10, dtype=np.uint32), walks=1, steps=8)
    with pytest.raises(ValueError, match="need 9 words, got 8"):
        walk_statistics(np.zeros(8, dtype=np.uint32), walks=33, steps=8)
    with pytest.raises(ValueError, match="int16"):
        walk_statistics(np.zeros(2**10, dtype=np.uint32), walks=1, steps=2**15)


def test_chunk_tables_match_every_chunk_walked_directly():
    # Each 16-bit chunk, read MSB first as 16 steps, and its prefix levels.
    bits = np.unpackbits(np.arange(2**16, dtype=">u2").view(np.uint8)).reshape(2**16, 16)
    prefix = np.cumsum(bits.astype(np.int64) * 2 - 1, axis=1)
    chunk, zeros = walks_module._chunk_tables()
    assert chunk.dtype == np.dtype([("delta", np.int8), ("peak", np.int8)]) and chunk.shape == (2**16,)
    assert zeros.dtype == np.int8 and zeros.shape == (19 * 2**16,)
    assert chunk["delta"].tolist() == prefix[:, -1].tolist()
    assert chunk["peak"].tolist() == prefix.max(axis=1).tolist()
    for row, level in enumerate(range(-18, 19, 2)):
        expected = np.count_nonzero(level + prefix == 0, axis=1)
        assert zeros[row << 16 : (row + 1) << 16].tolist() == expected.tolist(), level


def _walk_ending_at(rng, steps, level):
    """A random walk of the given length whose last level is ``level``."""
    bits = np.zeros(steps, dtype=np.uint8)
    bits[: (steps + level) // 2] = 1
    rng.shuffle(bits)
    return bits


def _walk_within(rng, steps, bound):
    """A random walk that never leaves [-bound, bound]."""
    bits = np.empty(steps, dtype=np.uint8)
    level = 0
    for j in range(steps):
        up = rng.integers(0, 2) if abs(level) < bound else level < 0
        bits[j] = up
        level += 1 if up else -1
    return bits


def _walk_entering(rng, steps, start, level):
    """A random walk at ``level`` after ``start`` steps, whose next 16 steps
    (or as many as are left) all head for 0."""
    bits = rng.integers(0, 2, size=steps, dtype=np.uint8)
    bits[:start] = _walk_ending_at(rng, start, level)
    bits[start : start + 16] = level < 0
    return bits


@pytest.mark.parametrize("steps", list(range(8, 66, 2)) + [1022, 1024, 4094, 4096])
def test_walk_statistics_match_a_plain_int64_walk(steps):
    rng = np.random.default_rng(steps)
    rows = [
        # The extremes: a walk that only climbs and one that only falls.
        np.ones(steps, dtype=np.uint8),
        np.zeros(steps, dtype=np.uint8),
    ]
    # Walks ending just below, at and above the levels 1..pad that the zero
    # padding of the last chunk crosses on its way down (pad <= 14).
    ends = [e for e in range(-2, 19, 2) if abs(e) <= steps]
    rows += [_walk_ending_at(rng, steps, e) for e in ends]
    # Walks entering a chunk at the edge levels of the zero table: from +-14
    # and +-16 the chunk reaches 0, from +-18 it cannot.
    for start in (16, 32, 48):
        for level in (-18, -16, -14, 14, 16, 18):
            if abs(level) <= start < steps:
                rows.append(_walk_entering(rng, steps, start, level))
    # Walks whose every chunk enters at a level the zero table holds.
    rows += [_walk_within(rng, steps, 16) for _ in range(4)]
    walks = len(rows) + 64
    rows = np.concatenate([np.array(rows), rng.integers(0, 2, size=(64, steps), dtype=np.uint8)])
    s = np.cumsum(rows.astype(np.int64) * 2 - 1, axis=1)
    h, m, r = walk_statistics(_words(rows.ravel()), walks, steps)
    assert h.tolist() == rows.sum(axis=1).tolist()
    assert m.tolist() == np.maximum(s.max(axis=1), 0).tolist()
    assert r.tolist() == (s == 0).sum(axis=1).tolist()
    assert m[0] == steps and h[1] == 0
    assert s[2 : 2 + len(ends), -1].tolist() == ends


@pytest.mark.parametrize("steps", [16, 24, 1024])
def test_walk_statistics_blocks_join_seamlessly(monkeypatch, steps):
    # Blocks of 3 walks, the last one short, give what one block gives and
    # what the plain walk gives.
    rng = np.random.default_rng(steps + 1)
    walks = 10
    rows = rng.integers(0, 2, size=(walks, steps), dtype=np.uint8)
    words = _words(rows.ravel())
    one_block = walk_statistics(words, walks, steps)
    monkeypatch.setattr(walks_module, "_BLOCK_STEPS", 3 * steps)
    blocked = walk_statistics(words, walks, steps)
    s = np.cumsum(rows.astype(np.int64) * 2 - 1, axis=1)
    plain = (rows.sum(axis=1), np.maximum(s.max(axis=1), 0), (s == 0).sum(axis=1))
    for a, b, c in zip(blocked, one_block, plain):
        assert a.tolist() == b.tolist() == c.tolist()


def test_walk_statistics_read_each_walk_from_its_own_bits():
    # 3 walks of 24 steps share word boundaries: the walks start at bits
    # 0, 24 and 48, so the second starts mid-word and the third ends on a
    # word's last bit. Each walk reads only its own steps.
    bits = np.zeros(72, dtype=np.uint8)
    bits[24:48] = 1
    h, m, r = walk_statistics(_words(bits), walks=3, steps=24)
    assert h.tolist() == [0, 24, 0]
    assert m.tolist() == [0, 24, 0]
    assert r.tolist() == [0, 0, 0]


def test_returns_law_l4_by_fraction():
    # P(R=0) = 3/8, P(R=1) = 2/4 = 4/8... verified against enumeration instead.
    _, _, r_exact = _enumerate_walks(4)
    assert [Fraction(x).limit_denominator(16) for x in r_exact] == list(returns_r_law(4))
