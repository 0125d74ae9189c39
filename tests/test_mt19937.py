"""Core generator: reference equivalence, tempering, advance, state rules."""
import json
import pickle
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtstreams.mt19937 import (
    N,
    MtState,
    MtStream,
    ZeroStateError,
    advance,
    blocks,
    init_genrand,
    twist,
)
from mtstreams.statusfile import parse_status, serialize_status

from support import twist_words, untemper_words, untempered_draws

FIXTURES = Path(__file__).parent / "fixtures" / "reference_outputs.json"
REFERENCE = {int(k): v for k, v in json.loads(FIXTURES.read_text()).items()}


def test_reference_equivalence_all_fixture_seeds():
    for seed, expected in sorted(REFERENCE.items()):
        got = MtStream(init_genrand(seed)).take(len(expected))
        assert got.tolist() == expected, f"seed {seed}"


def test_init_genrand_seed_zero_properties():
    state = init_genrand(0)
    assert state.words[0] == 0
    assert state.mti == N
    assert state.words[1] == 1
    assert any(state.words)


def test_init_genrand_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        init_genrand(-1)
    with pytest.raises(ValueError):
        init_genrand(2**32)


def test_twist_deterministic_and_resets_index():
    s = init_genrand(7)
    a, b = twist(s), twist(s)
    assert a == b
    assert a.mti == 0
    assert a != s


def test_twist_matches_first_output():
    # The reference outputs untempered are the first twist of the seeded
    # words, by the support twist: neither side runs NumPy's engine.
    words = np.frombuffer(init_genrand(5489).mt, "<u4").copy()
    twist_words(words)
    reference = np.array(REFERENCE[5489][:N], dtype=np.uint32)
    assert np.array_equal(untemper_words(reference), words)


def test_blocks_start_with_the_reference_outputs():
    # The first draws from init_genrand(5489) pin how the standard library's
    # engine takes a status (its setstate layout) and the word order of
    # getrandbits.
    expected = REFERENCE[5489]
    drawn = b"".join(islice(blocks(init_genrand(5489)), -(-len(expected) // N)))
    assert list(np.frombuffer(drawn, "<u4")[: len(expected)]) == expected


_WORDS = st.binary(min_size=4 * N, max_size=4 * N).filter(any)


@settings(max_examples=60, deadline=None)
@given(words=_WORDS, mti=st.sampled_from((0, 1, 397, 623, N)), k=st.integers(1, 3))
def test_blocks_equal_stream_draws(words, mti, k):
    # The two C engines agree word for word: the standard library's, which
    # draws status-sized blocks, and NumPy's, which draws bulk reads.
    state = MtState(words, mti)
    drawn = list(islice(blocks(state), k))
    assert all(len(block) == 4 * N for block in drawn)
    assert b"".join(drawn) == MtStream(state).take(N * k).astype("<u4").tobytes()


def test_twist_never_zero_state():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        words = rng.integers(0, 2**32, size=N, dtype=np.uint32)
        if not words.any():
            continue
        assert np.frombuffer(twist(MtState(words, N)).mt, "<u4").any()


@settings(max_examples=500)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(0)
@example(2**32 - 1)
def test_untemper_inverts_temper(y):
    # At mti = 0 the stream tempers the status's own words, untwisted, so
    # any word can be put through the engine's tempering.
    words = np.full(N, y, dtype=np.uint32)
    words[1] = 1  # never the all-zero status
    assert np.array_equal(untemper_words(MtStream(MtState(words, 0)).take(N)), words)


def test_vectorized_tempering_matches_scalar():
    rng = np.random.default_rng(99)
    words = rng.integers(0, 2**32, size=N, dtype=np.uint32)
    s = MtState(words, N)
    block = MtStream(s).take(N)
    assert np.array_equal(untemper_words(block), np.frombuffer(twist(s).mt, "<u4"))


def test_mtstate_rejects_all_zero():
    with pytest.raises(ZeroStateError):
        MtState(np.zeros(N, dtype=np.uint32), 0)


def test_mtstate_rejects_bad_shape_and_index():
    with pytest.raises(ValueError):
        MtState(np.ones(N - 1, dtype=np.uint32), 0)
    with pytest.raises(ValueError):
        MtState(np.ones(N, dtype=np.uint32), N + 1)
    with pytest.raises(ValueError):
        MtState(np.ones(N, dtype=np.uint32), -1)
    with pytest.raises(ValueError):
        MtState(b"\x01" * (4 * N - 1), 0)


@pytest.mark.parametrize("mti", [1.5, "1", None])
def test_mtstate_rejects_a_non_integer_index(mti):
    # serialize_status would write it as line 626, which parse_status refuses.
    with pytest.raises(ValueError, match="mti must be an integer"):
        MtState([1] * N, mti)


def test_mtstate_index_is_kept_as_an_int_and_round_trips():
    s = MtState([1] * N, np.int64(5))
    assert type(s.mti) is int and s == MtState([1] * N, 5)
    after = advance(init_genrand(4), 1000)
    assert type(after.mti) is int and after.mti == 1000 - N
    assert parse_status(serialize_status(after)) == after


@pytest.mark.parametrize("first", [1.5, 2**32, -1])
def test_mtstate_rejects_words_outside_uint32(first):
    with pytest.raises(ValueError):
        MtState([first] + [1] * (N - 1), N)


def test_mtstate_immutable_value_semantics():
    s = init_genrand(3)
    with pytest.raises(TypeError):
        s.mt[0] = 1
    words = np.frombuffer(s.mt, "<u4").copy()
    t = MtState(words, s.mti)
    words[0] ^= 0xFFFF  # constructor copied; mutation must not leak
    assert t == s
    assert hash(t) == hash(s)


def test_mtstate_pickle_round_trip_keeps_value_semantics():
    # Campaign workers receive their statuses pickled.
    for s in (init_genrand(1), MtState(init_genrand(2).mt, 100)):
        t = pickle.loads(pickle.dumps(s))
        assert t == s
        assert hash(t) == hash(s)
        assert isinstance(t.mt, bytes)
        with pytest.raises(TypeError):
            t.mt[0] = 1


def test_advance_identity_and_additivity_grid():
    base = init_genrand(20240131)
    counts = [0, 1, 623, 624, 625, 10**4]
    assert advance(base, 0) == base
    for a in counts:
        mid = advance(base, a)
        for b in counts:
            assert advance(mid, b) == advance(base, a + b), (a, b)


def test_advance_matches_naive_loop():
    base = init_genrand(777)
    raw, words, after = untempered_draws(base.words, base.mti, 1001)
    _, words, after = untempered_draws(base.words, base.mti, 1000)
    state = advance(base, 1000)
    assert state == MtState(words, after)
    assert untemper_words(MtStream(state).take(1))[0] == raw[-1]


def test_engine_matches_support_twist_oracle():
    # Random statuses at and around block ends, against the support twist
    # and untempering: outputs, the status after them, and twist.
    rng = np.random.default_rng(2026)
    for mti in (0, 1, 100, 623, 624):
        s = MtState(rng.integers(0, 2**32, size=N, dtype=np.uint32), mti)
        twisted = np.frombuffer(s.mt, "<u4").copy()
        twist_words(twisted)
        assert twist(s) == MtState(twisted, 0), mti
        for n in (0, 1, 623, 624, 625, 1247, 1248, 10**5 + 7):
            raw, words, after = untempered_draws(s.words, mti, n)
            expected = MtState(words, after)
            assert advance(s, n) == expected, (mti, n)
            assert np.array_equal(untemper_words(MtStream(s).take(n)), raw), (mti, n)


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        advance(init_genrand(1), -1)


def test_advance_refuses_a_count_of_2_to_the_63_or_more():
    # NumPy's random_raw takes an int64 count; a larger one would overflow there.
    for n in (2**63, 2**128):
        with pytest.raises(ValueError, match=r"\[0, 2\^63\)"):
            advance(init_genrand(1), n)


def test_stream_determinism_across_random_states():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        words = rng.integers(0, 2**32, size=N, dtype=np.uint32)
        mti = int(rng.integers(0, N + 1))
        s = MtState(words, mti)
        assert np.array_equal(MtStream(s).take(100), MtStream(s).take(100))


def test_stream_take_matches_single_draws_across_block_boundary():
    s = MtState(init_genrand(5).mt, 600)
    singles, words, mti = [], s.words, s.mti
    for _ in range(100):
        raw, words, mti = untempered_draws(words, mti, 1)
        singles.append(int(raw[0]))
    assert untemper_words(MtStream(s).take(100)).tolist() == singles


def test_stream_take_matches_oracles_at_chunk_boundaries():
    s = MtState(np.random.default_rng(31).integers(0, 2**32, size=N, dtype=np.uint32), 17)
    for n in (0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5, 10**6):
        raw, _, _ = untempered_draws(s.words, s.mti, n)
        out = MtStream(s).take(n)
        assert out.dtype == np.uint32 and out.shape == (n,), n
        assert np.array_equal(untemper_words(out), raw), n


def test_stream_successive_takes_straddle_chunks():
    sizes = (2**16 - 3, 7, 2 * 2**16, 0, 1, 2**16 + 2)
    for mti in (0, 1, 600, 623, 624):
        s = MtState(init_genrand(8).mt, mti)
        stream = MtStream(s)
        parts = [stream.take(k) for k in sizes]
        raw, _, _ = untempered_draws(s.words, s.mti, sum(sizes))
        assert np.array_equal(untemper_words(np.concatenate(parts)), raw), mti


def test_stream_take_peak_memory_is_result_plus_one_chunk():
    # take fills its uint32 result in place: no uint64 temporary of the draws
    # may be alive beside it (64 KiB covers the interpreter's own objects).
    stream = MtStream(init_genrand(1))
    tracemalloc.start()
    try:
        out = stream.take(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 4 * 10**6
    assert peak < out.nbytes + 2**16


def test_word_payload_is_2496_bytes():
    s = init_genrand(5489)
    assert len(s.mt) == 2496
