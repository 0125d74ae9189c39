"""Core generator: reference equivalence, tempering, advance, state rules."""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstreams.mt19937 import (
    N,
    MtState,
    MtStream,
    ZeroStateError,
    advance,
    init_genrand,
    next_real,
    next_u32,
    temper,
    twist,
    untemper,
)

from support import twist_words, untemper_words, untempered_draws

FIXTURES = Path(__file__).parent / "fixtures" / "reference_outputs.json"
REFERENCE = {int(k): v for k, v in json.loads(FIXTURES.read_text()).items()}


def test_reference_equivalence_all_fixture_seeds():
    for seed, expected in sorted(REFERENCE.items()):
        got = MtStream(init_genrand(seed)).take(len(expected))
        assert got.tolist() == expected, f"seed {seed}"


def test_reference_equivalence_via_next_u32():
    state = init_genrand(5489)
    outputs = []
    for _ in range(100):
        value, state = next_u32(state)
        outputs.append(value)
    assert outputs == REFERENCE[5489][:100]


def test_init_genrand_seed_zero_properties():
    state = init_genrand(0)
    assert int(state.mt[0]) == 0
    assert state.mti == N
    assert int(state.mt[1]) == 1
    assert state.mt.any()


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
    s = twist(init_genrand(5489))
    assert temper(int(s.mt[0])) == REFERENCE[5489][0]


def test_twist_never_zero_state():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        words = rng.integers(0, 2**32, size=N, dtype=np.uint32)
        if not words.any():
            continue
        assert twist(MtState(words, N)).mt.any()


def test_temper_zero_fixed_point():
    assert temper(0) == 0
    assert untemper(0) == 0


@settings(max_examples=500)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_untemper_inverts_temper(y):
    assert untemper(temper(y)) == y
    assert temper(untemper(y)) == y


def test_vectorized_tempering_matches_scalar():
    rng = np.random.default_rng(99)
    words = rng.integers(0, 2**32, size=N, dtype=np.uint32)
    s = MtState(words, N)
    block = MtStream(s).take(N)
    twisted = twist(s).mt
    assert np.array_equal(untemper_words(block), twisted)
    assert [temper(int(w)) for w in twisted] == block.tolist()
    assert all(untemper(temper(int(w))) == w == temper(untemper(int(w))) for w in words)


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


def test_mtstate_immutable_value_semantics():
    s = init_genrand(3)
    with pytest.raises(ValueError):
        s.mt[0] = 1
    words = np.array(s.mt)
    t = MtState(words, s.mti)
    words[0] ^= 0xFFFF  # constructor copied; mutation must not leak
    assert t == s
    assert hash(t) == hash(s)


def test_next_real_scaling():
    class Fixed:
        def __init__(self, values):
            self._values = list(values)

        def take(self, n):
            out, self._values = self._values[:n], self._values[n:]
            return np.array(out, dtype=np.uint32)

    s = init_genrand(11)
    value, _ = next_real(s)
    first = MtStream(s).take(1)[0]
    assert value == int(first) * 2.0**-32
    assert 0.0 <= value < 1.0
    assert int(2**31) * 2.0**-32 == 0.5
    assert (2**32 - 1) * 2.0**-32 < 1.0


def test_next_u32_consumes_one_block_per_twist():
    state = init_genrand(123)
    state = twist(state)
    assert state.mti == 0
    for i in range(N):
        _, state = next_u32(state)
        assert state.mti == i + 1
    _, state = next_u32(state)  # forces the next twist
    assert state.mti == 1


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
    state = base
    for _ in range(1000):
        _, state = next_u32(state)
    assert advance(base, 1000) == state
    value, _ = next_u32(state)
    assert value == MtStream(base).take(1001)[-1]


def test_engine_matches_support_twist_oracle():
    # Random statuses at and around block ends, against the support twist
    # plus the scalar temper: outputs, the status after them, and twist.
    rng = np.random.default_rng(2026)
    for mti in (0, 1, 100, 623, 624):
        s = MtState(rng.integers(0, 2**32, size=N, dtype=np.uint32), mti)
        twisted = np.array(s.mt)
        twist_words(twisted)
        assert twist(s) == MtState(twisted, 0), mti
        for n in (0, 1, 623, 624, 625, 1247, 1248, 10**5 + 7):
            raw, words, after = untempered_draws(s.mt, mti, n)
            expected = MtState(words, after)
            assert advance(s, n) == expected, (mti, n)
            stream = MtStream(s)
            assert stream.take(n).tolist() == [temper(int(w)) for w in raw], (mti, n)
            assert stream.state == expected, (mti, n)


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        advance(init_genrand(1), -1)


def test_stream_determinism_across_random_states():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        words = rng.integers(0, 2**32, size=N, dtype=np.uint32)
        mti = int(rng.integers(0, N + 1))
        s = MtState(words, mti)
        assert np.array_equal(MtStream(s).take(100), MtStream(s).take(100))


def test_stream_take_matches_single_draws_across_block_boundary():
    s = MtState(init_genrand(5).mt, 600)
    bulk = MtStream(s).take(100)
    singles = []
    state = s
    for _ in range(100):
        v, state = next_u32(state)
        singles.append(v)
    assert bulk.tolist() == singles


def test_word_payload_is_2496_bytes():
    s = init_genrand(5489)
    assert s.mt.nbytes == 2496
