"""The five test families: degenerate fixtures, brute-force oracles, dispatch."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtstreams.mt19937 import MtStream, init_genrand
from mtstreams.results import _verdict
from mtstreams.stats import families
from mtstreams.stats.battery import MINI_CRUSH_V1, TestDefinition
from mtstreams.stats.complexity import berlekamp_massey, linear_complexity_pvalue
from mtstreams.stats.families import (
    close_pairs_test,
    collision_count,
    run_test,
    torus_min_distance,
    word_cells,
)
from mtstreams.stats.pvalues import chi2_pvalue, poisson_left_pvalue
from mtstreams.stats.stream import Mode, StreamView, WordPrefix

from support import (
    ConstantStream,
    RealDerivedStream,
    SplitMix32,
    bit_lane,
    brute_force_collisions,
    brute_force_min_toroidal_distance,
    defective_sources,
)

EPS = 1e-10


def _view(seed=0, mode=Mode.INT):
    return StreamView(init_genrand(seed), mode)


def _run(family, params, seed=0, test_id="unit.t"):
    return run_test(TestDefinition(test_id, family, params), _view(seed), EPS)


def _words(seed, n):
    """The status's first n words."""
    return MtStream(init_genrand(seed)).take(n)


def _uniforms(seed, n):
    """The status's first n words as uniforms w * 2^-32."""
    return _words(seed, n) * 2.0**-32


def test_verdict_rule_is_strict_two_sided():
    assert _verdict({"a": 0.5}, EPS) == "Pass"
    assert _verdict({"a": EPS}, EPS) == "Pass"
    assert _verdict({"a": 1.0 - EPS}, EPS) == "Pass"
    assert _verdict({"a": math.nextafter(EPS, 0.0)}, EPS) == "Fail"
    assert _verdict({"a": math.nextafter(1.0 - EPS, 1.0)}, EPS) == "Fail"
    assert _verdict({"a": 0.0}, EPS) == "Fail"
    assert _verdict({"a": 1.0}, EPS) == "Fail"
    assert _verdict({"a": 0.5, "b": 0.0}, EPS) == "Fail"
    assert _verdict({}, EPS) == "Pass"


# --- LinearComp -------------------------------------------------------------


def test_linearcomp_mt_saturates_and_fails():
    result = _run("LinearComp", {"n_bits": 50000, "bit_offset": 0})
    # The p-value underflows to 0.0 near 19937, so the complexity is read
    # from Berlekamp-Massey on the lane the entry reads.
    assert berlekamp_massey(bit_lane(_words(0, 50000), 0)) == 19937
    assert result.p_values["saturation"] == 0.0
    assert result.verdict == "Fail"
    assert result.draws == 50000


def test_linearcomp_nonlinear_control_passes():
    view = StreamView(SplitMix32(7), Mode.INT)
    result = run_test(
        TestDefinition("unit.ctl", "LinearComp", {"n_bits": 5000, "bit_offset": 0}),
        view,
        EPS,
    )
    complexity = berlekamp_massey(bit_lane(SplitMix32(7).take(5000), 0))
    assert abs(complexity - 2500) <= 3
    assert result.p_values == {"saturation": linear_complexity_pvalue(complexity, 5000)}
    assert result.verdict == "Pass"


def test_linearcomp_short_sample_on_mt_passes():
    result = _run("LinearComp", {"n_bits": 2000, "bit_offset": 13})
    complexity = berlekamp_massey(bit_lane(_words(0, 2000), 13))
    assert abs(complexity - 1000) <= 3
    assert result.p_values == {"saturation": linear_complexity_pvalue(complexity, 2000)}
    assert result.verdict == "Pass"


# --- CollisionOver ----------------------------------------------------------


def test_collisionover_zero_collisions_gives_exponential_left_tail():
    result = _run("CollisionOver", {"n": 1024, "d": 1024, "t": 2}, seed=2)
    lam = 1024 * 1023 / (2.0 * 1024**2)
    assert collision_count(_words(2, 1025), 1024, 1024, 2) == 0
    assert result.p_values["collisions"] == pytest.approx(math.exp(-lam), rel=1e-12)
    assert poisson_left_pvalue(0, lam) == result.p_values["collisions"]
    assert result.verdict == "Pass"


def test_collisionover_tiny_case_matches_brute_force():
    # The sparse-regime precondition bars n=8 from the dispatch layer, so the
    # occupancy logic is exercised directly at full-rate collisions.
    words = np.asarray(np.arange(8, dtype=np.uint64) * (2**32 // 8) % 2**32, dtype=np.uint32)
    uniforms = words * 2.0**-32
    assert collision_count(words, 8, 4, 1) == brute_force_collisions(uniforms, 8, 4, 1) == 4


def test_collisionover_matches_brute_force_on_real_streams():
    for seed in (0, 1, 9):
        result = _run("CollisionOver", {"n": 1024, "d": 64, "t": 2}, seed=seed)
        count = collision_count(_words(seed, 1025), 1024, 64, 2)
        assert count == brute_force_collisions(_uniforms(seed, 1025), 1024, 64, 2)
        lam = 1024 * 1023 / (2.0 * 64**2)
        assert result.p_values == {"collisions": poisson_left_pvalue(count, lam)}
        assert result.draws == 1025


def test_collisionover_degenerate_stream_fails():
    view = StreamView(ConstantStream(0), Mode.INT)
    result = run_test(
        TestDefinition("unit.c", "CollisionOver", {"n": 2**12, "d": 128, "t": 2}), view, EPS
    )
    assert collision_count(ConstantStream(0).take(2**12 + 1), 2**12, 128, 2) == 2**12 - 1
    assert result.verdict == "Fail"
    assert result.p_values["collisions"] == 1.0


def test_collisionover_sorted_count_equals_unique_count():
    # The built-in parameters on MT words, and a stream that repeats a short
    # cycle so most tuples collide.
    cycle = np.resize(np.array([0, 2**31, 5, 2**32 - 1, 7 << 22], dtype=np.uint32), 2**13 + 3)
    cases = [(_view(seed), p) for seed in (0, 4) for p in ({"n": 2**14, "d": 1024, "t": 2}, {"n": 2**13, "d": 32, "t": 4})]
    cases.append((StreamView(WordPrefix(cycle), Mode.INT), {"n": 2**13, "d": 32, "t": 4}))
    for view, p in cases:
        n, d, t = p["n"], p["d"], p["t"]
        words = view.take_words(n + t - 1)
        idx = np.minimum(np.floor(words * 2.0**-32 * d), d - 1).astype(np.int64)
        cells = sum(idx[j : j + n] * d**j for j in range(t))
        count = collision_count(words, n, d, t)
        assert count == n - np.unique(cells).size
    assert count == 2**13 - 5


# --- ClosePairs -------------------------------------------------------------


def test_closepairs_antipodal_pair_distance():
    # Two points (0, 0) and (0.5, 0.5): every axis displacement is 1/2, the
    # toroidal maximum, so D = sqrt(1/2). The n >= 256 precondition lives in
    # the dispatch layer; the geometry is exercised directly.
    words = np.array([0, 0, 2**31, 2**31], dtype=np.uint32)
    assert torus_min_distance((words * 2.0**-32).reshape(2, 2)) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # lambda = 1 pair * V_2 * D^2 = pi / 2.
    (p,) = close_pairs_test(words, 2, 2)
    assert p == pytest.approx(math.exp(-math.pi / 2), rel=1e-15)


def test_closepairs_duplicate_point_fails_with_p_one():
    view = StreamView(ConstantStream(12345), Mode.INT)
    result = run_test(TestDefinition("unit.cp", "ClosePairs", {"n": 256, "t": 2}), view, EPS)
    assert torus_min_distance(ConstantStream(12345).take(512).reshape(256, 2) * 2.0**-32) == 0.0
    assert result.p_values["min_distance"] == 1.0
    assert result.verdict == "Fail"


@pytest.mark.parametrize("t", [2, 3])
def test_closepairs_matches_brute_force(t):
    n = 256
    result = _run("ClosePairs", {"n": n, "t": t}, seed=5)
    points = _uniforms(5, n * t).reshape(n, t)
    want = brute_force_min_toroidal_distance(points)
    assert torus_min_distance(points) == pytest.approx(want, rel=1e-12)
    volume = math.pi ** (t / 2.0) / math.gamma(t / 2.0 + 1.0)
    assert result.p_values["min_distance"] == pytest.approx(
        math.exp(-n * (n - 1) / 2.0 * volume * want**t), rel=1e-12
    )
    assert result.draws == n * t


def _torus_cases(n: int, t: int, seed: int) -> dict[str, np.ndarray]:
    """(n, t) word arrays, n even: plain random words, a pair that is close
    only across the wrap in every coordinate, a duplicated point, and two
    sets whose coordinate 0 is one value throughout, so a sweep never stops
    early. In those the closest pair, 2^-32 apart, is rows 0 and n // 2
    (the last step a sweep over a stable sort reaches) or rows 0 and
    n // 2 + 1 (reached only from the later row, across the seam)."""
    rng = np.random.default_rng(seed)

    def fresh() -> np.ndarray:
        return rng.integers(0, 2**32, size=(n, t), dtype=np.uint32)

    def coincident(row: int) -> np.ndarray:
        words = fresh()
        words[:, 0] = words[0, 0]
        words[row] = words[0]
        words[row, 1] ^= 1
        return words

    i, j = rng.choice(n, size=2, replace=False)
    wrapping = fresh()
    wrapping[i] = rng.integers(0, 2, size=t)  # within 2^-32 of 0
    wrapping[j] = 2**32 - 1 - rng.integers(0, 2, size=t)  # within 2^-32 of 1
    duplicate = fresh()
    duplicate[j] = duplicate[i]
    return {
        "random": fresh(),
        "wrapping": wrapping,
        "duplicate": duplicate,
        "coincident_last_step": coincident(n // 2),
        "coincident_across_seam": coincident(n // 2 + 1),
    }


@pytest.mark.parametrize("t", range(2, 9))
def test_closepairs_equals_brute_force_exactly(t):
    n = 256 + 128 * (t - 2)
    for name, words in _torus_cases(n, t, seed=t).items():
        d_min = torus_min_distance(words * 2.0**-32)
        assert d_min == brute_force_min_toroidal_distance(words * 2.0**-32), name
        if name == "wrapping":
            assert d_min <= math.sqrt(t) * 3 * 2.0**-32
        if name == "duplicate":
            assert d_min == 0.0
        if name.startswith("coincident"):
            assert d_min == 2.0**-32


def test_closepairs_volume_constant():
    # lambda = n(n-1)/2 * V_t * D^t with V_2 = pi.
    n = 256
    result = _run("ClosePairs", {"n": n, "t": 2}, seed=5)
    d_min = torus_min_distance(_uniforms(5, 2 * n).reshape(n, 2))
    assert result.p_values["min_distance"] == pytest.approx(
        math.exp(-n * (n - 1) / 2.0 * math.pi * d_min**2), rel=1e-12
    )


# --- RandomWalk1 ------------------------------------------------------------


def test_randomwalk_biased_stream_fails_everywhere():
    view = StreamView(ConstantStream(0xFFFFFFFF), Mode.INT)
    result = run_test(
        TestDefinition("unit.rw", "RandomWalk1", {"walks": 1000, "steps": 8}), view, EPS
    )
    for name in ("H", "M", "R"):
        assert result.p_values[name] < 1e-10, name
    assert result.verdict == "Fail"


def test_randomwalk_mt_passes():
    result = _run("RandomWalk1", {"walks": 1000, "steps": 64})
    assert result.verdict == "Pass"
    assert set(result.p_values) == {"H", "M", "R"}
    assert result.draws == 1000 * 64 // 32


def test_randomwalk_draws_round_up_to_whole_words():
    result = _run("RandomWalk1", {"walks": 1001, "steps": 8})
    assert result.draws == math.ceil(1001 * 8 / 32)


# --- SerialUniformity -------------------------------------------------------


def test_serial_perfectly_balanced_counts_fail_as_too_good():
    cells, n = 16, 160
    words = [(i % cells) * (2**32 // cells) for i in range(n)]
    view = StreamView(WordPrefix(np.asarray(words, dtype=np.uint32)), Mode.INT)
    result = run_test(
        TestDefinition("unit.s", "SerialUniformity", {"n": n, "cells": cells}), view, EPS
    )
    counts = np.bincount(word_cells(np.asarray(words, dtype=np.uint32), cells), minlength=cells)
    assert counts.tolist() == [n // cells] * cells  # so the statistic is 0.0
    assert result.p_values["chi2"] == chi2_pvalue(0.0, cells - 1) == 1.0
    assert result.verdict == "Fail"


def test_serial_single_cell_pileup_fails():
    view = StreamView(ConstantStream(0), Mode.INT)
    result = run_test(
        TestDefinition("unit.s", "SerialUniformity", {"n": 160, "cells": 16}), view, EPS
    )
    assert result.p_values["chi2"] < 1e-10
    assert result.verdict == "Fail"


def test_serial_mt_large_run_passes():
    result = _run("SerialUniformity", {"n": 10**6, "cells": 1024})
    assert result.verdict == "Pass"
    assert result.draws == 10**6


_CELL_EDGES = [0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]


@pytest.mark.parametrize("d", [2, 3, 1000, 1024, 2**21])
@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=64))
@example(words=_CELL_EDGES)
def test_word_cells_equal_the_float_floor(d, words):
    # For d <= 2^21 the float route floor(u * d) is exact, so the integer
    # cells must equal it, clamp included.
    w = np.array(words, dtype=np.uint32)
    expected = np.minimum(np.floor(w * 2.0**-32 * d), d - 1).astype(np.int64)
    assert word_cells(w, d).tolist() == expected.tolist()


def test_word_cells_are_the_exact_floor_up_to_2_pow_32():
    # Above 2^21 the float product can round up across a cell boundary; the
    # integer cells stay the exact floor(w * d / 2^32).
    rng = np.random.default_rng(5)
    w = np.concatenate([np.array(_CELL_EDGES, dtype=np.uint32), rng.integers(0, 2**32, 1000, dtype=np.uint32)])
    for d in (2**21 + 1, 10**9 + 7, 2**32 - 1, 2**32):
        assert word_cells(w, d).tolist() == [(int(x) * d) >> 32 for x in w]
    assert word_cells(w, 2**32).tolist() == w.tolist()
    # A word whose exact cell value is k - 2^-32 for a k above 2^22, where
    # the float product rounds to k.
    for d in (10**7 + 19, 10**9 + 7, 2**32 - 5):
        k = pow(2**32, -1, d)
        word = (k * 2**32 - 1) // d
        assert k > 2**22 and word * d == k * 2**32 - 1
        assert math.floor(word * 2.0**-32 * d) == k
        assert word_cells(np.array([word], dtype=np.uint32), d).tolist() == [k - 1]


# --- dispatch / draws / validation ------------------------------------------


def test_draws_match_analytic_formulas():
    # n_bits; n + t - 1; n * t; ceil(walks * steps / 32); n.
    cases = [
        ("LinearComp", {"n_bits": 50000, "bit_offset": 0}, 50000),
        ("CollisionOver", {"n": 1024, "d": 64, "t": 2}, 1025),
        ("ClosePairs", {"n": 256, "t": 3}, 768),
        ("RandomWalk1", {"walks": 1000, "steps": 24}, 750),
        ("SerialUniformity", {"n": 1000, "cells": 10}, 1000),
    ]
    for family, params, draws in cases:
        assert TestDefinition("unit.t", family, params).draws == draws, family
        assert _run(family, params).draws == draws, family


def test_each_family_gives_its_entrys_statistics_in_order():
    for definition in MINI_CRUSH_V1.tests:
        result = run_test(definition, _view(), EPS)
        assert tuple(result.p_values) == definition.statistics, definition.id


@pytest.mark.parametrize("values", [(0.5, 0.5), ()])
def test_run_test_refuses_a_p_value_count_other_than_the_entrys_names(monkeypatch, values):
    monkeypatch.setitem(families._RUNNERS, "ClosePairs", lambda words, n, t: values)
    with pytest.raises(ValueError):
        _run("ClosePairs", {"n": 256, "t": 2})


def test_int_and_real_modes_agree_on_mt():
    # The real view reads words recovered from binary64 uniforms, so the
    # word and bit families (LinearComp, RandomWalk1) go through the real
    # derivation too.
    for family, params in [
        ("CollisionOver", {"n": 1024, "d": 64, "t": 2}),
        ("ClosePairs", {"n": 256, "t": 2}),
        ("SerialUniformity", {"n": 1000, "cells": 10}),
        ("LinearComp", {"n_bits": 2000, "bit_offset": 29}),
        ("RandomWalk1", {"walks": 1000, "steps": 128}),
    ]:
        definition = TestDefinition("u.t", family, params)
        a = run_test(definition, _view(3, Mode.INT), EPS)
        b = run_test(definition, StreamView(RealDerivedStream(MtStream(init_genrand(3))), Mode.REAL), EPS)
        assert a == b, family


def test_real_map_gives_back_every_word():
    # The real pathway's only guard: words of every bit length, 2^k - 1 and
    # 2^k for k <= 31, plus 2^32 - 1 and random words, read as uniforms.
    rng = np.random.default_rng(7)
    edges = [w for k in range(32) for w in (2**k - 1, 2**k)] + [2**32 - 1]
    words = np.concatenate([np.array(edges, dtype=np.uint32), rng.integers(0, 2**32, size=10**5, dtype=np.uint32)])
    u = words * 2.0**-32  # the uniforms ClosePairs reads
    assert u.dtype == np.float64
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(np.floor(u * 2.0**32), words)


def test_word_prefix_serves_zero_copy_slices_and_never_a_short_read():
    words = np.arange(10, dtype=np.uint32)
    words.flags.writeable = False
    prefix = WordPrefix(words)
    first = prefix.take(4)
    assert np.shares_memory(first, words)
    assert first.tolist() == [0, 1, 2, 3]
    assert prefix.take(6).tolist() == [4, 5, 6, 7, 8, 9]
    with pytest.raises(IndexError, match="passes the end"):
        prefix.take(1)
    with pytest.raises(ValueError):
        first[0] = 1
    view = StreamView(WordPrefix(words), "real")
    assert view.take_words(3).tolist() == [0, 1, 2]
    with pytest.raises(IndexError):
        view.take_words(8)


def test_validation_errors_carry_test_id():
    # An entry is checked once, when it is defined; the bounds themselves
    # are tested in test_battery.py.
    with pytest.raises(ValueError, match="test unit.bad: sparse regime"):
        _run("CollisionOver", {"n": 2**14, "d": 2, "t": 2}, test_id="unit.bad")


def test_results_are_deterministic():
    a = _run("ClosePairs", {"n": 512, "t": 2}, seed=11)
    b = _run("ClosePairs", {"n": 512, "t": 2}, seed=11)
    assert a == b


# Tests of mini-crush-v1 that each source fails at 1e-10 on its first 10^6
# words, a floor: a family weakened by a change shows here. ClosePairs
# catches only the 3x + 1 LCG and the 2^12 repeat; RANDU's triples lie on
# 15 planes, and both ClosePairs tests pass it.
POSITIVE_CONTROLS = {
    "lcg 69069": {"linearcomp.r29", "randomwalk.b"},
    "lcg 1664525": {"linearcomp.r29", "randomwalk.a", "randomwalk.b"},
    "randu": {"linearcomp.r29", "collisionover.b", "randomwalk.a", "randomwalk.b"},
    "lcg 3": {
        "linearcomp.r29", "collisionover.a", "collisionover.b", "closepairs.b", "randomwalk.a", "randomwalk.b",
    },
    "mt top bit 1": set(MINI_CRUSH_V1.test_ids) - {"closepairs.a", "closepairs.b"},
    "mt low bit 0": {"linearcomp.r0", "linearcomp.r29", "randomwalk.a", "randomwalk.b"},
    "mt repeat 2^12": set(MINI_CRUSH_V1.test_ids) - {"closepairs.b"},
    "mt repeat 2^15": {"randomwalk.b", "serial.a"},
    "mt repeat 2^18": {"linearcomp.r0", "linearcomp.r29", "serial.a"},
}


def test_battery_fails_each_defective_source_and_only_linearcomp_on_mt():
    failed = {
        name: {e.id for e in MINI_CRUSH_V1.tests if run_test(e, StreamView(WordPrefix(words), "int"), EPS).failed}
        for name, words in defective_sources(10**6).items()
    }
    assert failed.pop("mt") == {"linearcomp.r0", "linearcomp.r29"}
    for name, floor in POSITIVE_CONTROLS.items():
        assert floor <= failed[name], name
    assert failed.keys() == POSITIVE_CONTROLS.keys()
