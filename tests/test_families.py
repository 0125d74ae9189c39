"""The five test families: degenerate fixtures, brute-force oracles, dispatch."""
import math

import numpy as np
import pytest

from mtstreams.mt19937 import MtStream, init_genrand
from mtstreams.results import _verdict
from mtstreams.stats.battery import TestDefinition
from mtstreams.stats.families import (
    close_pairs_test,
    collision_over_test,
    run_test,
    validate_params,
)
from mtstreams.stats.stream import (
    Mode,
    StreamView,
    WordPrefix,
    analytic_draws,
)

from support import (
    ConstantStream,
    RealDerivedStream,
    SplitMix32,
    brute_force_collisions,
    brute_force_min_toroidal_distance,
)

EPS = 1e-10


def _view(seed=0, mode=Mode.INT):
    return StreamView(init_genrand(seed), mode)


def _run(family, params, seed=0, test_id="unit.t"):
    return run_test(TestDefinition(test_id, family, params), _view(seed), EPS)


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
    assert result.details["complexity"] == 19937
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
    assert abs(result.details["complexity"] - 2500) <= 3
    assert result.verdict == "Pass"


def test_linearcomp_short_sample_on_mt_passes():
    result = _run("LinearComp", {"n_bits": 2000, "bit_offset": 13})
    assert abs(result.details["complexity"] - 1000) <= 3
    assert result.verdict == "Pass"


# --- CollisionOver ----------------------------------------------------------


def test_collisionover_zero_collisions_gives_exponential_left_tail():
    result = _run("CollisionOver", {"n": 1024, "d": 1024, "t": 2}, seed=2)
    lam = result.details["lambda"]
    assert result.details["count"] == 0
    assert lam == 1024 * 1023 / (2.0 * 1024**2)
    assert result.p_values["collisions"] == pytest.approx(math.exp(-lam), rel=1e-12)
    assert result.details["right_tail"] == 1.0
    assert result.verdict == "Pass"


def test_collisionover_tiny_case_matches_brute_force():
    # The sparse-regime precondition bars n=8 from the dispatch layer, so the
    # occupancy logic is exercised directly at full-rate collisions.
    words = np.arange(8, dtype=np.uint64) * (2**32 // 8) % 2**32
    view = StreamView(WordPrefix(np.asarray(words, dtype=np.uint32)), Mode.INT)
    twin = StreamView(WordPrefix(np.asarray(words, dtype=np.uint32)), Mode.INT)
    out = collision_over_test(view, 8, 4, 1)
    uniforms = twin.take_uniforms(8)
    assert out["details"]["count"] == brute_force_collisions(uniforms, 8, 4, 1) == 4


def test_collisionover_matches_brute_force_on_real_streams():
    for seed in (0, 1, 9):
        result = _run("CollisionOver", {"n": 1024, "d": 64, "t": 2}, seed=seed)
        uniforms = _view(seed).take_uniforms(1024 + 1)
        assert result.details["count"] == brute_force_collisions(uniforms, 1024, 64, 2)
        assert result.draws == 1025


def test_collisionover_degenerate_stream_fails():
    view = StreamView(ConstantStream(0), Mode.INT)
    result = run_test(
        TestDefinition("unit.c", "CollisionOver", {"n": 2**12, "d": 128, "t": 2}), view, EPS
    )
    assert result.details["count"] == 2**12 - 1
    assert result.verdict == "Fail"
    assert result.p_values["collisions"] == 1.0


# --- ClosePairs -------------------------------------------------------------


def test_closepairs_antipodal_pair_distance():
    # Two points (0, 0) and (0.5, 0.5): every axis displacement is 1/2, the
    # toroidal maximum, so D = sqrt(1/2). The n >= 256 precondition lives in
    # the dispatch layer; the geometry is exercised directly.
    words = [0, 0, 2**31, 2**31]
    view = StreamView(WordPrefix(np.asarray(words, dtype=np.uint32)), Mode.INT)
    out = close_pairs_test(view, 2, 2)
    assert out["details"]["min_distance"] == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_closepairs_duplicate_point_fails_with_p_one():
    view = StreamView(ConstantStream(12345), Mode.INT)
    result = run_test(TestDefinition("unit.cp", "ClosePairs", {"n": 256, "t": 2}), view, EPS)
    assert result.details["min_distance"] == 0.0
    assert result.p_values["min_distance"] == 1.0
    assert result.details["left_tail"] == 0.0
    assert result.verdict == "Fail"


@pytest.mark.parametrize("t", [2, 3])
def test_closepairs_matches_brute_force(t):
    n = 256
    result = _run("ClosePairs", {"n": n, "t": t}, seed=5)
    points = _view(5).take_uniforms(n * t).reshape(n, t)
    want = brute_force_min_toroidal_distance(points)
    assert result.details["min_distance"] == pytest.approx(want, rel=1e-12)
    assert result.p_values["min_distance"] == pytest.approx(
        math.exp(-result.details["lambda"]), rel=1e-12
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
        view = StreamView(WordPrefix(words.ravel()), Mode.INT)
        d_min = close_pairs_test(view, n, t)["details"]["min_distance"]
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
    d_min = result.details["min_distance"]
    assert result.details["lambda"] == pytest.approx(
        n * (n - 1) / 2.0 * math.pi * d_min**2, rel=1e-12
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
    assert result.details["statistic"] == 0.0
    assert result.p_values["chi2"] == 1.0
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


# --- dispatch / draws / validation ------------------------------------------


def test_draws_match_analytic_formulas():
    cases = [
        ("LinearComp", {"n_bits": 50000, "bit_offset": 0}),
        ("CollisionOver", {"n": 1024, "d": 64, "t": 2}),
        ("ClosePairs", {"n": 256, "t": 3}),
        ("RandomWalk1", {"walks": 1000, "steps": 24}),
        ("SerialUniformity", {"n": 1000, "cells": 10}),
    ]
    for family, params in cases:
        result = _run(family, params)
        assert result.draws == analytic_draws(family, params), family


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
        assert a.p_values == b.p_values, family
        assert a.details == b.details, family
        assert a.draws == b.draws, family


def test_real_map_gives_back_every_word():
    # The real pathway's only guard: words of every bit length, 2^k - 1 and
    # 2^k for k <= 31, plus 2^32 - 1 and random words, read as uniforms.
    rng = np.random.default_rng(7)
    edges = [w for k in range(32) for w in (2**k - 1, 2**k)] + [2**32 - 1]
    words = np.concatenate([np.array(edges, dtype=np.uint32), rng.integers(0, 2**32, size=10**5, dtype=np.uint32)])
    u = StreamView(WordPrefix(words), Mode.REAL).take_uniforms(words.size)
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
        view.take_uniforms(8)


def test_validation_errors_carry_test_id():
    with pytest.raises(ValueError, match="test unit.bad"):
        _run("CollisionOver", {"n": 2**14, "d": 2, "t": 2}, test_id="unit.bad")
    with pytest.raises(ValueError, match="sparse regime"):
        validate_params("CollisionOver", {"n": 2**14, "d": 2, "t": 2})
    with pytest.raises(ValueError, match="unknown family"):
        validate_params("Nope", {})
    with pytest.raises(ValueError, match="steps must be even"):
        validate_params("RandomWalk1", {"walks": 1000, "steps": 9})
    with pytest.raises(ValueError, match="bit_offset"):
        validate_params("LinearComp", {"n_bits": 50000, "bit_offset": 32})
    with pytest.raises(ValueError, match="n_bits"):
        validate_params("LinearComp", {"n_bits": 999, "bit_offset": 0})
    with pytest.raises(ValueError):
        validate_params("ClosePairs", {"n": 255, "t": 2})
    with pytest.raises(ValueError):
        validate_params("SerialUniformity", {"n": 100, "cells": 16})


def test_results_are_deterministic():
    a = _run("ClosePairs", {"n": 512, "t": 2}, seed=11)
    b = _run("ClosePairs", {"n": 512, "t": 2}, seed=11)
    assert a.p_values == b.p_values
    assert a.details == b.details
