"""The five test families and the dispatch that runs them.

Every family reads a :class:`~mtstreams.stats.stream.StreamView` from its
first draw and produces named sub-statistic p-values; families are pure
functions of (view, params). `run_test` gives the two-sided verdict: Fail
iff any sub-p-value p satisfies p < eps or p > 1 - eps (strict, so
p = eps passes).

Only ClosePairs reads floats. The cell families read words: the cell of a
uniform u = w * 2^-32 among d is floor(u * d) = (w * d) >> 32, computed in
exact integers (see `word_cells`), and RandomWalk1 reads a word's bits.
"""
from __future__ import annotations

import math

import numpy as np

from mtstreams.results import TestResult, _verdict
from mtstreams.stats.complexity import berlekamp_massey, linear_complexity_pvalue
from mtstreams.stats.pvalues import chi2_pvalue, merged_chi2_pvalue, poisson_two_sided_pvalue
from mtstreams.stats.stream import StreamView
from mtstreams.stats.walks import h_null, m_null, r_null, walk_statistics

_BLOCK_WORDS = 1 << 16


def validate_params(family: str, params: dict) -> dict:
    """Check family parameters; returns them with canonical integer types."""
    if family == "LinearComp":
        n_bits, bit_offset = int(params["n_bits"]), int(params["bit_offset"])
        if n_bits < 1000:
            raise ValueError(f"n_bits must be >= 1000, got {n_bits}")
        if not 0 <= bit_offset <= 31:
            raise ValueError(f"bit_offset must be in [0, 31], got {bit_offset}")
        return {"n_bits": n_bits, "bit_offset": bit_offset}
    if family == "CollisionOver":
        n, d, t = int(params["n"]), int(params["d"]), int(params["t"])
        if n < 2**10:
            raise ValueError(f"n must be >= 1024, got {n}")
        if d < 2 or t < 1:
            raise ValueError(f"need d >= 2 and t >= 1, got d={d}, t={t}")
        if d > 2**32:
            raise ValueError(f"d must be <= 2^32, the cells a 32-bit word can address, got {d}")
        k = d**t
        if k < 4 * n:
            raise ValueError(f"sparse regime requires d^t >= 4n; d^t={k}, 4n={4 * n}")
        if k > 2**62:
            raise ValueError(f"cell count d^t={k} too large to index")
        return {"n": n, "d": d, "t": t}
    if family == "ClosePairs":
        n, t = int(params["n"]), int(params["t"])
        if n < 2**8:
            raise ValueError(f"n must be >= 256, got {n}")
        if not 2 <= t <= 8:
            raise ValueError(f"t must be in [2, 8], got {t}")
        return {"n": n, "t": t}
    if family == "RandomWalk1":
        n, l = int(params["walks"]), int(params["steps"])
        if n < 10**3:
            raise ValueError(f"walks must be >= 1000, got {n}")
        if l % 2 or not 8 <= l <= 4096:
            raise ValueError(f"steps must be even and in [8, 4096], got {l}")
        return {"walks": n, "steps": l}
    if family == "SerialUniformity":
        n, c = int(params["n"]), int(params["cells"])
        if not 2 <= c <= 2**32:
            raise ValueError(f"cells must be in [2, 2^32], the cells a 32-bit word can address, got {c}")
        if n < 10 * c:
            raise ValueError(f"n must be >= 10 * cells, got n={n}, cells={c}")
        return {"n": n, "cells": c}
    raise ValueError(f"unknown family: {family}")


def linear_comp_test(view: StreamView, n_bits: int, bit_offset: int) -> dict:
    """Saturation test on the linear complexity of one output bit lane."""
    bits = view.take_word_bits(n_bits, bit_offset)
    complexity = berlekamp_massey(bits)
    p = linear_complexity_pvalue(complexity, n_bits)
    return {"p_values": {"saturation": p}, "details": {"complexity": complexity}}


def word_cells(words: np.ndarray, d: int) -> np.ndarray:
    """floor(u * d) for u = w * 2^-32, as (w * d) >> 32 in exact integers.

    For d <= 2^32, w * d < 2^64 fits uint64 and the result is below d, so
    no clamp is needed. For d <= 2^21, w * d < 2^53, so the float route
    floor(w * 2^-32 * d) is exact too and gives the same cells.
    """
    cells = np.multiply(words, np.uint64(d), dtype=np.uint64)
    cells >>= np.uint64(32)
    return cells.view(np.int64)


def collision_over_test(view: StreamView, n: int, d: int, t: int) -> dict:
    """Collision count of n overlapping t-tuples in a d^t-cell grid.

    Collisions are n minus the number of distinct cells: after a sort, the
    count of equal adjacent pairs.
    """
    idx = word_cells(view.take_words(n + t - 1), d)
    cells = idx[:n].copy()
    for j in range(1, t):
        cells += idx[j : j + n] * (d**j)
    cells.sort()
    collisions = int(np.count_nonzero(cells[1:] == cells[:-1]))
    lam = n * (n - 1) / (2.0 * d**t)
    left, right = poisson_two_sided_pvalue(collisions, lam)
    return {
        "p_values": {"collisions": left},
        "details": {"count": collisions, "lambda": lam, "right_tail": right},
    }


def torus_min_distance(points: np.ndarray) -> float:
    """Exact minimal pairwise Euclidean distance of points in [0,1)^t on the torus.

    A circular sweep: sort on coordinate 0 and, for k = 1, 2, ..., compare
    every point with the one k places after it in circular order. It stops
    at the first k whose smallest forward coordinate-0 gap is >= the best
    distance so far: a closer pair has a smaller gap in one direction, so
    its step was already checked. Steps k and n - k pair the same points,
    so k never passes n // 2.

    Each coordinate difference is wrapped as min(|d|, 1 - |d|) and the
    squares are summed in coordinate order. For multiples of 2^-32 every
    difference and wrap is exact, so the result is the float a brute-force
    search over all pairs gives.
    """
    n = points.shape[0]
    half = n // 2
    order = np.argsort(points[:, 0], kind="stable")
    # One row per coordinate, the first n // 2 points repeated after the
    # last with 1 added to coordinate 0, so step k is a plain slice.
    ring = np.concatenate((points[order], points[order[:half]])).T.copy()
    ring[0, n:] += 1.0
    best2 = math.inf
    for k in range(1, half + 1):
        gap = ring[0, k : k + n] - ring[0, :n]
        if gap.min() >= math.sqrt(best2):
            break
        dist2 = np.minimum(gap, 1.0 - gap)
        dist2 *= dist2
        for coord in ring[1:]:
            d = np.abs(coord[k : k + n] - coord[:n])
            np.minimum(d, 1.0 - d, out=d)
            d *= d
            dist2 += d
        best2 = min(best2, float(dist2.min()))
    return math.sqrt(best2)


def close_pairs_test(view: StreamView, n: int, t: int) -> dict:
    """Minimal pairwise distance of n points in the unit torus [0,1)^t."""
    points = view.take_uniforms(n * t).reshape(n, t)
    d_min = torus_min_distance(points)
    volume = math.pi ** (t / 2.0) / math.gamma(t / 2.0 + 1.0)
    lam = n * (n - 1) / 2.0 * volume * d_min**t
    p_right = math.exp(-lam)
    return {
        "p_values": {"min_distance": p_right},
        "details": {"min_distance": d_min, "lambda": lam, "left_tail": 1.0 - p_right},
    }


def random_walk_test(view: StreamView, walks: int, steps: int) -> dict:
    """Chi-square of H, M, R walk statistics against their exact null laws."""
    words = view.take_words(-(-walks * steps // 32))
    h, m, r = walk_statistics(words, walks, steps)
    p_values: dict[str, float] = {}
    details: dict[str, float] = {}
    for name, values, null in (
        ("H", h, h_null(steps)),
        ("M", m, m_null(steps)),
        ("R", r, r_null(steps)),
    ):
        observed = np.bincount(values, minlength=null.size)
        p, chi2, df = merged_chi2_pvalue(observed, walks * null)
        p_values[name] = p
        details[f"chi2_{name}"] = chi2
        details[f"df_{name}"] = df
    return {"p_values": p_values, "details": details}


def serial_uniformity_test(view: StreamView, n: int, cells: int) -> dict:
    """Chi-square of cell counts of floor(u * cells) against uniformity,
    each cell computed from its word by `word_cells`."""
    words = view.take_words(n)
    # Counted a block at a time, so a block's 8-byte cells stay in cache; a
    # block of at least `cells` words keeps each bincount's pass over its
    # counts below the counting itself.
    block = max(_BLOCK_WORDS, cells)
    counts = np.zeros(cells, dtype=np.int64)
    for start in range(0, n, block):
        counts += np.bincount(word_cells(words[start : start + block], cells), minlength=cells)
    expected = n / cells
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    p = chi2_pvalue(chi2, cells - 1)
    return {"p_values": {"chi2": p}, "details": {"statistic": chi2, "df": cells - 1}}


_RUNNERS = {
    "LinearComp": linear_comp_test,
    "CollisionOver": collision_over_test,
    "ClosePairs": close_pairs_test,
    "RandomWalk1": random_walk_test,
    "SerialUniformity": serial_uniformity_test,
}


def run_test(definition, view: StreamView, eps: float) -> TestResult:
    """Run one battery entry on a view at its first draw; verdict per the two-sided rule."""
    try:
        params = validate_params(definition.family, definition.params)
        outcome = _RUNNERS[definition.family](view, **params)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"test {definition.id}: {exc}") from exc
    p_values = outcome["p_values"]
    return TestResult(
        test_id=definition.id,
        family=definition.family,
        p_values=p_values,
        verdict=_verdict(p_values, eps),
        draws=view.draws,
        details=outcome.get("details", {}),
    )
