"""The five test families and the dispatch that runs them.

`run_test` reads an entry's words from a
:class:`~mtstreams.stats.stream.StreamView` once, as many as its
``draws`` (:mod:`mtstreams.stats.battery` checks the parameters and sizes
the read), and passes the array to the family. Families are pure
functions of (words, **params) that return their p-values alone, a tuple
in the order of the entry's ``statistics``. Only the battery module names
them: `run_test` pairs each value with its name, as a results row holds
them, and gives the two-sided verdict: Fail iff any sub-p-value p
satisfies p < eps or p > 1 - eps (strict, so p = eps passes).

Only ClosePairs reads floats, w * 2^-32. The cell families read words: the
cell of a uniform u = w * 2^-32 among d is floor(u * d) = (w * d) >> 32,
computed in exact integers (see `word_cells`). RandomWalk1 reads a word's
bits, and LinearComp one bit of each word.
"""
from __future__ import annotations

import math

import numpy as np

from mtstreams.results import TestResult, _verdict
from mtstreams.stats.battery import TestDefinition
from mtstreams.stats.complexity import berlekamp_massey, linear_complexity_pvalue
from mtstreams.stats.pvalues import chi2_pvalue, merged_chi2_pvalue, poisson_left_pvalue
from mtstreams.stats.stream import StreamView
from mtstreams.stats.walks import h_null, m_null, r_null, walk_statistics

_BLOCK_WORDS = 1 << 16


def linear_comp_test(words: np.ndarray, n_bits: int, bit_offset: int) -> tuple[float]:
    """Saturation test on the linear complexity of bit ``bit_offset`` (0 is
    the MSB) of each word."""
    bits = ((words >> np.uint32(31 - bit_offset)) & np.uint32(1)).astype(np.uint8)
    return (linear_complexity_pvalue(berlekamp_massey(bits), n_bits),)


def word_cells(words: np.ndarray, d: int) -> np.ndarray:
    """floor(u * d) for u = w * 2^-32, as (w * d) >> 32 in exact integers.

    For d <= 2^32, w * d < 2^64 fits uint64 and the result is below d, so
    no clamp is needed. For d <= 2^21, w * d < 2^53, so the float route
    floor(w * 2^-32 * d) is exact too and gives the same cells.
    """
    cells = np.multiply(words, np.uint64(d), dtype=np.uint64)
    cells >>= np.uint64(32)
    return cells.view(np.int64)


def collision_count(words: np.ndarray, n: int, d: int, t: int) -> int:
    """Collisions of n overlapping t-tuples of ``words`` in a d^t-cell grid.

    Collisions are n minus the number of distinct cells: after a sort, the
    count of equal adjacent pairs.
    """
    idx = word_cells(words, d)
    cells = idx[:n].copy()
    for j in range(1, t):
        cells += idx[j : j + n] * (d**j)
    cells.sort()
    return int(np.count_nonzero(cells[1:] == cells[:-1]))


def collision_over_test(words: np.ndarray, n: int, d: int, t: int) -> tuple[float]:
    """Poisson left tail of the collision count, with mean n(n-1) / 2d^t."""
    lam = n * (n - 1) / (2.0 * d**t)
    return (poisson_left_pvalue(collision_count(words, n, d, t), lam),)


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


def close_pairs_test(words: np.ndarray, n: int, t: int) -> tuple[float]:
    """Minimal pairwise distance of n points w * 2^-32 in the unit torus [0,1)^t."""
    points = (words * 2.0**-32).reshape(n, t)
    d_min = torus_min_distance(points)
    volume = math.pi ** (t / 2.0) / math.gamma(t / 2.0 + 1.0)
    lam = n * (n - 1) / 2.0 * volume * d_min**t
    return (math.exp(-lam),)


def random_walk_test(words: np.ndarray, walks: int, steps: int) -> tuple[float, float, float]:
    """Chi-square p-values of the H, M and R walk statistics, in that order,
    against their exact null laws."""
    h, m, r = walk_statistics(words, walks, steps)
    return tuple(
        merged_chi2_pvalue(np.bincount(values, minlength=null.size), walks * null)
        for values, null in ((h, h_null(steps)), (m, m_null(steps)), (r, r_null(steps)))
    )


def serial_uniformity_test(words: np.ndarray, n: int, cells: int) -> tuple[float]:
    """Chi-square of cell counts of floor(u * cells) against uniformity,
    each cell computed from its word by `word_cells`."""
    # Counted a block at a time, so a block's 8-byte cells stay in cache; a
    # block of at least `cells` words keeps each bincount's pass over its
    # counts below the counting itself.
    block = max(_BLOCK_WORDS, cells)
    counts = np.zeros(cells, dtype=np.int64)
    for start in range(0, n, block):
        counts += np.bincount(word_cells(words[start : start + block], cells), minlength=cells)
    expected = n / cells
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    return (chi2_pvalue(chi2, cells - 1),)


_RUNNERS = {
    "LinearComp": linear_comp_test,
    "CollisionOver": collision_over_test,
    "ClosePairs": close_pairs_test,
    "RandomWalk1": random_walk_test,
    "SerialUniformity": serial_uniformity_test,
}


def run_test(definition: TestDefinition, view: StreamView, eps: float) -> TestResult:
    """Run one battery entry on the view's next ``definition.draws`` words;
    verdict per the two-sided rule. Raises ValueError unless the family gives
    one p-value per name in ``definition.statistics``."""
    values = _RUNNERS[definition.family](view.take_words(definition.draws), **definition.params)
    p_values = dict(zip(definition.statistics, values, strict=True))
    return TestResult(definition, p_values, _verdict(p_values, eps))
