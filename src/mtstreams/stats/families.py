"""The five test families and the dispatch that runs them.

Every family reads a :class:`~mtstreams.stats.stream.StreamView` from its
first draw and produces named sub-statistic p-values; families are pure
functions of (view, params). `run_test` gives the two-sided verdict: Fail
iff any sub-p-value p satisfies p < eps or p > 1 - eps (strict, so
p = eps passes).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mtstreams.stats.complexity import berlekamp_massey, linear_complexity_pvalue
from mtstreams.stats.pvalues import chi2_pvalue, merged_chi2_pvalue, poisson_two_sided_pvalue
from mtstreams.stats.stream import StreamView
from mtstreams.stats.walks import h_null, m_null, r_null, walk_statistics


@dataclass
class TestResult:
    """Outcome of one test on one stream view."""

    __test__ = False  # not a pytest collection target

    test_id: str
    family: str
    p_values: dict[str, float]
    verdict: str
    draws: int
    details: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.verdict == "Fail"


def _verdict(p_values: dict[str, float], eps: float) -> str:
    for p in p_values.values():
        if p < eps or p > 1.0 - eps:
            return "Fail"
    return "Pass"


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
        if c < 2:
            raise ValueError(f"cells must be >= 2, got {c}")
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


def collision_over_test(view: StreamView, n: int, d: int, t: int) -> dict:
    """Collision count of n overlapping t-tuples in a d^t-cell grid."""
    u = view.take_uniforms(n + t - 1)
    idx = np.minimum((u * d).astype(np.int64), d - 1)
    cells = np.zeros(n, dtype=np.int64)
    for j in range(t):
        cells += idx[j : j + n] * (d**j)
    collisions = n - int(np.unique(cells).size)
    lam = n * (n - 1) / (2.0 * d**t)
    left, right = poisson_two_sided_pvalue(collisions, lam)
    return {
        "p_values": {"collisions": left},
        "details": {"count": collisions, "lambda": lam, "right_tail": right},
    }


def close_pairs_test(view: StreamView, n: int, t: int) -> dict:
    """Minimal pairwise distance of n points in the unit torus [0,1)^t."""
    from scipy.spatial import cKDTree  # deferred: SciPy costs ~0.4 s to import

    points = view.take_uniforms(n * t).reshape(n, t)
    tree = cKDTree(points, boxsize=1.0)
    dist, _ = tree.query(points, k=2)
    d_min = float(dist[:, 1].min())
    volume = math.pi ** (t / 2.0) / math.gamma(t / 2.0 + 1.0)
    lam = n * (n - 1) / 2.0 * volume * d_min**t
    p_right = math.exp(-lam)
    return {
        "p_values": {"min_distance": p_right},
        "details": {"min_distance": d_min, "lambda": lam, "left_tail": 1.0 - p_right},
    }


def random_walk_test(view: StreamView, walks: int, steps: int) -> dict:
    """Chi-square of H, M, R walk statistics against their exact null laws."""
    bits = view.take_bits(walks * steps)
    h, m, r = walk_statistics(bits, walks, steps)
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
    """Chi-square of cell counts of floor(u * cells) against uniformity."""
    u = view.take_uniforms(n)
    idx = np.minimum((u * cells).astype(np.int64), cells - 1)
    counts = np.bincount(idx, minlength=cells)
    expected = n / cells
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    p = chi2_pvalue(chi2, cells - 1)
    return {"p_values": {"chi2": p}, "details": {"statistic": chi2, "df": cells - 1}}


def import_family_dependencies() -> None:
    """Import the SciPy modules the families load on first use.

    A process about to fork workers calls this, so the workers share one
    copy of the modules instead of each importing its own.
    """
    import scipy.spatial  # noqa: F401  (close_pairs_test)
    import scipy.special  # noqa: F401  (pvalues: chi-square and Poisson tails)


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
