"""P-value machinery shared by the test families.

Conventions: chi-square p-values are right tails; the Poisson helper returns
both tails, each including the observed atom. Both come from SciPy's
regularized incomplete gamma functions P(a, x) and Q(a, x) = 1 - P(a, x):
a chi-square right tail is Q(df/2, x/2), and the Poisson tails are
Q(k + 1, lam) and P(k, lam).
"""
from __future__ import annotations

import numpy as np


def chi2_pvalue(x: float, df: int) -> float:
    """Right-tail P(X >= x) for a chi-square variable with df degrees."""
    if x < 0:
        raise ValueError(f"statistic must be >= 0, got {x}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    from scipy.special import gammaincc  # deferred: SciPy costs ~0.4 s to import

    return float(gammaincc(df / 2.0, x / 2.0))


def poisson_two_sided_pvalue(observed: int, lam: float) -> tuple[float, float]:
    """(left, right) = (P(X <= observed), P(X >= observed)) under Poisson(lam).

    Both tails include the observed atom, so left + right >= 1. They are
    P(X <= k) = Q(k + 1, lam) and, for k >= 1, P(X >= k) = P(k, lam).
    """
    if observed < 0:
        raise ValueError(f"observed count must be >= 0, got {observed}")
    if not lam > 0:
        raise ValueError(f"mean must be > 0, got {lam}")
    from scipy.special import gammainc, gammaincc

    left = float(gammaincc(observed + 1, lam))
    right = float(gammainc(observed, lam)) if observed > 0 else 1.0
    return left, right


def merged_chi2_pvalue(
    observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0
) -> tuple[float, float, int]:
    """Chi-square right-tail p after ascending adjacent-cell merging.

    Cells are scanned in ascending index order and merged with their
    successors until each merged cell's expectation reaches min_expected;
    a deficient final cell is folded into the previous one. Returns
    (p_value, statistic, degrees of freedom).
    """
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must have equal length")
    obs_cells: list[float] = []
    exp_cells: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_cells.append(acc_o)
            exp_cells.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0:
        if not exp_cells:
            raise ValueError("total expectation below the merge threshold")
        obs_cells[-1] += acc_o
        exp_cells[-1] += acc_e
    if len(exp_cells) < 2:
        raise ValueError("fewer than 2 cells after merging")
    o_arr = np.array(obs_cells)
    e_arr = np.array(exp_cells)
    chi2 = float(np.sum((o_arr - e_arr) ** 2 / e_arr))
    df = len(exp_cells) - 1
    return chi2_pvalue(chi2, df), chi2, df
