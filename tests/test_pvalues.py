"""Tail-probability helpers against independent high-precision oracles."""
import math

import numpy as np
import pytest

from mtstreams.stats.pvalues import (
    chi2_pvalue,
    merged_chi2_pvalue,
    poisson_two_sided_pvalue,
)

from support import chi2_sf_oracle, poisson_tails_oracle


CHI2_GRID = [
    (1, 0.5),
    (1, 4.0),
    (1, 25.0),
    (2, 1.0),
    (2, 10.0),
    (3, 0.25),
    (3, 7.81),
    (4, 13.3),
    (5, 1.0),
    (5, 11.07),
    (7, 30.0),
    (10, 3.94),
    (10, 18.31),
    (15, 25.0),
    (20, 8.26),
    (20, 45.31),
    (31, 31.0),
    (50, 90.0),
    (100, 70.0),
    (100, 161.0),
    (127, 127.0),
    (255, 310.0),
]


@pytest.mark.parametrize("df,x", CHI2_GRID)
def test_chi2_pvalue_matches_integration_oracle(df, x):
    assert chi2_pvalue(x, df) == pytest.approx(chi2_sf_oracle(x, df), abs=1e-10)


def test_chi2_pvalue_trivial_points():
    assert chi2_pvalue(0.0, 5) == 1.0
    # df=2 survival is exp(-x/2) exactly.
    x = 2.0 * math.log(1e10)
    assert chi2_pvalue(x, 2) == pytest.approx(1e-10, rel=1e-12)
    assert chi2_pvalue(11.07, 5) == pytest.approx(0.04999, abs=1e-4)


def test_chi2_pvalue_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi2_pvalue(-1.0, 5)
    with pytest.raises(ValueError):
        chi2_pvalue(1.0, 0)


POISSON_GRID = [
    (0.5, 0),
    (0.5, 3),
    (1.0, 0),
    (1.0, 1),
    (1.0, 3),
    (2.0, 6),
    (4.0, 0),
    (4.0, 4),
    (8.0, 15),
    (16.0, 5),
    (32.0, 32),
    (32.0, 12),
    (32.0, 60),
    (64.0, 64),
    (128.0, 96),
    (128.0, 128),
    (128.0, 170),
    (200.0, 150),
    (512.0, 512),
    (512.0, 400),
    (1000.0, 1100),
    (10000.0, 9900),
    # The battery's own means: CollisionOver a and b.
    (127.9921875, 64),
    (127.9921875, 128),
    (127.9921875, 200),
    (31.99609375, 8),
    (31.99609375, 32),
    (31.99609375, 70),
]


@pytest.mark.parametrize("lam,observed", POISSON_GRID)
def test_poisson_tails_match_summation_oracle(lam, observed):
    left, right = poisson_two_sided_pvalue(observed, lam)
    oracle_left, oracle_right = poisson_tails_oracle(observed, lam)
    assert left == pytest.approx(oracle_left, rel=1e-13)
    assert right == pytest.approx(oracle_right, rel=1e-13)


def test_poisson_tails_trivial_points():
    left, right = poisson_two_sided_pvalue(0, 3.0)
    assert left == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert right == 1.0
    _, right = poisson_two_sided_pvalue(3, 1.0)
    # P(X >= 3) for Poisson(1) = 1 - e^-1 (1 + 1 + 1/2).
    assert right == pytest.approx(1.0 - math.exp(-1.0) * 2.5, rel=1e-12)


def test_poisson_tails_overlap_on_the_atom():
    left, right = poisson_two_sided_pvalue(128, 128.0)
    assert left + right > 1.0
    assert left > 0.5 and right > 0.4


def test_poisson_extreme_tail_underflows_to_zero():
    left, _ = poisson_two_sided_pvalue(0, 10000.0)
    assert left == 0.0


def test_poisson_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poisson_two_sided_pvalue(-1, 4.0)
    with pytest.raises(ValueError):
        poisson_two_sided_pvalue(2, 0.0)


def test_merged_chi2_merges_small_cells():
    observed = np.array([1, 2, 50, 47], dtype=np.int64)
    expected = np.array([1.5, 2.5, 48.0, 48.0])
    p, chi2, df = merged_chi2_pvalue(observed, expected)
    # First two cells merge into the third until every cell expects >= 5.
    merged_obs = np.array([53, 47])
    merged_exp = np.array([52.0, 48.0])
    want = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    assert chi2 == pytest.approx(want, rel=1e-12)
    assert df == 1
    assert p == pytest.approx(chi2_pvalue(want, 1), rel=1e-12)


def test_merged_chi2_folds_deficient_tail():
    observed = np.array([10, 10, 10, 1], dtype=np.int64)
    expected = np.array([10.0, 10.0, 10.0, 1.0])
    p, chi2, df = merged_chi2_pvalue(observed, expected)
    assert df == 2
    assert chi2 == pytest.approx(0.0, abs=1e-12)
    assert p == 1.0


def test_merged_chi2_exact_match_gives_p_one():
    observed = np.array([20, 20, 20], dtype=np.int64)
    expected = np.array([20.0, 20.0, 20.0])
    p, chi2, df = merged_chi2_pvalue(observed, expected)
    assert (p, chi2, df) == (1.0, 0.0, 2)


def test_merged_chi2_rejects_degenerate_tables():
    with pytest.raises(ValueError, match="fewer than 2 cells"):
        merged_chi2_pvalue(np.array([5, 5]), np.array([4.0, 4.0]))
    with pytest.raises(ValueError, match="below the merge threshold"):
        merged_chi2_pvalue(np.array([1, 1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        merged_chi2_pvalue(np.array([1, 2, 3]), np.array([1.0, 2.0]))
