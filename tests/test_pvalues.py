"""Tail-probability helpers against independent high-precision oracles."""
import math
import sys

import numpy as np
import pytest

from mtstreams.stats import pvalues
from mtstreams.stats.pvalues import (
    _BERNOULLI,
    _anchor_point,
    _anchor_step,
    _gamma_tails,
    chi2_pvalue,
    merged_chi2_pvalue,
    poisson_two_sided_pvalue,
)

from support import chi2_sf_oracle, gamma_tails_oracle, poisson_tails_oracle


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


# --- correct rounding: every tail equals mpmath's 60-digit value rounded once --

# Integer and half-integer a on both sides of the factorial/Stirling switch
# at a = 64, with x from 1e-3 a to 20 a and at the series/fraction switch.
@pytest.mark.parametrize("two_a", [1, 2, 3, 4, 7, 12, 25, 60, 101, 127, 128, 129, 130, 255, 600, 1023, 2047, 4096])
def test_gamma_tails_are_correctly_rounded_on_a_grid(two_a):
    a = two_a / 2
    for x in [a * f for f in (1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5, 2.0, 5.0, 20.0)] + [a + 1]:
        assert _gamma_tails(two_a, x) == gamma_tails_oracle(two_a, x), x


def test_battery_tails_are_correctly_rounded():
    # serial.a's df, the walk tables' merged df and CollisionOver's means.
    for x in np.linspace(900.0, 1150.0, 11):
        assert chi2_pvalue(float(x), 1023) == gamma_tails_oracle(1023, x / 2)[1]
    for df in range(30, 101, 7):
        for x in (df * 0.5, df - 3.25, float(df), df + 7.5, df * 2.0):
            assert chi2_pvalue(x, df) == gamma_tails_oracle(df, x / 2)[1], (df, x)
    for lam, ks in ((127.9921875, range(64, 201, 17)), (31.99609375, range(8, 71, 9))):
        for k in ks:
            want = (gamma_tails_oracle(2 * k + 2, lam)[1], gamma_tails_oracle(2 * k, lam)[0])
            assert poisson_two_sided_pvalue(k, lam) == want, (lam, k)


def test_gamma_tails_at_zero_and_infinity():
    for two_a in (1, 2, 1023, 2**20):
        assert _gamma_tails(two_a, 0.0) == (0.0, 1.0)
        assert _gamma_tails(two_a, math.inf) == (1.0, 0.0)
    assert chi2_pvalue(math.inf, 3) == 0.0
    assert poisson_two_sided_pvalue(3, math.inf) == (0.0, 1.0)
    assert poisson_two_sided_pvalue(0, math.inf) == (0.0, 1.0)


@pytest.mark.parametrize(
    "two_a,x,tail",
    [
        (2, 714.0, 1),  # Q = e^-714, subnormal
        (3, 735.0, 1),
        (10, 748.0, 1),
        (2, 745.0, 1),  # the smallest subnormal
        (2, 750.0, 1),  # underflows to 0.0
        (1023, 1900.0, 1),  # serial.a's df, subnormal
        (1023, 2500.0, 1),  # 0.0
        (2, 5e-324, 0),  # P = 1 - e^-x, subnormal
        (4, 1e-160, 0),  # P ~ x^2 / 2, subnormal
        (4, 1e-170, 0),  # underflows to 0.0
    ],
)
def test_gamma_tails_round_to_subnormals_and_zero(two_a, x, tail):
    got = _gamma_tails(two_a, x)
    assert got == gamma_tails_oracle(two_a, x)
    assert got[tail] < sys.float_info.min


def _lines_run(fn, *args):
    """(fn(*args), lines of pvalues.py it ran): a measure of work that, unlike
    a clock, other processes on the host cannot move."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == pvalues.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, count


def test_gamma_tails_at_large_a_are_correctly_rounded_in_bounded_work():
    # A custom battery may ask for df = 2^20 cells or a count of 2^14. The
    # kernel takes ~sqrt(a) steps near x = a; a tail from a built anchor runs
    # one ~35-term loop.
    for two_a, xs in ((2**20, (2.0**19 - 1500.0, 2.0**19, 2.0**19 + 2000.5)), (2**15, (2.0**14 - 200.0, 2.0**14, 2.0**14 + 250.0))):
        for x in xs:
            pvalues._anchor.cache_clear()
            got, lines = _lines_run(_gamma_tails, two_a, x)
            assert lines < 40 * math.sqrt(two_a), (two_a, x, lines)
            assert got == gamma_tails_oracle(two_a, x), (two_a, x)
            again, lines = _lines_run(_gamma_tails, two_a, x + 0.75)
            assert lines < 200, (two_a, x, lines)
            assert again == gamma_tails_oracle(two_a, x + 0.75), (two_a, x)


# Each anchor serves [x0 - step/2, x0 + step/2]; check both ends, the grid
# point, the region's edges at a +- 6 sqrt(a), and x0 = 4 steps, the lowest.
@pytest.mark.parametrize("two_a", [32, 33, 36, 92, 96, 127, 128, 1023, 4097])
def test_anchored_tails_are_correctly_rounded_across_each_interval(two_a):
    a = two_a / 2
    step = _anchor_step(two_a)
    assert math.sqrt(a) / 4 < step <= math.sqrt(a) / 2
    reach = 6 * math.sqrt(a)
    xs = [a - reach, a + reach, max(4 * step - step / 2, a - reach)]
    for x0 in range(step * math.ceil((a - reach) / step), int(a + reach) + 1, step):
        xs += [x0 - step / 2, x0 - step / 2 + 2**-30, x0, x0 + step / 2 - 2**-30, x0 + step / 2]
    for x in xs:
        if _anchor_point(two_a, x) is None:
            continue
        assert _gamma_tails(two_a, x) == gamma_tails_oracle(two_a, x), x
    assert _anchor_point(two_a, a) is not None
    assert _anchor_point(two_a, a + reach * 1.01) is None
    assert _anchor_point(two_a, a - reach * 1.01) is None
    assert _anchor_point(31, 15.5) is None  # below a = 16 the kernel runs


def test_poisson_tails_take_one_kernel_run_and_are_cached(monkeypatch):
    runs = []
    exact = pvalues._exact_tails

    def spy(two_a, x):
        runs.append(two_a)
        return exact(two_a, x)

    monkeypatch.setattr(pvalues, "_exact_tails", spy)
    pvalues._poisson_tails.cache_clear()
    lam = 127.9921875
    for k in (0, 1, 100, 128, 160):
        want = poisson_tails_oracle(k, lam)
        assert poisson_two_sided_pvalue(k, lam) == want, k
        assert poisson_two_sided_pvalue(k, lam) == want, k
    assert runs == [2, 200, 256, 320]  # k = 0 is e^-lam alone


def test_stirling_bernoulli_numbers_are_exact():
    import mpmath

    for k, (num, den) in enumerate(_BERNOULLI, start=1):
        assert mpmath.bernoulli(2 * k) * den == num


def test_nan_statistics_are_refused():
    with pytest.raises(ValueError):
        chi2_pvalue(math.nan, 3)
    with pytest.raises(ValueError):
        poisson_two_sided_pvalue(3, math.nan)
