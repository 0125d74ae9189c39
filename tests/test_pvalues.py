"""Tail-probability helpers against independent high-precision oracles."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtstreams.stats import pvalues
from mtstreams.stats.pvalues import (
    _BERNOULLI,
    _gamma_tails,
    chi2_pvalue,
    merged_cells,
    poisson_left_pvalue,
)

from support import chi2_sf_oracle, gamma_tails_oracle, poisson_left_oracle


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
    assert poisson_left_pvalue(observed, lam) == poisson_left_oracle(observed, lam)


def test_poisson_tails_trivial_points():
    assert poisson_left_pvalue(0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-12)
    # P(X <= 2) for Poisson(1) = e^-1 (1 + 1 + 1/2).
    assert poisson_left_pvalue(2, 1.0) == pytest.approx(math.exp(-1.0) * 2.5, rel=1e-12)


def test_poisson_extreme_tail_underflows_to_zero():
    assert poisson_left_pvalue(0, 10000.0) == 0.0


def test_poisson_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poisson_left_pvalue(-1, 4.0)
    with pytest.raises(ValueError):
        poisson_left_pvalue(2, 0.0)


def _merged_chi2(observed, expected):
    """Chi-square p of observed counts over `merged_cells` of expected."""
    starts, cells = merged_cells(expected)
    o = np.add.reduceat(np.asarray(observed, dtype=np.int64), starts)
    e = np.array(cells)
    return chi2_pvalue(float(np.sum((o - e) ** 2 / e)), len(cells) - 1)


def test_merged_chi2_merges_small_cells():
    observed = [1, 2, 50, 47]
    expected = [1.5, 2.5, 48.0, 48.0]
    # First two cells merge into the third until every cell expects >= 5.
    assert merged_cells(expected) == ([0, 3], [52.0, 48.0])
    merged_obs = np.array([53, 47])
    merged_exp = np.array([52.0, 48.0])
    want = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    assert _merged_chi2(observed, expected) == chi2_pvalue(want, 1)


def test_merged_chi2_folds_deficient_tail():
    expected = [10.0, 10.0, 10.0, 1.0]
    assert merged_cells(expected) == ([0, 1, 2], [10.0, 10.0, 11.0])
    assert _merged_chi2([10, 10, 10, 1], expected) == 1.0
    # Off the null, the p-value shows both the statistic and the df: the
    # last cell (8 + 1 against 10 + 1) holds the deficient one.
    want = 4 / 10 + 0 / 10 + 4 / 11
    p = _merged_chi2([12, 10, 8, 1], expected)
    assert p == chi2_pvalue(want, 2)
    assert p not in (chi2_pvalue(want, 1), chi2_pvalue(want, 3))


def test_merged_chi2_exact_match_gives_p_one():
    expected = [20.0, 20.0, 20.0]
    assert merged_cells(expected) == ([0, 1, 2], expected)
    assert _merged_chi2([20, 20, 20], expected) == 1.0


def test_merged_chi2_rejects_degenerate_tables():
    with pytest.raises(ValueError, match="fewer than 2 cells"):
        merged_cells([4.0, 4.0])
    with pytest.raises(ValueError, match="below the merge threshold"):
        merged_cells([1.0, 1.0])


def test_pvalues_module_loads_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, mtstreams.stats.pvalues; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    for lam in (127.9921875, 31.99609375):
        for k in range(int(2 * lam) + 21):
            assert poisson_left_pvalue(k, lam) == gamma_tails_oracle(2 * k + 2, lam)[1], (lam, k)


def test_gamma_tails_at_zero_and_infinity():
    for two_a in (1, 2, 1023, 2**20):
        assert _gamma_tails(two_a, 0.0) == (0.0, 1.0)
        assert _gamma_tails(two_a, math.inf) == (1.0, 0.0)
    assert chi2_pvalue(math.inf, 3) == 0.0
    assert poisson_left_pvalue(3, math.inf) == 0.0
    assert poisson_left_pvalue(0, math.inf) == 0.0


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
    # kernel takes ~sqrt(a) steps near x = a, on every call.
    for two_a, xs in ((2**20, (2.0**19 - 1500.0, 2.0**19, 2.0**19 + 2000.5)), (2**15, (2.0**14 - 200.0, 2.0**14, 2.0**14 + 250.0))):
        for x in xs:
            for y in (x, x + 0.75):
                got, lines = _lines_run(_gamma_tails, two_a, y)
                assert lines < 40 * math.sqrt(two_a), (two_a, y, lines)
                assert got == gamma_tails_oracle(two_a, y), (two_a, y)


# The kernel near x = a, on a power-of-two grid of spacing step in
# (sqrt(a) / 4, sqrt(a) / 2] from 4 steps up: each grid point, the points
# half a step off and just inside them, and the edges at a +- 6 sqrt(a).
@pytest.mark.parametrize("two_a", [32, 33, 36, 92, 96, 127, 128, 1023, 4097])
def test_anchored_tails_are_correctly_rounded_across_each_interval(two_a):
    a = two_a / 2
    step = 1 << ((two_a >> 3).bit_length() - 1) // 2
    reach = 6 * math.sqrt(a)
    xs = [a - reach, a + reach, max(4 * step - step / 2, a - reach)]
    for x0 in range(step * math.ceil((a - reach) / step), int(a + reach) + 1, step):
        xs += [x0 - step / 2, x0 - step / 2 + 2**-30, x0, x0 + step / 2 - 2**-30, x0 + step / 2]
    for x in xs:
        if abs(x - a) > reach or round(x / step) < 4:
            continue
        assert _gamma_tails(two_a, x) == gamma_tails_oracle(two_a, x), x


def test_poisson_tails_take_one_kernel_run_and_are_cached(monkeypatch):
    runs = []
    exact = pvalues._exact_tails

    def spy(two_a, x):
        runs.append(two_a)
        return exact(two_a, x)

    monkeypatch.setattr(pvalues, "_exact_tails", spy)
    pvalues.poisson_left_pvalue.cache_clear()
    lam = 127.9921875
    for k in (0, 1, 100, 128, 160):
        want = poisson_left_oracle(k, lam)
        assert poisson_left_pvalue(k, lam) == want, k
        assert poisson_left_pvalue(k, lam) == want, k
    assert runs == [2, 4, 202, 258, 322]  # a = k + 1


def test_stirling_bernoulli_numbers_are_exact():
    import mpmath

    for k, (num, den) in enumerate(_BERNOULLI, start=1):
        assert mpmath.bernoulli(2 * k) * den == num


def test_nan_statistics_are_refused():
    with pytest.raises(ValueError):
        chi2_pvalue(math.nan, 3)
    with pytest.raises(ValueError):
        poisson_left_pvalue(3, math.nan)
