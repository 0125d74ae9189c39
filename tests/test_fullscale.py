"""Internal consistency of the full-scale documentation fixtures.

These assertions only cross-check the embedded reference numbers against
each other (row sums, percentages, bounds, a Poisson fit); nothing here
runs a campaign or compares desk-scale results to them.
"""
import math

from mtstreams.fullscale import (
    FULL_SCALE_BATTERY_SIZE,
    FULL_SCALE_HISTOGRAM,
    FULL_SCALE_SPLIT_SPACING,
    FULL_SCALE_STATUS_COUNT,
    FULL_SCALE_SUSPECTS,
    FULL_SCALE_TOP_TESTS,
)


def test_histogram_rows_sum_to_suspect_counts():
    assert set(FULL_SCALE_HISTOGRAM) == set(FULL_SCALE_SUSPECTS)
    for key, hist in FULL_SCALE_HISTOGRAM.items():
        assert sum(hist.values()) == FULL_SCALE_SUSPECTS[key][0], key


def test_percentages_match_counts():
    for key, (count, percent) in FULL_SCALE_SUSPECTS.items():
        exact = 100.0 * count / FULL_SCALE_STATUS_COUNT
        # The reference report truncates to two decimals, so allow one ulp
        # of the printed precision.
        assert abs(exact - percent) < 0.011, (key, exact, percent)


def test_no_status_fails_more_than_six_tests():
    for hist in FULL_SCALE_HISTOGRAM.values():
        assert max(hist) <= 6
        assert min(hist) >= 3
        assert all(v > 0 for v in hist.values())
    assert FULL_SCALE_BATTERY_SIZE == 106


def test_top_tests_reference_implemented_families():
    implemented = {"CollisionOver", "ClosePairs", "RandomWalk1"}
    for slug, by_technique in FULL_SCALE_TOP_TESTS.items():
        number, family = slug.split(":")
        assert number.isdigit()
        assert family in implemented, slug
        assert set(by_technique) == {"indexed", "random", "split"}
        assert all(0.0 < v < 100.0 for v in by_technique.values())


def test_top_tests_sorted_by_indexed_column():
    values = [v["indexed"] for v in FULL_SCALE_TOP_TESTS.values()]
    assert values == sorted(values, reverse=True)
    assert FULL_SCALE_SPLIT_SPACING == 10**12


def test_histograms_fit_poisson_unexpected_failures():
    # A status fails the two expected tests plus N ~ Poisson(lam) others, with
    # lam fitted from the Suspect share P(N >= 1) = 1 - e^-lam. The 3-, 4- and
    # >= 5-failure counts stay below chi-square 6.63 (p = 0.01, df 1).
    for key, (suspects, _) in FULL_SCALE_SUSPECTS.items():
        lam = -math.log(1 - suspects / FULL_SCALE_STATUS_COUNT)
        one = FULL_SCALE_STATUS_COUNT * lam * math.exp(-lam)
        two = one * lam / 2
        hist = FULL_SCALE_HISTOGRAM[key]
        observed = (hist[3], hist[4], suspects - hist[3] - hist[4])
        expected = (one, two, suspects - one - two)
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < 6.63, (key, lam, chi2)
