"""P-value machinery shared by the test families.

Each law returns one p-value: a chi-square statistic's right tail, and a
Poisson count's left tail, which includes the observed atom. Both come from
the regularized incomplete gamma functions P(a, x) and Q(a, x) = 1 - P(a, x):
a chi-square right tail is Q(df/2, x/2), and P(X <= k) = Q(k + 1, lam).

Every tail is computed from 36-digit ``decimal`` values and rounded once
to binary64, so it depends on no numerical library's version. The error
before that rounding grows with a and |x - a|, by about (a + |x - a|) *
10^-36 from the power (x / a)^a and the exponent a - x. Against mpmath at
60 digits, it stayed below 5e-32 (relative) for a up to ~5000 and reached
2e-30 at a = 2^19, x = 5a. A tail is thus the correctly rounded value,
unless the true one lies about that close to a rounding boundary.

:func:`_exact_tails` sums the power series or the continued fraction, about
sqrt(a) 36-digit steps near x = a. A Poisson tail is cached, since a test's
mean stays fixed and its count takes few values.
"""
from __future__ import annotations

import functools
import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

_DIGITS = 36
_PI = "3.14159265358979323846264338327950288419716939937510"
# B_2, B_4, ..., B_28 as (numerator, denominator). With these 14 terms,
# Stirling's series for ln Gamma(a) is off by less than 1e-46 for a >= 64.
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
)
_STIRLING_FROM_TWO_A = 128  # a >= 64
# A merged chi-square cell's least expected count (see `merged_cells`).
MIN_EXPECTED = 5.0
_CONTEXT = Context(prec=_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _prefactor(two_a: int, x: Decimal) -> Decimal:
    """x^a e^-x / Gamma(a) for a = two_a / 2, in the current decimal context.

    Below a = 64, Gamma(a) is an exact factorial form: (m - 1)! for a = m and
    (2m)! sqrt(pi) / (4^m m!) for a = m + 1/2. From a = 64 on, whose
    factorials grow to thousands of digits, Stirling's series gives
    x^a / Gamma(a) = sqrt(a / 2pi) (x / a)^a e^(a - S(a)), with
    S(a) = sum_k B_2k / (2k (2k - 1) a^(2k - 1)).
    """
    m, odd = divmod(two_a, 2)
    if two_a < _STIRLING_FROM_TWO_A:
        if odd:
            power = x**m * (x / Decimal(_PI)).sqrt() * (4**m * math.factorial(m)) / math.factorial(2 * m)
        else:
            power = x**m / math.factorial(m - 1)
        return power * (-x).exp()
    a = Decimal(two_a) / 2
    ratio = x / a
    power = ratio**m * ratio.sqrt() if odd else ratio**m
    inv_a2 = 1 / (a * a)
    series = Decimal(0)
    for k in range(len(_BERNOULLI), 0, -1):
        num, den = _BERNOULLI[k - 1]
        series = series * inv_a2 + Decimal(num) / (den * 2 * k * (2 * k - 1))
    return (a / (2 * Decimal(_PI))).sqrt() * power * (a - x - series / a).exp()


def _exact_tails(two_a: int, x: Decimal) -> tuple[Decimal, Decimal]:
    """(P(a, x), Q(a, x)) for a = two_a / 2 and a finite x > 0, as Decimals
    of the current context.

    With x < a + 1, P is the power series e^-x x^a / Gamma(a) * sum_n x^n /
    (a (a + 1) ... (a + n)); otherwise Q is Legendre's continued fraction,
    evaluated by Lentz's method. The other tail is the complement, which
    loses log10(1 / tail) digits: none past the switch, where Q <= ~0.5,
    and at most ~1.1 below it, where P < 0.92 for a >= 1/2.
    """
    a = Decimal(two_a) / 2
    prefactor = _prefactor(two_a, x)  # 0 below 10^MIN_EMIN
    # Stop two digits above one step's rounding, which a converged
    # continued fraction's delta may never get below.
    eps = Decimal(1).scaleb(2 - _DIGITS)
    if x < a + 1:
        term = total = 1 / a
        denom = a
        while term >= total * eps:
            denom += 1
            term = term * x / denom
            total += term
        p = prefactor * total
        return p, 1 - p
    # For x >= a + 1 both of Lentz's ratios, 1/d and c, stay >= i + 1, so
    # neither needs the method's usual guard against 0.
    b = x + 1 - a
    c = Decimal("Infinity")
    d = 1 / b
    h = d
    i = 0
    while True:
        i += 1
        an = Decimal(i * (two_a - 2 * i)) / 2  # -i (i - a)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1) < eps:
            break
    q = prefactor * h
    return 1 - q, q


def _gamma_tails(two_a: int, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for a = two_a / 2 > 0 and x >= 0, each rounded once."""
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    with localcontext(_CONTEXT):
        p, q = _exact_tails(two_a, Decimal(x))  # x exact
        return float(p), float(q)


def chi2_pvalue(x: float, df: int) -> float:
    """Right-tail P(X >= x) for a chi-square variable with df degrees."""
    if not x >= 0:  # unlike x < 0, this refuses NaN too
        raise ValueError(f"statistic must be >= 0, got {x}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return _gamma_tails(df, x / 2.0)[1]


@functools.lru_cache(maxsize=4096)
def poisson_left_pvalue(observed: int, lam: float) -> float:
    """P(X <= observed) under Poisson(lam), the atom included: Q(observed + 1,
    lam), from one kernel run. Cached, since a test's lam stays fixed."""
    if observed < 0:
        raise ValueError(f"observed count must be >= 0, got {observed}")
    if not lam > 0:
        raise ValueError(f"mean must be > 0, got {lam}")
    return _gamma_tails(2 * int(observed) + 2, lam)[1]


def merged_cells(expected: list[float]) -> tuple[list[int], list[float]]:
    """Each merged chi-square cell's first index and expectation.

    Cells are scanned in ascending index order and merged with their
    successors until each merged cell's expectation reaches MIN_EXPECTED;
    a deficient final cell is folded into the previous one.
    """
    ends: list[int] = []
    cells: list[float] = []
    acc = 0.0
    for i, e in enumerate(expected):
        acc += e
        if acc >= MIN_EXPECTED:
            ends.append(i + 1)
            cells.append(acc)
            acc = 0.0
    if acc > 0.0:
        if not cells:
            raise ValueError("total expectation below the merge threshold")
        cells[-1] += acc
    if len(cells) < 2:
        raise ValueError("fewer than 2 cells after merging")
    return [0] + ends[:-1], cells
