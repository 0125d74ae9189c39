"""Independent oracles and fixtures shared by the test modules.

Everything here is deliberately implemented from definitions (or via a
third-party numerical library), not by calling the package's own code, so
tests compare two independent routes to the same answer.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st


_U1 = np.uint32(1)
_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)


def twist_words(mt: np.ndarray) -> None:
    """Regenerate all 624 MT19937 words in place, vectorized with NumPy.

    Segment bounds follow the in-place data dependencies of the reference
    loop: words [227, 454) and [454, 623) read freshly written words.
    """
    N, M = 624, 397
    y = np.empty(N, dtype=np.uint32)
    y[: N - 1] = (mt[: N - 1] & _UPPER) | (mt[1:] & _LOWER)
    f = (y[: N - 1] >> _U1) ^ np.where(y[: N - 1] & _U1, _MATRIX_A, 0).astype(np.uint32)
    upper_last = mt[N - 1] & _UPPER

    mt[: N - M] = mt[M:] ^ f[: N - M]
    mt[N - M : 2 * (N - M)] = mt[: N - M] ^ f[N - M : 2 * (N - M)]
    mt[2 * (N - M) : N - 1] = mt[N - M : M - 1] ^ f[2 * (N - M) : N - 1]
    y_last = upper_last | (mt[0] & _LOWER)
    mt[N - 1] = mt[M - 1] ^ (y_last >> _U1) ^ (_MATRIX_A if y_last & _U1 else np.uint32(0))


def untemper_words(words: np.ndarray) -> np.ndarray:
    """Inverse tempering of a uint32 array, vectorized with NumPy."""
    y = words.astype(np.uint32, copy=True)
    y ^= y >> 18
    y ^= (y << 15) & np.uint32(0xEFC60000)
    x = y.copy()
    for _ in range(4):
        x = y ^ ((x << 7) & np.uint32(0x9D2C5680))
    y = x
    y ^= (y >> 11) ^ (y >> 22)
    return y


def untempered_draws(words: np.ndarray, mti: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """n draws from the MT19937 status (words, mti), before tempering.

    A block is twisted by :func:`twist_words` only when a draw needs it.
    Returns the drawn words and the status after them as (words, mti).
    """
    mt = np.array(words, dtype=np.uint32, copy=True)
    out = np.empty(n, dtype=np.uint32)
    pos = 0
    while pos < n:
        if mti == 624:
            twist_words(mt)
            mti = 0
        k = min(624 - mti, n - pos)
        out[pos : pos + k] = mt[mti : mti + k]
        mti += k
        pos += k
    return out, mt, mti


def splitmix32_words(seed: int, n: int) -> np.ndarray:
    """n words of a nonlinear control generator: the 64-bit SplitMix mixer
    from ``seed``, top 32 bits.

    Used where a test needs a stream that is NOT GF(2)-linear (its linear
    complexity behaves generically).
    """
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(32)).astype(np.uint32)


def constant_words(value: int, n: int) -> np.ndarray:
    """Degenerate words: n copies of the same 32-bit value."""
    return np.full(n, value, dtype=np.uint32)


def real_derived_words(words: np.ndarray) -> np.ndarray:
    """Words taken the long way round: each word w becomes the binary64
    uniform w / 2^32, and is recovered as floor(u * 2^32).

    An independent route to the real pathway's words, for checking that
    real-mode results equal int-mode results.
    """
    u = words.astype(np.float64) / 4294967296.0
    return np.floor(u * 4294967296.0).astype(np.uint32)


def lcg_words(a: int, c: int, n: int, bits: int = 32) -> np.ndarray:
    """x_1 ... x_n of the LCG x <- (a x + c) mod 2^bits from x_0 = 1, each
    shifted to the top of a 32-bit word."""
    mask = (1 << bits) - 1
    x, out = 1, []
    for _ in range(n):
        x = (a * x + c) & mask
        out.append(x)
    return np.array(out, dtype=np.uint32) << np.uint32(32 - bits)


def defective_sources(n: int) -> dict[str, np.ndarray]:
    """n words from each source of the positive-control matrix, by name.

    "mt" is the control: MT19937 from init_genrand(5489), by NumPy's legacy
    engine, whose full-range uint32 draws are its tempered words. The rest
    are LCGs and MT words with a stuck bit or a repeated block.
    """
    mt = np.random.RandomState(5489).randint(0, 2**32, n, dtype=np.uint32)
    return {
        "mt": mt,
        "lcg 69069": lcg_words(69069, 1, n),
        "lcg 1664525": lcg_words(1664525, 1013904223, n),
        "randu": lcg_words(65539, 0, n, bits=31),
        "lcg 3": lcg_words(3, 1, n),
        "mt top bit 1": mt | np.uint32(1 << 31),
        "mt low bit 0": mt & np.uint32(0xFFFFFFFE),
        **{f"mt repeat 2^{k}": np.resize(mt[: 1 << k], n) for k in (12, 15, 18)},
    }


class HalfWriteThenFail:
    """Stand-in for ``open`` whose file writes half the data, then fails
    with a full disk: a write that stops partway."""

    def __init__(self, path, mode="r") -> None:
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def write(self, data) -> int:
        self._fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


class RecordingContext:
    """Stands in for ``ProcessPoolExecutor``: each pool it is asked for
    records its worker count, starts no process and runs the work in this one."""

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def __call__(self, max_workers: int, **options) -> "RecordingContext":
        self.sizes.append(max_workers)
        return self

    def map(self, fn, *iterables) -> list:
        return list(map(fn, *iterables))

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


def textbook_bm(bits) -> int:
    """Berlekamp-Massey from the textbook polynomial formulation."""
    bits = [int(b) for b in bits]
    n = len(bits)
    c = [1] + [0] * n
    b = [1] + [0] * n
    deg = 0
    last = -1
    for i in range(n):
        d = bits[i]
        for j in range(1, deg + 1):
            d ^= c[j] & bits[i - j]
        if d:
            t = c[:]
            shift = i - last
            for j in range(n + 1 - shift):
                c[j + shift] ^= b[j]
            if 2 * deg <= i:
                deg = i + 1 - deg
                b = t
                last = i
    return deg


def bit_by_bit_bm(bits) -> int:
    """Berlekamp-Massey on packed integers, reading one discrepancy per step.

    Each step shifts the whole discrepancy integer to read one bit, so it
    shares no run skipping with the package's function. An oracle for
    sequences too long for :func:`textbook_bm`.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.size
    s = int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")
    sb = s
    sc = s
    deg_c = 0
    m = 0
    for i in range(n):
        disc = (sc >> m) & 1
        m += 1
        if disc:
            sc >>= m
            m = 0
            if 2 * deg_c <= i:
                sb, sc = sc, sb
                deg_c = i + 1 - deg_c
            sc ^= sb
    return deg_c


def connection_polynomial_bm(bits) -> tuple[int, int]:
    """Berlekamp-Massey that also returns the connection polynomial.

    Returns (L, c): bit j of the integer c is the coefficient c_j of
    C(x) = 1 + c_1 x + ... + c_L x^L, and s[i] = XOR of c_j s[i - j] over
    1 <= j <= L for every L <= i < n. Each discrepancy is the parity of C
    ANDed with the bits read backwards from position i, so this shares
    no code with the package's function.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.size
    # Bit n - 1 - i of the integer is s[i], so shifting right by n - 1 - i
    # puts s[i - j] at bit j.
    rev = int.from_bytes(np.packbits(arr[::-1], bitorder="little").tobytes(), "little")
    c = b = 1
    deg = 0
    last = -1
    for i in range(n):
        if ((rev >> (n - 1 - i)) & c).bit_count() & 1:
            t = c
            c ^= b << (i - last)
            if 2 * deg <= i:
                deg = i + 1 - deg
                b = t
                last = i
    return deg, c


def complexity_count(l: int, n: int) -> int:
    """Number of length-n bit sequences with linear complexity exactly l."""
    if not 0 <= l <= n:
        raise ValueError(f"complexity must be in [0, {n}], got {l}")
    if l == 0:
        return 1
    return 1 << min(2 * l - 1, 2 * (n - l))


def binomial_h_law(l: int) -> list[Fraction]:
    return [Fraction(math.comb(l, h), 2**l) for h in range(l + 1)]


def reflection_m_law(l: int) -> list[Fraction]:
    """P(M = m) by the reflection principle: P(M >= r) = P(S = r) + 2 P(S > r)."""

    def p_final(s: int) -> Fraction:
        if (l + s) % 2 or abs(s) > l:
            return Fraction(0)
        return Fraction(math.comb(l, (l + s) // 2), 2**l)

    def p_ge(r: int) -> Fraction:
        if r <= 0:
            return Fraction(1)
        return p_final(r) + 2 * sum(p_final(s) for s in range(r + 1, l + 1))

    return [p_ge(m) - p_ge(m + 1) for m in range(l + 1)]


def returns_r_law(l: int) -> list[Fraction]:
    """P(R = r) = C(l - r, l/2) * 2^(r - l) for the symmetric walk."""
    assert l % 2 == 0
    return [Fraction(math.comb(l - r, l // 2), 2 ** (l - r)) for r in range(l // 2 + 1)]


def dp_walk_laws(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, M, R) laws by float64 dynamic programming over walk states.

    Shares no formula with the closed forms: each step moves the mass of
    every (statistic, position) state half up and half down. O(l^3).
    """
    h = np.zeros(l + 1)
    h[0] = 1.0
    for _ in range(l):
        h[1:] = 0.5 * (h[1:] + h[:-1])
        h[0] = 0.5 * h[0]

    # M: state (running max m, position p), p <= m. A step up from the
    # diagonal p = m is the only transition that raises the max.
    off = l
    dp = np.zeros((l + 1, 2 * l + 1))
    new = np.zeros_like(dp)
    dp[0, off] = 1.0
    cols = np.arange(-l, l + 1)
    below_max = cols[np.newaxis, :] < np.arange(l + 1)[:, np.newaxis]
    diag_m = np.arange(l)
    diag_c = off + diag_m
    for _ in range(l):
        new[:] = 0.0
        new[:, :-1] += 0.5 * dp[:, 1:]
        new[:, 1:] += 0.5 * np.where(below_max[:, :-1], dp[:, :-1], 0.0)
        new[diag_m + 1, diag_c + 1] += 0.5 * dp[diag_m, diag_c]
        dp, new = new, dp
    m = dp.sum(axis=1)

    # R: state (returns so far r, position p); a step landing on p = 0
    # moves the mass to the next return count.
    dp = np.zeros((l // 2 + 1, 2 * l + 1))
    new = np.zeros_like(dp)
    dp[0, off] = 1.0
    for _ in range(l):
        new[:] = 0.0
        new[:, :-1] += 0.5 * dp[:, 1:]
        new[:, 1:] += 0.5 * dp[:, :-1]
        landed = new[:, off].copy()
        new[:, off] = 0.0
        new[1:, off] = landed[:-1]
        dp, new = new, dp
    r = dp.sum(axis=1)
    return h, m, r


def chi2_sf_oracle(x: float, df: int) -> float:
    """Right-tail chi-square probability by adaptive quadrature (mpmath)."""
    from mpmath import gamma, mp, mpf, quad

    mp.dps = 40
    k = mpf(df) / 2

    def density(t):
        return t ** (k - 1) * mp.e ** (-t / 2) / (mpf(2) ** k * gamma(k))

    if x <= 0:
        return 1.0
    return float(quad(density, [mpf(x), mp.inf]))


def merged_chi2_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square right-tail p after ascending adjacent-cell merging.

    Cells are scanned in ascending index order and merged with their
    successors until each merged cell's expectation reaches MIN_EXPECTED;
    a deficient final cell is folded into the previous one.

    The package's merge done again on every table, kept as the reference
    for the cells that `mtstreams.stats.families` merges once per law.
    """
    from mtstreams.stats.pvalues import MIN_EXPECTED, chi2_pvalue

    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must have equal length")
    obs_cells: list[float] = []
    exp_cells: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(observed.tolist(), expected.tolist()):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
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
    return chi2_pvalue(float(np.sum((o_arr - e_arr) ** 2 / e_arr)), len(exp_cells) - 1)


def poisson_left_oracle(k: int, lam: float) -> float:
    """P(X <= k) by direct high-precision summation (mpmath)."""
    from mpmath import factorial, mp, mpf

    mp.dps = 60
    lam_mp = mpf(lam)
    return float(sum(mp.e ** (-lam_mp) * lam_mp**i / factorial(i) for i in range(k + 1)))


def gamma_tails_oracle(two_a: int, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for a = two_a / 2 at 60 digits (mpmath), each
    rounded to binary64."""
    import mpmath

    with mpmath.mp.workdps(60):
        a = mpmath.mpf(two_a) / 2
        p = mpmath.gammainc(a, 0, x, regularized=True)
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        return float(p), float(q)


def brute_force_min_toroidal_distance(points: np.ndarray) -> float:
    """Minimal pairwise Euclidean distance on the unit torus, over all
    n(n-1)/2 pairs: each coordinate difference wrapped as min(|d|, 1 - |d|),
    the squares added one coordinate at a time in order 0..t-1."""
    n, t = points.shape
    best = math.inf
    for i in range(n - 1):
        squares = np.zeros(n - 1 - i)
        for j in range(t):
            diff = np.abs(points[i + 1 :, j] - points[i, j])
            diff = np.minimum(diff, 1.0 - diff)
            squares += diff * diff
        best = min(best, float(squares.min()))
    return math.sqrt(best)


def bit_lane(words: np.ndarray, bit_offset: int) -> np.ndarray:
    """Bit ``bit_offset`` (0 is the MSB) of each word: the sequence a
    LinearComp entry reads."""
    return ((words >> np.uint32(31 - bit_offset)) & np.uint32(1)).astype(np.uint8)


def brute_force_collisions(uniforms: np.ndarray, n: int, d: int, t: int) -> int:
    """Collision count of overlapping t-tuples by a plain dictionary."""
    seen: set[tuple[int, ...]] = set()
    collisions = 0
    for i in range(n):
        cell = tuple(min(int(uniforms[i + j] * d), d - 1) for j in range(t))
        if cell in seen:
            collisions += 1
        else:
            seen.add(cell)
    return collisions


def toy_overlap_frequency(
    period_log2: int, streams: int, length: int, trials: int, seed: int = 987654321
) -> float:
    """Monte Carlo overlap frequency for streams on a full-period cycle.

    Start offsets are uniform on the cycle; two streams of `length` draws
    overlap iff the circular gap between their starts is below `length`.
    """
    period = 1 << period_log2
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.integers(0, period, size=(trials, streams)), axis=1)
    gaps = np.diff(starts, axis=1)
    wrap = period - (starts[:, -1] - starts[:, 0])
    min_gap = np.minimum(gaps.min(axis=1), wrap)
    return float(np.mean(min_gap < length))


# Bytes a mutation writes: any byte, or one with a meaning in a status,
# battery or results file, so that a few edits can still parse.
_EDIT_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789.-+eE,:{}[]" \\u\r\n\t'))


@st.composite
def mutations(draw, data: bytes, max_edits: int = 3) -> bytes:
    """``data`` after 1 to ``max_edits`` edits, each replacing, inserting or
    deleting one byte."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, max_edits))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert":
            data.insert(at, draw(_EDIT_BYTES))
        elif at < len(data):
            if edit == "replace":
                data[at] = draw(_EDIT_BYTES)
            else:
                del data[at]
    return bytes(data)


def _p_value_text(p) -> str:
    """A finite float p-value to 17 significant digits, as the writer prints
    it; anything else (NaN, a bool, a string) as JSON prints it."""
    return f"{p:.17g}" if type(p) is float and math.isfinite(p) else json.dumps(p)


def record_line(rec) -> str:
    """A parsed results record printed in the writer's form: the meta as
    sorted compact JSON, a row compact in its own key order, with its
    p-values to 17 significant digits. So an unedited file's records print
    back to its own lines."""
    if not isinstance(rec, dict) or rec.get("type") == "meta":
        return json.dumps(rec, sort_keys=True, separators=(",", ":"))
    fields = []
    for key, value in rec.items():
        if key == "p_values" and isinstance(value, dict):
            text = "{" + ",".join(f"{json.dumps(k)}:{_p_value_text(p)}" for k, p in value.items()) + "}"
        else:
            text = json.dumps(value, separators=(",", ":"))
        fields.append(f"{json.dumps(key)}:{text}")
    return "{" + ",".join(fields) + "}"


def damaged_results(path) -> dict[str, str]:
    """Copies of a valid results file, each broken in one way a reader must
    reject: a lost last line, a repeated row, a row for a status or a mode
    the meta record does not list, a verdict that is neither Pass nor Fail,
    a verdict its own p-values contradict, a meta line or a row that is
    valid JSON but not an object, a draw count that is a string, is
    negative or is a bool, p-values that are empty or a list of pairs, and
    a p-value that is NaN, a bool, above 1 or negative.

    Then one-row edits that parse to the same record but are not the bytes
    the writer prints: a p-value in shortest or in exponent form, "draws"
    before "verdict", a space after each colon, the verdict's first letter
    as a \\u escape, and a CRLF line end."""
    lines = Path(path).read_text(encoding="ascii").splitlines(keepends=True)
    meta = json.loads(lines[0])
    first = json.loads(lines[1])
    unknown = dict(first, index=1 + max(s["index"] for s in meta["statuses"]))
    one_mode = dict(meta, modes=meta["modes"][:1])
    bad_verdict = dict(first, verdict=first["verdict"].lower())
    flipped = dict(first, verdict={"Pass": "Fail", "Fail": "Pass"}[first["verdict"]])
    draws_first = {k: first[k] for k in first if k != "verdict"} | {"verdict": first["verdict"]}
    letter = first["verdict"][0]

    def with_first_row(rec: dict) -> str:
        return "".join([lines[0], record_line(rec) + "\n"] + lines[2:])

    def with_p_value(p) -> str:
        """The first row with its first p-value replaced by p, and the verdict
        that the rule "fail if p < eps or p > 1 - eps" gives, so that only
        the p-value is wrong."""
        eps = meta["threshold"]
        p_values = dict(first["p_values"], **{next(iter(first["p_values"])): p})
        fails = any(q < eps or q > 1 - eps for q in p_values.values())
        return with_first_row(dict(first, p_values=p_values, verdict="Fail" if fails else "Pass"))

    def reprinted(form) -> str:
        """The first p-value that ``form`` prints otherwise than the writer,
        so printed: the same number in other bytes."""
        for n, line in enumerate(lines[1:], start=1):
            for key, p in json.loads(line)["p_values"].items():
                if type(p) is float and form(p) != f"{p:.17g}":
                    edited = line.replace(f'"{key}":{p:.17g}', f'"{key}":{form(p)}', 1)
                    return "".join(lines[:n] + [edited] + lines[n + 1 :])
        raise AssertionError("every p-value prints the same in that form")

    return {
        "truncated": "".join(lines[:-1]),
        "duplicated": "".join(lines + lines[-1:]),
        "unknown_status": "".join(lines + [record_line(unknown) + "\n"]),
        "unknown_mode": "".join([record_line(one_mode) + "\n"] + lines[1:]),
        "bad_verdict": with_first_row(bad_verdict),
        "flipped_verdict": with_first_row(flipped),
        "meta_not_object": "".join(["[]\n"] + lines[1:]),
        "row_list": "".join(lines[:1] + ["[1, 2]\n"] + lines[1:]),
        "row_string": "".join(lines + ['"x"\n']),
        "draws_string": with_first_row(dict(first, draws="many")),
        "draws_negative": with_first_row(dict(first, draws=-1)),
        "draws_bool": with_first_row(dict(first, draws=True)),
        "p_values_empty": with_first_row(dict(first, p_values={}, verdict="Pass")),
        "p_values_pairs": with_first_row(dict(first, p_values=[[k, p] for k, p in first["p_values"].items()])),
        "p_value_nan": with_p_value(math.nan),
        "p_value_bool": with_p_value(True),
        "p_value_above_one": with_p_value(1.5),
        "p_value_negative": with_p_value(-0.5),
        "p_value_shortest": reprinted(repr),
        "p_value_exponent": reprinted(lambda p: f"{p:.16e}"),
        "draws_before_verdict": with_first_row(draws_first),
        "space_after_colon": "".join([lines[0], lines[1].replace('":', '": ')] + lines[2:]),
        "verdict_escaped": "".join(
            [lines[0], lines[1].replace(f'"verdict":"{letter}', f'"verdict":"\\u{ord(letter):04x}', 1)] + lines[2:]
        ),
        "crlf": "".join([lines[0], lines[1][:-1] + "\r\n"] + lines[2:]),
    }


def _meta(**changes):
    """An edit that sets meta keys; a value of None deletes the key."""

    def edit(meta, rows):
        meta = {k: v for k, v in dict(meta, **changes).items() if v is not None}
        return meta, rows

    return edit


def _first_status(**changes):
    def edit(meta, rows):
        return dict(meta, statuses=[dict(meta["statuses"][0], **changes)] + meta["statuses"][1:]), rows

    return edit


def _each_row(change):
    return lambda meta, rows: (meta, [dict(row, **change(row)) for row in rows])


def _modes_disagree(meta, rows):
    """Status 0's first real row gets another p-value that keeps its verdict."""
    i = next(i for i, row in enumerate(rows) if row["index"] == 0 and row["mode"] == "real")
    assert rows[i]["verdict"] == "Pass"  # so a p-value of 0.5 or 0.25 keeps it
    p_values = dict(rows[i]["p_values"])
    key = next(iter(p_values))
    p_values[key] = 0.5 if p_values[key] != 0.5 else 0.25
    return meta, rows[:i] + [dict(rows[i], p_values=p_values)] + rows[i + 1 :]


def _status_0_p_values(test_id, change):
    """Status 0's rows of ``test_id``, in every mode, get the p-values
    ``change`` makes of theirs, and the verdict those give."""

    def edit(meta, rows):
        eps = meta["threshold"]

        def edited(row):
            if (row["index"], row["test_id"]) != (0, test_id):
                return row
            p_values = change(row["p_values"])
            fails = any(p < eps or p > 1 - eps for p in p_values.values())
            return dict(row, p_values=p_values, verdict="Fail" if fails else "Pass")

        return meta, [edited(row) for row in rows]

    return edit


def _edit_first_definition(**changes):
    def edit(meta, rows):
        definition = meta["battery_definition"]
        tests = [dict(definition["tests"][0], **changes)] + definition["tests"][1:]
        return dict(meta, battery_definition=dict(definition, tests=tests)), rows

    return edit


def _edit_first_params(meta, rows):
    definition = meta["battery_definition"]
    params = dict(definition["tests"][0]["params"])
    params[next(iter(params))] += 1
    tests = [dict(definition["tests"][0], params=params)] + definition["tests"][1:]
    return dict(meta, battery_definition=dict(definition, tests=tests)), rows


# Edits of a valid results file, (meta, rows) -> (meta, rows), each making its
# meta record disagree with its battery or with itself, or its rows disagree
# with the meta or across modes in a way `damaged_results` does not cover: a
# wrong value, a key no builder gives, a sub-statistic its test does not give,
# or rows out of the writer's order. They need a mini-crush-v1 file in two
# modes whose first status has index 0 and passes its first test by id.
INCONSISTENCIES = {
    "no_battery_definition": _meta(battery_definition=None),
    "fingerprint_zeros": _meta(fingerprint="0" * 64),
    "battery_sha256_zeros": _meta(battery_sha256="0" * 64),
    "battery_renamed": _meta(battery="other"),
    "test_ids_reordered": lambda meta, rows: (dict(meta, test_ids=meta["test_ids"][::-1]), rows),
    "test_id_twice": lambda meta, rows: (dict(meta, test_ids=meta["test_ids"] + meta["test_ids"][:1]), rows),
    "definition_edited": _edit_first_params,
    "threshold_doubled": lambda meta, rows: (dict(meta, threshold=2 * meta["threshold"]), rows),
    "threshold_half": _meta(threshold=0.5),
    "version_edited": lambda meta, rows: (dict(meta, version=meta["version"] + "x"), rows),
    "mode_twice": lambda meta, rows: (dict(meta, modes=meta["modes"] + meta["modes"][:1]), rows),
    "mode_unknown": lambda meta, rows: (dict(meta, modes=meta["modes"] + ["complex"]), rows),
    "status_twice": lambda meta, rows: (dict(meta, statuses=meta["statuses"] + meta["statuses"][:1]), rows),
    "statuses_reversed": lambda meta, rows: (dict(meta, statuses=meta["statuses"][::-1]), rows),
    "index_float": _first_status(index=0.0),
    "index_false": _first_status(index=False),
    "index_negative": _first_status(index=-1),
    "sha256_nothex": _first_status(sha256="nothex"),
    "sha256_upper": _first_status(sha256="A" * 64),
    "sha256_newline": _first_status(sha256="a" * 64 + "\n"),
    "technique_unknown": _first_status(technique="other"),
    "row_draws_7": lambda meta, rows: (
        meta,
        [dict(row, draws=7) if row["test_id"] == meta["test_ids"][0] else row for row in rows],
    ),
    "row_draws_float": _each_row(lambda row: {"draws": float(row["draws"])}),
    "row_index_float": _each_row(lambda row: {"index": float(row["index"])}),
    "modes_disagree": _modes_disagree,
    "substatistic_dropped": _status_0_p_values("randomwalk.a", lambda p: {k: v for k, v in p.items() if k != "M"}),
    "substatistic_renamed": _status_0_p_values("serial.a", lambda p: {"chi_square": p["chi2"]}),
    "meta_extra_key": _meta(note="extra"),
    "status_extra_key": _first_status(note="extra"),
    "definition_extra_key": _edit_first_definition(note="extra"),
    "row_extra_key": _each_row(lambda row: {"note": "extra"}),
    "rows_swapped": lambda meta, rows: (meta, rows[1::-1] + rows[2:]),
}


def inconsistent_results(path, name: str | None) -> str:
    """The results file at path with the edit INCONSISTENCIES[name] applied
    (None: no edit), each record printed by :func:`record_line`."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    meta, rows = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    if name is not None:
        meta, rows = INCONSISTENCIES[name](meta, rows)
    return "".join(record_line(rec) + "\n" for rec in [meta, *rows])


def recompute_tables_from_jsonl(path, expected_fail_ids) -> dict:
    """Reconciliation: rebuild summary/histogram/pertest with plain loops.

    Intentionally shares no code with the package's aggregation; reads the
    raw JSONL records and recounts everything with dictionaries.
    """
    expected = set(expected_fail_ids)
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    units: dict[tuple[str, int, str], list[dict]] = {}
    for rec in records:
        units.setdefault((rec["technique"], rec["index"], rec["mode"]), []).append(rec)

    def failed_ids(recs: list[dict]) -> set[str]:
        return {r["test_id"] for r in recs if r["verdict"] == "Fail"}

    summary: dict[tuple[str, str], dict] = {}
    histogram: dict[tuple[str, str], dict[int, int]] = {}
    for (technique, index, mode), recs in units.items():
        key = (technique, mode)
        row = summary.setdefault(key, {"statuses": 0, "suspects": 0})
        row["statuses"] += 1
        fails = failed_ids(recs)
        if not fails <= expected:
            row["suspects"] += 1
            hist = histogram.setdefault(key, {})
            hist[len(fails)] = hist.get(len(fails), 0) + 1

    pertest: dict[tuple[str, str, str], dict] = {}
    for (technique, index, mode), recs in units.items():
        for rec in recs:
            key = (rec["test_id"], technique, mode)
            row = pertest.setdefault(key, {"fails": 0, "statuses": 0})
            row["statuses"] += 1
            row["fails"] += rec["verdict"] == "Fail"

    return {
        "summary": {
            key: (row["suspects"], row["statuses"], row["suspects"] / row["statuses"])
            for key, row in summary.items()
        },
        "histogram": histogram,
        "pertest": {
            key: row["fails"] / row["statuses"] for key, row in pertest.items()
        },
    }
