"""Test-facing views over generator output.

Words are the primary draws: uniforms in [0, 1) are derived as
w * 2^-32 and bits are read from each word most-significant-bit first. A
view's mode names the pathway its results are reported under:

- ``Mode.INT``: statistics of the raw 32-bit outputs;
- ``Mode.REAL``: statistics of the binary64 uniforms, with words derived
  back as floor(u * 2^32).

For a 32-bit generator the real map is lossless (every w * 2^-32 is exact
in binary64), so both pathways read the same numbers and a test runs once
for both. The campaign checks that claim on every word it reads with
:func:`check_real_map_lossless` before it reports real rows.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from mtstreams.mt19937 import MtState, MtStream

_TWO_NEG32 = 2.0**-32
_TWO_POS32 = 2.0**32


class Mode(enum.Enum):
    INT = "int"
    REAL = "real"


def to_uniforms(words: np.ndarray) -> np.ndarray:
    """The generator's real-output function: each word scaled into [0, 1)."""
    return words * _TWO_NEG32


def check_real_map_lossless(words: np.ndarray) -> None:
    """Raise ArithmeticError unless floor(to_uniforms(w) * 2^32) == w for every word."""
    back = to_uniforms(words)
    back *= _TWO_POS32
    np.floor(back, out=back)
    if not np.array_equal(back, words):
        raise ArithmeticError("the real map does not give back every word; real rows cannot reuse int results")


class WordPrefix:
    """Zero-copy reader over a word array, from its start.

    Each ``take`` returns the next slice of the array itself. A read past
    the end raises IndexError; it never returns a short array.
    """

    def __init__(self, words: np.ndarray) -> None:
        self._words = words
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        end = self._pos + n
        if end > self._words.size:
            raise IndexError(
                f"read of {n} words at draw {self._pos} passes the end of a {self._words.size}-word prefix"
            )
        out = self._words[self._pos : end]
        self._pos = end
        return out


class StreamView:
    """Sequential reader of words, uniforms, or bits from one source.

    ``source`` is an :class:`MtState` or any object with a
    ``take(n) -> uint32 array`` method (a :class:`WordPrefix` in campaigns,
    fixtures in tests). The cursor counts 32-bit draws consumed.
    """

    def __init__(self, source: MtState | object, mode: Mode | str) -> None:
        if isinstance(source, MtState):
            source = MtStream(source)
        if not callable(getattr(source, "take", None)):
            raise TypeError("source must be an MtState or expose take(n)")
        self._stream = source
        self.mode = Mode(mode)
        self._draws = 0

    @property
    def draws(self) -> int:
        return self._draws

    def take_words(self, n: int) -> np.ndarray:
        """n 32-bit words as uint32."""
        out = self._stream.take(n)
        self._draws += n
        return out

    def take_uniforms(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) as float64."""
        return to_uniforms(self.take_words(n))

    def take_bits(self, n_bits: int) -> np.ndarray:
        """n_bits bits (uint8 values 0/1), each word read MSB first.

        Consumes ceil(n_bits / 32) draws.
        """
        n_words = -(-n_bits // 32)
        words = self.take_words(n_words)
        bits = np.unpackbits(words.astype(">u4").view(np.uint8))
        return bits[:n_bits]

    def take_word_bits(self, n: int, bit_offset: int) -> np.ndarray:
        """One selected bit from each of n words; offset 0 is the MSB."""
        if not 0 <= bit_offset <= 31:
            raise ValueError(f"bit_offset must be in [0, 31], got {bit_offset}")
        words = self.take_words(n)
        return ((words >> np.uint32(31 - bit_offset)) & np.uint32(1)).astype(np.uint8)


def analytic_draws(family: str, params: dict) -> int:
    """Draws a family consumes for given parameters.

    This is the accounting contract the campaign sizes each status's shared
    word prefix by: a test that reads more than this raises.
    """
    if family == "LinearComp":
        return int(params["n_bits"])
    if family == "CollisionOver":
        return int(params["n"]) + int(params["t"]) - 1
    if family == "ClosePairs":
        return int(params["n"]) * int(params["t"])
    if family == "RandomWalk1":
        return math.ceil(int(params["walks"]) * int(params["steps"]) / 32)
    if family == "SerialUniformity":
        return int(params["n"])
    raise ValueError(f"unknown family: {family}")
