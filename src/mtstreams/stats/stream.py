"""Test-facing views over generator output.

Words are the only draws: a battery entry reads its words once, as one
array, and its family derives whatever it needs from them (uniforms as
w * 2^-32, bits from each word). A view's mode names the pathway its
results are reported under:

- ``Mode.INT``: statistics of the raw 32-bit outputs;
- ``Mode.REAL``: statistics of the binary64 uniforms, with words derived
  back as floor(u * 2^32).

For a 32-bit generator the real map is lossless, so both pathways read
the same numbers and a test runs once for both. No runtime check is
needed, because none could fail: every uint32 is exact in binary64 (32 of
53 significant bits), scaling by 2^-32 or 2^32 only moves the exponent,
and :meth:`StreamView.take_words` only ever returns uint32 words.
"""
from __future__ import annotations

import enum

import numpy as np

from mtstreams.mt19937 import MtState, MtStream


class Mode(enum.Enum):
    INT = "int"
    REAL = "real"


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
    """Sequential reader of words from one source.

    ``source`` is an :class:`MtState` or any object with a
    ``take(n) -> uint32 array`` method (a :class:`WordPrefix` in campaigns,
    fixtures in tests). A word array is refused: its ``take`` is NumPy's
    indexed take, not a read of the next words.
    """

    def __init__(self, source: MtState | object, mode: Mode | str) -> None:
        if isinstance(source, MtState):
            source = MtStream(source)
        elif isinstance(source, np.ndarray):
            raise TypeError("source is a word array; wrap it in WordPrefix to read it as a stream")
        if not callable(getattr(source, "take", None)):
            raise TypeError("source must be an MtState or expose take(n)")
        self._stream = source
        self.mode = Mode(mode)

    def take_words(self, n: int) -> np.ndarray:
        """n 32-bit words as uint32."""
        return self._stream.take(n)
