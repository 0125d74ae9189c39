"""Test-facing views over generator output.

Words are the only draws: a battery entry reads its words once, as one
array, and its family derives whatever it needs from them (uniforms as
w * 2^-32, bits from each word). A view reads one of two sources: an
:class:`MtState`, drawn through :class:`MtStream`, or a 1-D ``uint32``
word array, such as the prefix a campaign generates once per status. A
view's mode names the pathway its results are reported under:

- ``Mode.INT``: statistics of the raw 32-bit outputs;
- ``Mode.REAL``: statistics of the binary64 uniforms, with words derived
  back as floor(u * 2^32).

For a 32-bit generator the real map is lossless, so both pathways read
the same numbers and a test runs once for both; README "Modes" says why
no runtime check is needed.
"""
from __future__ import annotations

import enum

import numpy as np

from mtstreams.mt19937 import MtState, MtStream


class Mode(enum.Enum):
    INT = "int"
    REAL = "real"


class StreamView:
    """Sequential reader of words from an :class:`MtState` or a word array.

    An array is read from its start, as successive slices of the array
    itself; a read past its end raises IndexError, never a short read.
    """

    def __init__(self, source: MtState | np.ndarray, mode: Mode | str) -> None:
        if isinstance(source, MtState):
            self._stream = MtStream(source)
        elif isinstance(source, np.ndarray) and source.ndim == 1 and source.dtype == np.uint32:
            self._stream = None
            self._words = source
            self._pos = 0
        else:
            raise TypeError("source must be an MtState or a 1-D uint32 word array")
        self.mode = Mode(mode)

    def take_words(self, n: int) -> np.ndarray:
        """n 32-bit words as uint32."""
        if self._stream is not None:
            return self._stream.take(n)
        end = self._pos + n
        if end > self._words.size:
            raise IndexError(f"read of {n} words at draw {self._pos} passes the end of a {self._words.size}-word array")
        out = self._words[self._pos : end]
        self._pos = end
        return out
