"""Bit-exact 32-bit Mersenne Twister (MT19937) core.

A generator status is 624 unsigned 32-bit words plus an index; it is held
in an immutable value object, and every operation returns a fresh status.
The recurrence, tempering, and 2002 seeding match the canonical reference
implementation word for word (verified against frozen reference outputs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N = 624
M = 397
MATRIX_A = 0x9908B0DF
UPPER_MASK = 0x80000000
LOWER_MASK = 0x7FFFFFFF
WORD_MASK = 0xFFFFFFFF

_U1 = np.uint32(1)
_MATRIX_A = np.uint32(MATRIX_A)
_UPPER = np.uint32(UPPER_MASK)
_LOWER = np.uint32(LOWER_MASK)


class ZeroStateError(ValueError):
    """Raised for the all-zero word array, a fixed point of the recurrence."""


@dataclass(frozen=True, eq=False)
class MtState:
    """Immutable MT19937 status: word array ``mt`` and index ``mti``.

    ``mti == 624`` means the next output must twist first.
    """

    mt: np.ndarray
    mti: int

    def __post_init__(self) -> None:
        words = np.array(self.mt, dtype=np.uint32, copy=True)
        if words.shape != (N,):
            raise ValueError(f"state must hold exactly {N} words, got shape {words.shape}")
        if not (0 <= self.mti <= N):
            raise ValueError(f"mti must be in [0, {N}], got {self.mti}")
        if not words.any():
            raise ZeroStateError("all-zero state has period 1 and is rejected")
        words.flags.writeable = False
        object.__setattr__(self, "mt", words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MtState):
            return NotImplemented
        return self.mti == other.mti and bool(np.array_equal(self.mt, other.mt))

    def __hash__(self) -> int:
        return hash((self.mti, self.mt.tobytes()))

    def __repr__(self) -> str:
        return f"MtState(mt=[{int(self.mt[0])}, ...], mti={self.mti})"


def init_genrand(seed: int) -> MtState:
    """Seed a full status from one 32-bit integer (2002 initialization)."""
    if not 0 <= seed <= WORD_MASK:
        raise ValueError(f"seed must be an unsigned 32-bit integer, got {seed}")
    mt = [0] * N
    mt[0] = seed
    prev = seed
    for i in range(1, N):
        prev = (1812433253 * (prev ^ (prev >> 30)) + i) & WORD_MASK
        mt[i] = prev
    return MtState(np.array(mt, dtype=np.uint32), N)


def _twist_words(mt: np.ndarray) -> None:
    """Regenerate all 624 words in place via the MT19937 recurrence.

    Segment bounds follow the in-place data dependencies of the reference
    loop: words [227, 454) and [454, 623) read freshly written words.
    """
    y = np.empty(N, dtype=np.uint32)
    y[: N - 1] = (mt[: N - 1] & _UPPER) | (mt[1:] & _LOWER)
    f = (y[: N - 1] >> _U1) ^ np.where(y[: N - 1] & _U1, _MATRIX_A, 0).astype(np.uint32)
    upper_last = mt[N - 1] & _UPPER

    mt[: N - M] = mt[M:] ^ f[: N - M]
    mt[N - M : 2 * (N - M)] = mt[: N - M] ^ f[N - M : 2 * (N - M)]
    mt[2 * (N - M) : N - 1] = mt[N - M : M - 1] ^ f[2 * (N - M) : N - 1]
    y_last = upper_last | (mt[0] & _LOWER)
    mt[N - 1] = mt[M - 1] ^ (y_last >> _U1) ^ (_MATRIX_A if y_last & _U1 else np.uint32(0))


def twist(state: MtState) -> MtState:
    """One full state regeneration; the returned status has mti = 0."""
    mt = np.array(state.mt, dtype=np.uint32, copy=True)
    _twist_words(mt)
    return MtState(mt, 0)


def temper(y: int) -> int:
    """Output tempering: a GF(2)-linear bijection on 32-bit words."""
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    y ^= y >> 18
    return y & WORD_MASK


def untemper(y: int) -> int:
    """Inverse of :func:`temper`."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & WORD_MASK
    y ^= (y >> 11) ^ (y >> 22)
    return y & WORD_MASK


def temper_words(words: np.ndarray) -> np.ndarray:
    """Vectorized tempering of a uint32 array (returns a new array)."""
    y = words.astype(np.uint32, copy=True)
    y ^= y >> 11
    y ^= (y << 7) & np.uint32(0x9D2C5680)
    y ^= (y << 15) & np.uint32(0xEFC60000)
    y ^= y >> 18
    return y


def untemper_words(words: np.ndarray) -> np.ndarray:
    """Vectorized inverse tempering."""
    y = words.astype(np.uint32, copy=True)
    y ^= y >> 18
    y ^= (y << 15) & np.uint32(0xEFC60000)
    x = y.copy()
    for _ in range(4):
        x = y ^ ((x << 7) & np.uint32(0x9D2C5680))
    y = x
    y ^= (y >> 11) ^ (y >> 22)
    return y


def next_u32(state: MtState) -> tuple[int, MtState]:
    """One tempered 32-bit draw and the successor status."""
    if state.mti == N:
        state = twist(state)
    value = temper(int(state.mt[state.mti]))
    return value, MtState(state.mt, state.mti + 1)


def next_real(state: MtState) -> tuple[float, MtState]:
    """One uniform real in [0, 1): the 32-bit draw scaled by 2^-32 (exact)."""
    value, nxt = next_u32(state)
    return value * 2.0**-32, nxt


def advance(state: MtState, n: int) -> MtState:
    """Status after n draws, outputs discarded.

    Skips by whole-block twists; observable behavior is identical to n
    calls of :func:`next_u32`.
    """
    if n < 0:
        raise ValueError(f"draw count must be >= 0, got {n}")
    if n <= N - state.mti:
        return MtState(state.mt, state.mti + n) if n else state
    remaining = n - (N - state.mti)
    mt = np.array(state.mt, dtype=np.uint32, copy=True)
    twists = (remaining - 1) // N + 1
    for _ in range(twists):
        _twist_words(mt)
    return MtState(mt, remaining - (twists - 1) * N)


class MtStream:
    """Mutable bulk reader over a copy of a status.

    The originating :class:`MtState` is never modified; ``state`` takes a
    snapshot of the current position.
    """

    def __init__(self, state: MtState) -> None:
        self._mt = np.array(state.mt, dtype=np.uint32, copy=True)
        self._mti = state.mti

    def take(self, n: int) -> np.ndarray:
        """Next n tempered 32-bit outputs as a uint32 array."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        out = np.empty(n, dtype=np.uint32)
        pos = 0
        while pos < n:
            if self._mti == N:
                _twist_words(self._mt)
                self._mti = 0
            k = min(N - self._mti, n - pos)
            out[pos : pos + k] = self._mt[self._mti : self._mti + k]
            self._mti += k
            pos += k
        return temper_words(out)

    @property
    def state(self) -> MtState:
        return MtState(self._mt, self._mti)
