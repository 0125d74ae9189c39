"""Bit-exact 32-bit Mersenne Twister (MT19937) core.

A generator status is 624 unsigned 32-bit words plus an index; it is held
in an immutable value object, and every operation returns a fresh status.
Twisting, drawing and skipping run on NumPy's C MT19937
(``numpy.random.MT19937``), whose state is this status: key = the words,
pos = the index. Seeding (the 2002 ``init_genrand``) and scalar tempering
are written out here. The frozen reference outputs of the canonical
implementation and an independent twist in the test suite's oracles check
every operation word for word.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N = 624
WORD_MASK = 0xFFFFFFFF
# MtStream.take draws this many words at a time: NumPy's random_raw returns
# uint64, so a chunk bounds that temporary at 512 KB.
TAKE_CHUNK = 2**16


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

    def __reduce__(self):
        # Unpickle through the constructor, which copies, checks and freezes the words.
        return MtState, (self.mt, self.mti)

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


def _engine(mt: np.ndarray, pos: int) -> np.random.MT19937:
    """A fresh C generator whose next draw is word ``pos`` of ``mt``."""
    engine = np.random.MT19937(0)  # the seed's state is replaced at once
    engine.state = {"bit_generator": "MT19937", "state": {"key": mt.tolist(), "pos": pos}}
    return engine


def _state_of(engine: np.random.MT19937) -> MtState:
    state = engine.state["state"]
    return MtState(state["key"], state["pos"])


def twist(state: MtState) -> MtState:
    """One full state regeneration; the returned status has mti = 0."""
    engine = _engine(state.mt, N)
    engine.random_raw(1, output=False)
    return MtState(engine.state["state"]["key"], 0)


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

    Observable behavior is identical to n calls of :func:`next_u32`: the
    twist that a block's end calls for waits for the next draw.
    """
    if n < 0:
        raise ValueError(f"draw count must be >= 0, got {n}")
    if n == 0:
        return state
    engine = _engine(state.mt, state.mti)
    engine.random_raw(n, output=False)
    return _state_of(engine)


class MtStream:
    """Mutable bulk reader over a copy of a status.

    The originating :class:`MtState` is never modified; ``state`` takes a
    snapshot of the current position.
    """

    def __init__(self, state: MtState) -> None:
        self._engine = _engine(state.mt, state.mti)

    def take(self, n: int) -> np.ndarray:
        """Next n tempered 32-bit outputs as a uint32 array."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        out = np.empty(n, dtype=np.uint32)
        for start in range(0, n, TAKE_CHUNK):
            stop = min(start + TAKE_CHUNK, n)
            out[start:stop] = self._engine.random_raw(stop - start)
        return out

    @property
    def state(self) -> MtState:
        return _state_of(self._engine)
