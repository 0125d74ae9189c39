"""Bit-exact 32-bit Mersenne Twister (MT19937) core.

A generator status is 624 unsigned 32-bit words plus an index; it is held
in an immutable value object, whose words are 2496 bytes, little-endian,
and every operation returns a fresh status. Two C engines run a status,
and both take it as it is: the words and the index. Status-sized work
runs on the standard library's ``random.Random``, the reference
``genrand_int32``, already loaded when the CLI starts: :func:`twist`
and :func:`blocks`, whose 624-word runs are the words of a random-spacing
status. Bulk work runs on NumPy's ``numpy.random.MT19937``, which draws
and skips long runs faster: :class:`MtStream`, the tempered 32-bit words
that the tests read (a uniform in [0, 1) is a word times 2^-32), and
:func:`advance`. Seeding (the 2002 ``init_genrand``) is written out here
in pure Python. So seeding, twisting, random-spacing statuses and their
files need only the standard library; the functions that run NumPy's
engine import it when called. The frozen reference outputs of the
canonical implementation and an independent twist and untempering in the
test suite's oracles check every operation word for word, and a test
checks that the two engines agree.
"""
from __future__ import annotations

import operator
import random
import struct
from typing import TYPE_CHECKING, Iterable, Iterator

from mtstreams.record import FrozenRecord

if TYPE_CHECKING:
    import numpy as np

N = 624
WORD_MASK = 0xFFFFFFFF
# A status's words as its bytes: 624 little-endian uint32, 2496 bytes.
_WORDS = struct.Struct(f"<{N}I")
_ZERO_WORDS = bytes(_WORDS.size)
# advance skips draws with NumPy's random_raw, whose count is an int64.
ADVANCE_LIMIT = 2**63
PHI_EXPONENTS = (
    0, 1189, 1416, 1585, 1643, 1870, 2493, 2773, 3000, 3227,
    3454, 3681, 3908, 4135, 4362, 4753, 5661, 6337, 6569, 7129,
    7477, 7525, 7583, 7752, 7979, 8206, 9505, 9901, 9969, 10128,
    10693, 10761, 10920, 11089, 11147, 11157, 11215, 11321, 11374, 11384,
    11485, 11611, 11712, 11717, 11838, 11881, 11944, 11997, 12277, 12335,
    12393, 12504, 12509, 12620, 12673, 12731, 12736, 12789, 12905, 12958,
    12963, 13137, 13185, 13190, 13243, 13301, 13412, 13528, 13533, 13639,
    13697, 13760, 13813, 13866, 14093, 14151, 14209, 14320, 14325, 14436,
    14547, 14552, 14605, 14721, 14774, 14779, 14953, 15001, 15006, 15059,
    15117, 15228, 15344, 15349, 15455, 15513, 15576, 15629, 15682, 15909,
    15967, 16025, 16136, 16141, 16252, 16363, 16368, 16421, 16537, 16590,
    16595, 16817, 16822, 16875, 16933, 17044, 17160, 17271, 17329, 17445,
    17498, 17725, 17783, 17841, 17952, 18068, 18179, 18237, 18406, 18633,
    18691, 18860, 19087, 19314, 19937,
)
"""phi, the characteristic polynomial of MT19937, as its exponents.

The sorted exponents e of the 135 nonzero terms x^e of the degree-19937
polynomial over GF(2) (Matsumoto and Nishimura, ACM TOMACS 8(1), 1998),
written highest power last, so phi(x) = x^19937 + ... + x^1189 + 1. It is
the characteristic polynomial of the F2-linear map that takes the 19937
state bits (the upper bit of one word and the 623 words after it) one
word on, and tempering is F2-linear too. So every bit lane s of the words
that :class:`MtStream` draws obeys

    s[k + 19937] = XOR of s[k + e] over the exponents e < 19937

for every k >= 0. The one exception is a status at mti = 0 that no twist
made: its first word's low 31 bits lie outside the state and can break
the recurrence at k = 0. phi is irreducible (it is primitive: the period
is 2^19937 - 1). A test recomputes it with Berlekamp-Massey.
"""


class ZeroStateError(ValueError):
    """Raised for the all-zero words, a fixed point of the recurrence."""


class MtState(FrozenRecord):
    """Immutable MT19937 status: words ``mt`` and index ``mti``.

    ``mt`` holds the 624 words as 2496 bytes, little-endian; the constructor
    takes those bytes or any 624 integers in [0, 2^32), and ``words`` reads
    them back as ints. ``mti`` is any integer in [0, 624], NumPy's included,
    kept as an ``int``; ``mti == 624`` means the next output must twist first.
    """

    __slots__ = _fields = ("mt", "mti")

    def __init__(self, mt: bytes | Iterable[int], mti: int) -> None:
        if not isinstance(mt, bytes):
            try:
                mt = _WORDS.pack(*mt)
            except struct.error as exc:
                raise ValueError(f"state must be {N} unsigned 32-bit words: {exc}") from None
        elif len(mt) != _WORDS.size:
            raise ValueError(f"state must be {_WORDS.size} bytes, got {len(mt)}")
        try:
            mti = operator.index(mti)
        except TypeError:
            raise ValueError(f"mti must be an integer, got {mti!r}") from None
        if not (0 <= mti <= N):
            raise ValueError(f"mti must be in [0, {N}], got {mti}")
        if mt == _ZERO_WORDS:
            raise ZeroStateError("all-zero state has period 1 and is rejected")
        self._set(mt=mt, mti=mti)

    @property
    def words(self) -> tuple[int, ...]:
        """The 624 words as ints."""
        return _WORDS.unpack(self.mt)

    def __repr__(self) -> str:
        return f"MtState(mt=[{self.words[0]}, ...], mti={self.mti})"


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
    return MtState(mt, N)


def _engine(state: MtState) -> np.random.MT19937:
    """A fresh NumPy generator whose next draw is the status's next word."""
    import numpy as np

    engine = np.random.MT19937(0)  # the seed's state is replaced at once
    key = np.frombuffer(state.mt, "<u4")
    engine.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": state.mti}}
    return engine


def _std_engine(words: tuple[int, ...], pos: int) -> random.Random:
    """A fresh standard-library generator whose next draw is word ``pos`` of ``words``."""
    engine = random.Random(0)  # the seed's state is replaced at once
    engine.setstate((3, words + (pos,), None))
    return engine


def twist(state: MtState) -> MtState:
    """One full state regeneration; the returned status has mti = 0."""
    engine = _std_engine(state.words, N)
    engine.getrandbits(32)
    return MtState(engine.getstate()[1][:N], 0)


def blocks(state: MtState) -> Iterator[bytes]:
    """Successive runs of 624 tempered words drawn from ``state``, without end.

    Each run is 2496 little-endian bytes, the ``mt`` of a status, and holds
    the words that :class:`MtStream` would draw next, in order.
    ``getrandbits`` fills its integer from the least significant word up,
    one draw per word, so the integer's little-endian bytes are the draws.
    """
    engine = _std_engine(state.words, state.mti)
    while True:
        yield engine.getrandbits(32 * N).to_bytes(_WORDS.size, "little")


def advance(state: MtState, n: int) -> MtState:
    """Status after n draws, outputs discarded.

    The status is the one that drawing n words from :class:`MtStream` leaves:
    the twist that a block's end calls for waits for the next draw.
    """
    if not 0 <= n < ADVANCE_LIMIT:
        raise ValueError(f"draw count must be in [0, 2^63), got {n}")
    if n == 0:
        return state
    engine = _engine(state)
    engine.random_raw(n, output=False)
    after = engine.state["state"]
    return MtState(after["key"].astype("<u4").tobytes(), after["pos"])


class MtStream:
    """Mutable bulk reader over a copy of a status.

    The originating :class:`MtState` is never modified; :func:`advance`
    gives the status after n draws.
    """

    def __init__(self, state: MtState) -> None:
        from numpy.random import Generator

        self._generator = Generator(_engine(state))

    def take(self, n: int) -> np.ndarray:
        """Next n tempered 32-bit outputs as a uint32 array."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        # Over the full 32-bit range, integers writes the engine's raw draws.
        return self._generator.integers(0, 1 << 32, size=n, dtype="uint32")
