"""numpy's seeded PCG64 streams, computed without ``numpy.random``.

Every sampler draws from the stream that ``numpy.random.PCG64(
numpy.random.SeedSequence(entropy, spawn_key=...))`` would produce, and
this module computes that stream's raw 64-bit words bit for bit:
SeedSequence's hash mixing, PCG64's seeding, and its output (XSL-RR: the
two halves of the 128-bit state xored, rotated right by the state's top
six bits).  A 128-bit number is a pair (high, low) of 64-bit values.
The rules are written once, with explicit masks, so they run on Python
ints and on uint64 arrays (one stream per row) alike.

PCG64 steps its state by s -> a*s + inc mod 2^128, so m steps take s to
A_m*s + G_m*inc with A_m = a^m and G_m = 1 + a + ... + a^(m-1).  Seeding
sets the state to a*(seed + inc) + inc, so word j of a stream is the
output of A_j*s_0 + G_j*inc, where s_0 = a*(seed + inc) + inc.  One
table of (A_m, G_m) for m up to _CHUNK gives the next _CHUNK words of
many streams at once (``spawned_words``) or of one (``Stream``'s array
reads), as numpy array code.  ``Stream``'s scalar reads instead step its
state in Python ints: about 0.55 us a word against 0.05 us from the
table, which a reader of a few tens of thousands of words repays by not
importing numpy (about 85 ms): ``RepParams.random`` and the two-planes
and angle-change sweeps read that way, and the delta sweep and the QI
sampler read arrays.

The rules by which numpy's Generator turns words into draws live here
alone.  ``random`` is (w >> 11) * 2^-53 of a word w, and
``uniform(lo, hi)`` is lo + (hi - lo) times that.  ``integers(lo, hi)``
on n <= 2^32 values is Lemire's multiply-and-reject (ACM TOMACS 2019)
on 32-bit draws x: lo + (x * n >> 32), redrawn while x * n mod 2^32 <
2^32 mod n.  A 32-bit draw is a new word's low half, then its high
half, which is carried past whole-word draws (numpy's ``has_uint32``).

numpy is imported only inside the code that makes arrays.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Stream",
    "first_integers",
    "spawned_words",
    "uniform_doubles",
    "unit_doubles",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's multiplier a
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# the words computed at a time, and so the steps m = 1, ..., _CHUNK that
# the jump table holds
_CHUNK = 4096


def _entropy_words(value) -> list[int]:
    """SeedSequence's uint32 words of an int or a nested sequence of ints."""
    if isinstance(value, int):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [w for v in value for w in _entropy_words(v)]


# Python ints and uint64 arrays mix below: every Python int that meets an
# array is below 2^64, and the masks take both to the same numbers.  On
# arrays a 64-bit mask changes nothing, so it is applied in place, where
# it allocates no array.


def _hash(value, const: int, mult: int):
    """SeedSequence's hash of uint32 values, and its next constant."""
    after = const * mult & _MASK32
    value = (value ^ const) * after & _MASK32
    return value ^ (value >> 16), after


def _mix(x, y):
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return result ^ (result >> 16)


def _pool(entropy):
    """SeedSequence's mixed pool of the uint32 words ``entropy``."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value, const = _hash(value, const, _MULT_A)
        return value

    m = len(entropy)
    pool = [hashmix(entropy[i] if i < m else 0) for i in range(_POOL_SIZE)]
    # every pool word into every other, then the entropy past the pool
    # into each pool word
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, m):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    return pool


def _seeded(entropy):
    """PCG64's state after seeding, and its increment, from SeedSequence's ``entropy``.

    ``entropy`` lists uint32 words, each a Python int or a uint64 column
    (n, 1) with one row per stream; the state and increment are 128-bit
    pairs of the same kind.  ``generate_state(4, uint64)`` reads the pool
    cyclically into eight uint32 words, which pair up little-endian into
    four uint64 words: the seed is the first two (high word first), and
    the increment is the last two shifted left by one, with its low bit
    set.  Seeding steps from 0, adds the seed and steps again, which
    leaves the state a * (seed + inc) + inc.
    """
    pool = _pool(entropy)
    const = _INIT_B
    state = []
    for i in range(8):
        value, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        state.append(value)
    v = [state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)]
    inc = ((v[2] << 1 | v[3] >> 63) & _MASK64, (v[3] << 1 | 1) & _MASK64)
    return _add(_mul(_pair(_MULT), _add((v[0], v[1]), inc)), inc), inc


def _mul64(x, y):
    """The full 128-bit products of 64-bit values, from their 32-bit halves."""
    x0, x1 = x & _MASK32, x >> 32
    y0, y1 = y & _MASK32, y >> 32
    low, cross0, cross1 = x0 * y0, x0 * y1, x1 * y0
    # below 3 * 2^32, so it does not wrap
    mid = (low >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    high = x1 * y1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    low = mid << 32 | low & _MASK32
    low &= _MASK64
    return high, low


def _mul(x, y):
    """x * y mod 2^128 for 128-bit pairs."""
    high, low = _mul64(x[1], y[1])
    high = high + x[0] * y[1] + x[1] * y[0]
    high &= _MASK64
    return high, low


def _add(x, y):
    """x + y mod 2^128 for 128-bit pairs."""
    low = x[1] + y[1]
    low &= _MASK64
    high = x[0] + y[0] + (low < x[1])
    high &= _MASK64
    return high, low


def _pair(value: int):
    """A 128-bit Python int as a pair of Python ints."""
    return value >> 64, value & _MASK64


def _output(high, low):
    """PCG64's words from the 128-bit states (high, low): XSL-RR."""
    x = high ^ low
    rot = high >> 58
    # a rotation by 0 shifts left by 64, which numpy takes to 0 and the
    # mask drops
    word = x >> rot | x << (64 - rot)
    word &= _MASK64
    return word


@functools.cache
def _jumps():
    """(A_m, G_m) for m = 1, ..., _CHUNK, as 128-bit pairs of arrays.

    Built by doubling: A_(m+s) = A_s * A_m and G_(m+s) = G_s + A_s * G_m.
    """
    import numpy as np

    a, g = (tuple(np.array([h], dtype=np.uint64) for h in _pair(v)) for v in (_MULT, 1))
    while len(a[1]) < _CHUNK:
        a_s, g_s = (a[0][-1:], a[1][-1:]), (g[0][-1:], g[1][-1:])
        a_next, g_next = _mul(a_s, a), _add(g_s, _mul(a_s, g))
        a = tuple(np.concatenate(h) for h in zip(a, a_next))
        g = tuple(np.concatenate(h) for h in zip(g, g_next))
    return a, g


def _run(state, inc, k: int):
    """The next k words from each state, and the states after them.

    ``state`` and ``inc`` are 128-bit pairs of columns (n, 1); the words
    come as one row of k per state.  Up to _CHUNK steps are jumped to at
    once, and the state after a chunk is its last column.
    """
    import numpy as np

    a, g = _jumps()
    out = []
    for done in range(0, k, _CHUNK):
        m = min(_CHUNK, k - done)
        high, low = _add(_mul((a[0][:m], a[1][:m]), state), _mul((g[0][:m], g[1][:m]), inc))
        out.append(_output(high, low))
        state = high[:, -1:], low[:, -1:]
    return np.concatenate(out, axis=1), state


def spawned_words(entropy, keys, k: int) -> np.ndarray:
    """Words 1..k of numpy's stream for each child key, one row per key.

    Row i holds ``PCG64(SeedSequence(entropy, spawn_key=(keys[i],)))
    .random_raw(k)``: the words of child keys[i] of SeedSequence(entropy),
    as ``SeedSequence(entropy).spawn`` makes them.  A child's entropy is
    the parent's, padded with zeros to the pool size, then its key's
    uint32 words, so keys from 2^32 on mix in one more word.
    """
    import numpy as np

    run = _entropy_words(entropy)
    run += [0] * (_POOL_SIZE - len(run))
    keys = np.asarray(keys, dtype=np.uint64)[:, None]
    out = np.empty((len(keys), k), dtype=np.uint64)
    # keys below 2^32 are one uint32 word, the others two
    wide = keys[:, 0] > _MASK32
    for rows, key_words in ((~wide, [keys]), (wide, [keys & _MASK32, keys >> 32])):
        if rows.any():
            out[rows] = _run(*_seeded(run + [w[rows] for w in key_words]), k)[0]
    return out


def unit_doubles(words):
    """``Generator.random``'s doubles from words: (w >> 11) * 2^-53.

    ``words`` is a uint64 array, or one word as a Python int.
    """
    return (words >> 11) * 2.0**-53


def uniform_doubles(lo, hi, units):
    """``Generator.uniform(lo, hi)``'s draws from their unit doubles: lo + (hi - lo) * u.

    lo and hi may be arrays that broadcast with ``units``, one bound per
    column, as numpy's array bounds are read.
    """
    return lo + (hi - lo) * units


def first_integers(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The first ``Generator.integers(lo, hi)`` of fresh streams, from their first words.

    hi - lo must be a power of two up to 2^32, which Lemire's method
    never rejects, so the draw comes from the word's low half alone.
    """
    import numpy as np

    n = hi - lo
    if n < 2 or n > 1 << 32 or n & (n - 1):
        raise ValueError("need hi - lo a power of two from 2 to 2^32")
    x = words & _MASK32
    return lo + ((x * n) >> 32).astype(np.int64)


class Stream:
    """``Generator(PCG64(SeedSequence(entropy)))``'s draws, in stream order.

    The state is a Python int.  Scalar reads (``uniform`` without n,
    ``integers``) step it a word at a time, at about 0.5 us a word, and
    load no numpy.  Array reads (``words``, ``random``, ``uniform`` with
    n) jump ahead _CHUNK words at a time through the table, as numpy
    array code, and buffer the words they compute past their own, with
    their unit doubles; the state is then the one after the buffer.
    Every read takes buffered words first, so all four mix in stream
    order, as calls on one numpy Generator do.
    """

    def __init__(self, entropy):
        (high, low), (inc_high, inc_low) = _seeded(_entropy_words(entropy))
        self._state = high << 64 | low
        self._inc = inc_high << 64 | inc_low
        # words computed and not yet read lie in _words from _pos on: a
        # uint64 array once an array read has filled it
        self._words = ()
        self._pos = 0
        # the high half that the last 32-bit draw left, if any
        self._half = None

    def _fill(self, k: int) -> None:
        """Put at least k words past the position in the buffer, from its start."""
        import numpy as np

        rest = np.asarray(self._words[self._pos :], dtype=np.uint64)
        state, inc = (
            tuple(np.full((1, 1), h, dtype=np.uint64) for h in _pair(v))
            for v in (self._state, self._inc)
        )
        chunks = max(1, -((len(rest) - k) // _CHUNK))
        words, (high, low) = _run(state, inc, chunks * _CHUNK)
        self._state = int(high[0, 0]) << 64 | int(low[0, 0])
        self._words = np.concatenate((rest, words[0]))
        self._units = unit_doubles(self._words)
        self._pos = 0

    def _next(self, k: int) -> slice:
        """Where the next k words lie in the buffer, past which the stream moves."""
        # the first array read makes the buffer an array, even of 0 words
        if self._pos + k > len(self._words) or not len(self._words):
            self._fill(k)
        start = self._pos
        self._pos = start + k
        return slice(start, self._pos)

    def _word(self) -> int:
        """The next word, as a Python int."""
        pos = self._pos
        if pos < len(self._words):
            self._pos = pos + 1
            return self._words.item(pos)
        self._state = state = (_MULT * self._state + self._inc) & _MASK128
        return _output(state >> 64, state & _MASK64)

    def words(self, k: int) -> np.ndarray:
        """The next k raw words, as uint64."""
        at = self._next(k)
        return self._words[at]

    def random(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), as ``Generator.random(n)`` draws them."""
        at = self._next(n)
        return self._units[at]

    def uniform(self, lo: float, hi: float, n: int | None = None):
        """``Generator.uniform(lo, hi, n)``: a float, or n of them as an array."""
        if n is not None:
            return uniform_doubles(lo, hi, self.random(n))
        return lo + (hi - lo) * ((self._word() >> 11) * 2.0**-53)

    def integers(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi)``, for 2 <= hi - lo <= 2^32."""
        n = hi - lo
        while True:
            half = self._half
            if half is None:
                word = self._word()
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                self._half = None
                m = half * n
            if (m & 0xFFFFFFFF) >= n > 1:
                return lo + (m >> 32)
            # every product lands here when hi - lo is below 2 (numpy
            # draws nothing for one value) or above 2^32
            if not 1 < n <= 1 << 32:
                raise ValueError("integers needs 2 <= hi - lo <= 2^32")
            # the lowest 2^32 mod n products, all below n, are rejected so
            # that every value is equally likely
            if (m & 0xFFFFFFFF) >= (1 << 32) % n:
                return lo + (m >> 32)
