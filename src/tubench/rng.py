"""Deterministic 64-bit random primitives used throughout the bench.

Everything that needs randomness derives a seed with :func:`mix64` and
draws from a :class:`SplitMix64` stream, so every result depends only on
the configured seeds, never on interpreter, platform, or scheduling
state. Normal variates come from the Box-Muller transform, which keeps
the generation algorithm portable and easy to re-derive.

SplitMix64 is counter-based: word k of a stream is
``_finalize(seed + k * gamma)``. So any block of words, of one stream
or of many, is computed at once as a numpy ``uint64`` array
(:func:`_finalize_words`), and the block functions below are bit-equal
to drawing the same values one at a time:

- :func:`block_mix64` is :func:`mix64` over arrays of parts, such as
  every (user, session) of a repeat;
- :func:`block_randbelow` draws successive ``randbelow`` indices of many
  streams, each with its own list of bounds. An index is ``word % n``;
  a stream that meets a word the scalar rejection would skip continues
  on the scalar stream from that word on;
- :func:`block_normals` draws a stream's normals. The transcendental
  step stays on libm through ``math``, because numpy's ``log``/``cos``/
  ``sin`` can differ from it in the last bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_U64 = np.uint64


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _finalize_words(z: np.ndarray) -> np.ndarray:
    """`_finalize` over a uint64 array, in place; returns `z`."""
    z ^= z >> _U64(30)
    z *= _U64(_MUL1)
    z ^= z >> _U64(27)
    z *= _U64(_MUL2)
    z ^= z >> _U64(31)
    return z


def _u64s(values) -> np.ndarray:
    """Integers (an int, or a sequence or array of them) masked to 64 bits
    in Python, as `mix64` and `SplitMix64` mask them, then made a uint64
    array of at least one dimension, so that numpy never sees a negative
    or oversized value and never computes on a numpy scalar."""
    return (np.atleast_1d(np.array(values, dtype=object)) & _MASK64).astype(_U64)


def mix64(*parts: int) -> int:
    """Hash any number of integers into one well-mixed 64-bit seed.

    Order-sensitive, so mix64(a, b) != mix64(b, a) in general.
    """
    acc = 0
    for part in parts:
        acc = _finalize((acc + _GAMMA + (part & _MASK64)) & _MASK64)
    return acc


class SplitMix64:
    """Seeded stream of 64-bit words with uniform, integer and shuffle helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _finalize(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        # Rejection sampling over the largest multiple of n below 2**64.
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def block_mix64(*parts) -> np.ndarray:
    """`mix64` elementwise over integer parts broadcast against each other,
    as a uint64 array: ``block_mix64(base, repeat, users[:, None], sessions)``
    holds ``mix64(base, repeat, user, session)`` at [user, session]."""
    parts = np.broadcast_arrays(*map(_u64s, parts))
    acc = np.zeros(parts[0].shape, _U64)
    for part in parts:
        acc = _finalize_words(acc + _U64(_GAMMA) + part)
    return acc


def block_randbelow(seeds, bounds) -> list[list[int]]:
    """Per stream i, successive ``SplitMix64(seeds[i]).randbelow(n)`` for n in `bounds[i]`.

    The words of every stream are drawn as one block, and each index is
    ``word % n``. A word at or above randbelow's rejection limit, the
    largest multiple of n up to 2**64, would be skipped by the scalar
    stream; a stream that draws one continues on the scalar SplitMix64
    from that word on, so every index is exact.
    """
    lengths = [len(row) for row in bounds]
    n = np.fromiter(chain.from_iterable(bounds), _U64, sum(lengths))
    if n.size and not n.min():
        raise ValueError("randbelow() requires n >= 1")
    seeds = _u64s(seeds)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    step = np.arange(1, n.size + 1, dtype=_U64) - np.repeat(starts, lengths).astype(_U64)
    words = _finalize_words(np.repeat(seeds, lengths) + _U64(_GAMMA) * step)
    flat = (words % n).tolist()
    ends, starts = ends.tolist(), starts.tolist()
    rows = [flat[start:end] for start, end in zip(starts, ends)]
    # The scalar limit is 2**64 - 2**64 % n, and 2**64 % n = ((2**64 - 1) % n + 1) % n.
    highest = _U64(_MASK64) - (_U64(_MASK64) % n + _U64(1)) % n
    fallen: set[int] = set()
    for at in np.flatnonzero(words > highest).tolist():
        stream = bisect_right(ends, at)
        if stream not in fallen:
            fallen.add(stream)
            skip = at - starts[stream]
            rng = SplitMix64(int(seeds[stream]) + skip * _GAMMA)
            rows[stream][skip:] = [rng.randbelow(int(m)) for m in bounds[stream][skip:]]
    return rows


def block_normals(seed: int, count: int) -> np.ndarray:
    """The first ``count`` standard normals of the stream seeded with ``seed``.

    Pair j takes words 2j + 1 and 2j + 2: u1 = 1 - uniform (in (0, 1], so
    log stays finite) and u2 = uniform; it yields r cos(theta) then
    r sin(theta), with r = sqrt(-2 log u1) and theta = 2 pi u2. numpy's
    sqrt is correctly rounded, like libm's, so it is used directly.
    """
    pairs = (count + 1) // 2
    z = _finalize_words(_u64s(seed) + _U64(_GAMMA) * np.arange(1, 2 * pairs + 1, dtype=_U64))
    uniform = (z >> _U64(11)).astype(np.float64) * 2.0**-53
    log_u1 = np.fromiter(map(math.log, (1.0 - uniform[0::2]).tolist()), np.float64, pairs)
    theta = (2.0 * math.pi * uniform[1::2]).tolist()
    radius = np.sqrt(-2.0 * log_u1)
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)
    out[1::2] = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)
    return out[:count]
