"""Deterministic 64-bit random primitives used throughout the bench.

Everything that needs randomness derives a seed with :func:`mix64` and
draws from a :class:`SplitMix64` stream, so every result depends only on
the configured seeds, never on interpreter, platform, or scheduling
state. Normal variates come from the Box-Muller transform, which keeps
the generation algorithm portable and easy to re-derive.

:func:`block_normals` draws a whole block of them at once. Word k of a
stream is ``_finalize(seed + k * gamma)``, so the words are computed as
numpy ``uint64`` arrays; the transcendental step stays on libm through
``math``, because numpy's ``log``/``cos``/``sin`` can differ from it in
the last bit. The block is bit-equal to drawing the same count one
variate at a time, cosine then sine of each uniform pair.
"""

from __future__ import annotations

import math

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


def block_normals(seed: int, count: int) -> np.ndarray:
    """The first ``count`` standard normals of the stream seeded with ``seed``.

    Pair j takes words 2j + 1 and 2j + 2: u1 = 1 - uniform (in (0, 1], so
    log stays finite) and u2 = uniform; it yields r cos(theta) then
    r sin(theta), with r = sqrt(-2 log u1) and theta = 2 pi u2. numpy's
    sqrt is correctly rounded, like libm's, so it is used directly.
    """
    pairs = (count + 1) // 2
    z = _U64(seed & _MASK64) + _U64(_GAMMA) * np.arange(1, 2 * pairs + 1, dtype=_U64)
    z = (z ^ (z >> _U64(30))) * _U64(_MUL1)
    z = (z ^ (z >> _U64(27))) * _U64(_MUL2)
    z ^= z >> _U64(31)
    uniform = (z >> _U64(11)).astype(np.float64) * 2.0**-53
    log_u1 = np.fromiter(map(math.log, (1.0 - uniform[0::2]).tolist()), np.float64, pairs)
    theta = (2.0 * math.pi * uniform[1::2]).tolist()
    radius = np.sqrt(-2.0 * log_u1)
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)
    out[1::2] = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)
    return out[:count]
