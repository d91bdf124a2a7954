"""Deterministic 64-bit random primitives used throughout the bench.

Everything that needs randomness derives its seeds with
:func:`block_mix64` and draws from SplitMix64 streams, so every result
depends only on the configured seeds, never on interpreter, platform, or
scheduling state. Normal variates come from the Box-Muller transform,
which keeps the generation algorithm portable and easy to re-derive.

SplitMix64 is counter-based: word k (from 1) of the stream seeded s is
``_finalize(s + k * gamma)``. So any block of words, of one stream or of
many, is computed at once as a numpy ``uint64`` array
(:func:`_finalize_words`). The bench draws in blocks only, bit-equal to
the one-word-at-a-time oracle in ``tests/conftest.py``:

- :func:`block_mix64` hashes integer parts into a seed, in order
  (``acc = _finalize(acc + gamma + part)`` from 0), over arrays of parts;
- :func:`block_randbelow` draws successive indices below n of many
  streams, each with its own list of bounds, which :class:`BlockBounds`
  converts once for any number of blocks. An index is ``word % n``; a
  stream that meets a word at or above the largest multiple of n up to
  2**64 rejects it and continues word by word from it on;
- :func:`block_normals` draws a stream's normals. The transcendental
  step stays on libm through ``math``, because numpy's ``log``/``cos``/
  ``sin`` can differ from it in the last bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain

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
    in Python, as SplitMix64's arithmetic wraps them, then made a uint64
    array of at least one dimension, so that numpy never sees a negative
    or oversized value and never computes on a numpy scalar."""
    return (np.atleast_1d(np.array(values, dtype=object)) & _MASK64).astype(_U64)


def block_mix64(*parts) -> np.ndarray:
    """Integer parts hashed into seeds, elementwise over parts broadcast
    against each other, as a uint64 array: ``block_mix64(base, repeat,
    users[:, None], sessions)`` at [user, session] seeds that session."""
    parts = np.broadcast_arrays(*map(_u64s, parts))
    acc = np.zeros(parts[0].shape, _U64)
    for part in parts:
        acc = _finalize_words(acc + _U64(_GAMMA) + part)
    return acc


class BlockBounds:
    """Many streams' `randbelow` bounds, one sequence per stream, converted once
    into the arrays that `block_randbelow` reads for any number of blocks."""

    def __init__(self, bounds):
        self.rows = bounds
        self.lengths = [len(row) for row in bounds]
        self.n = np.fromiter(chain.from_iterable(bounds), _U64, sum(self.lengths))
        if self.n.size and not self.n.min():
            raise ValueError("randbelow() requires n >= 1")
        self.ends = list(accumulate(self.lengths))
        self.starts = [end - length for end, length in zip(self.ends, self.lengths)]
        self.step = np.arange(1, self.n.size + 1, dtype=_U64)  # word number in its stream
        self.step -= np.repeat(self.starts, self.lengths).astype(_U64)
        # The rejection limit is 2**64 - 2**64 % n, and 2**64 % n = ((2**64 - 1) % n + 1) % n.
        self.highest = _U64(_MASK64) - (_U64(_MASK64) % self.n + _U64(1)) % self.n


def block_randbelow(seeds, bounds: BlockBounds) -> list[list[int]]:
    """Per stream i, successive indices below each n in `bounds.rows[i]`,
    drawn from the SplitMix64 stream seeded ``seeds[i]``.

    The words of every stream are drawn as one block, and each index is
    ``word % n``. A stream that draws a word at or above the rejection
    limit, the largest multiple of n up to 2**64, continues from that word
    on through `_rejecting`, so every index is exact.
    """
    seeds = _u64s(seeds)
    words = _finalize_words(np.repeat(seeds, bounds.lengths) + _U64(_GAMMA) * bounds.step)
    flat = (words % bounds.n).tolist()
    rows = [flat[start:end] for start, end in zip(bounds.starts, bounds.ends)]
    fallen: set[int] = set()
    for at in np.flatnonzero(words > bounds.highest).tolist():
        stream = bisect_right(bounds.ends, at)
        if stream not in fallen:
            fallen.add(stream)
            skip = at - bounds.starts[stream]
            state = int(seeds[stream]) + skip * _GAMMA
            rows[stream][skip:] = _rejecting(state, bounds.rows[stream][skip:])
    return rows


def _rejecting(state: int, bounds):
    """From stream state `state` on, one index below n for each n in `bounds`:
    the first word below the largest multiple of n up to 2**64, modulo n."""
    for n in map(int, bounds):
        limit = (_MASK64 + 1) - (_MASK64 + 1) % n
        word = limit
        while word >= limit:
            state = (state + _GAMMA) & _MASK64
            word = _finalize(state)
        yield word % n


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
