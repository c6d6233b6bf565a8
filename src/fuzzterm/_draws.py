"""numpy's seeding and bounded integer draws, bit for bit, without
numpy.random.

A run makes a few thousand bounded integer draws: the seed pairs of the
2-means restarts and the stratified subsets.  numpy 2 loads numpy.random
on first use, which costs a run about 5 MiB of memory and 13 ms of CPU
time, so the run draws with this module instead.  It follows numpy's
published algorithms, so every draw, and with them every label, equals
numpy.random's:

- `SeedSequence` is numpy.random.SeedSequence with its default pool of four
  32-bit words: the same pool from non-negative integer entropy, nested
  sequences of it and a spawn key, the same children and the same
  `generate_state` words.
- `PCG64` is the bit generator numpy.random.default_rng(seed) makes: a
  128-bit LCG stepped before each XSL-RR 64-bit output (O'Neill,
  HMC-CS-2014-0905), seeded from eight `generate_state` words.  A 32-bit
  draw takes the low half of one output and buffers the high half for the
  next.
- `PCG64.bounded` is the draw in 0..rng that Generator.integers and
  Generator.choice make: Lemire's multiply-and-reject on 32-bit draws for
  rng below 2**32 - 1, one 32-bit draw at 2**32 - 1, Lemire on 64-bit
  draws above, and one 64-bit draw at 2**64 - 1.
- `PCG64.choice` is Generator.choice(n, size, replace=False): Floyd's
  sampling and a shuffle of the sample or, when n > 10,000 and
  size > min(10,000, n // 50), a shuffle of the last size slots of
  range(n).

The tests pin each against numpy.random and against values taken from
numpy 2.4.6.
"""

from __future__ import annotations

import operator
import sys

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

_POOL_SIZE = 4
# SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _words(entropy) -> list[int]:
    """The 32-bit words numpy makes of entropy: a non-negative integer's
    words, least significant first, or a sequence's words in order."""
    if isinstance(entropy, (tuple, list, range, np.ndarray)):
        return [word for part in entropy for word in _words(part)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError(f"seed entropy must be non-negative, not {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mixed_pool(entropy: list[int]) -> list[int]:
    """SeedSequence's pool of entropy words: hash in the first pool-size
    words (0 past the end), then mix each word, the pool's own first, into
    every other pool word, hashing it again each time."""
    hash_const = _INIT_A
    words = entropy + [0] * (_POOL_SIZE - len(entropy))
    for i in range(_POOL_SIZE):
        value = words[i] ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        words[i] = value ^ value >> 16
    for src in range(len(words)):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value = words[src] ^ hash_const
                hash_const = hash_const * _MULT_A & _MASK32
                value = value * hash_const & _MASK32
                value = (_MIX_MULT_L * words[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
                words[dst] = value ^ value >> 16
    return words[:_POOL_SIZE]


class SeedSequence:
    """numpy.random.SeedSequence(entropy, spawn_key=spawn_key) with the
    default pool size: entropy is a non-negative integer or a (nested)
    sequence of them.  A negative integer raises ValueError, anything else
    TypeError."""

    def __init__(self, entropy, spawn_key: tuple[int, ...] = ()):
        self.entropy = entropy
        self.spawn_key = tuple(spawn_key)
        self.n_children_spawned = 0
        words = _words(entropy)
        key = _words(self.spawn_key)
        if key and len(words) < _POOL_SIZE:
            # numpy pads the entropy so that no spawned key mimics it
            words += [0] * (_POOL_SIZE - len(words))
        self.pool = _mixed_pool(words + key)

    def spawn(self, n_children: int) -> list[SeedSequence]:
        """The next n_children children, as numpy's spawn makes them."""
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        return [
            SeedSequence(self.entropy, self.spawn_key + (i,))
            for i in range(start, start + n_children)
        ]

    def generate_state(self, n_words: int) -> list[int]:
        """numpy's generate_state(n_words) as a list of 32-bit words."""
        hash_const = _INIT_B
        words = []
        for i in range(n_words):
            value = self.pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ value >> 16)
        return words


def seed_sequence(seed) -> SeedSequence:
    """The SeedSequence of a clustering seed: a non-negative integer (numpy
    integers too), a SeedSequence, or a numpy.random.SeedSequence of pool
    size 4, read through its entropy and spawn key.  A negative integer
    raises ValueError, any other seed TypeError."""
    if isinstance(seed, SeedSequence):
        return seed
    # a numpy SeedSequence exists only once numpy.random is loaded
    np_random = sys.modules.get("numpy.random")
    if np_random is not None and isinstance(seed, np_random.SeedSequence):
        if seed.pool_size == _POOL_SIZE:
            return SeedSequence(seed.entropy, seed.spawn_key)
    else:
        try:
            n = operator.index(seed)
        except TypeError:
            pass
        else:
            if n < 0:
                raise ValueError(f"seed must be non-negative, not {n}")
            return SeedSequence(n)
    raise TypeError(
        "seed must be a non-negative integer, a fuzzterm._draws.SeedSequence or a "
        f"numpy.random.SeedSequence of pool size {_POOL_SIZE}, not {seed!r}"
    )


class PCG64:
    """numpy's PCG64 bit generator seeded as numpy.random.default_rng(seed)
    seeds it.  state, inc, has_uint32 and uinteger are the fields of its
    bit_generator.state."""

    def __init__(self, seed: SeedSequence):
        words = seed.generate_state(8)
        # four little-endian 64-bit words: the state's high and low halves,
        # then the stream's
        hi_s, lo_s, hi_i, lo_i = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
        self.inc = ((hi_i << 64 | lo_i) << 1 | 1) & _MASK128
        self.state = ((self.inc + (hi_s << 64 | lo_s)) * _PCG_MULT + self.inc) & _MASK128
        self.has_uint32 = 0
        self.uinteger = 0

    def next_uint64(self) -> int:
        state = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def next_uint32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        value = self.next_uint64()
        self.has_uint32 = 1
        self.uinteger = value >> 32
        return value & _MASK32

    def bounded(self, rng: int) -> int:
        """A draw in 0..rng, 0 <= rng < 2**64, as numpy's
        random_bounded_uint64 makes it; rng 0 draws nothing."""
        if 0 < rng < _MASK32:
            draw, bits, mask = self.next_uint32, 32, _MASK32
        elif _MASK32 < rng < _MASK64:
            draw, bits, mask = self.next_uint64, 64, _MASK64
        elif rng == 0:
            return 0
        elif rng == _MASK32:
            return self.next_uint32()
        elif rng == _MASK64:
            return self.next_uint64()
        else:
            raise ValueError(f"bound {rng} lies outside 0..2**64-1")
        # Lemire's unbiased draw: the high bits of draw() * (rng + 1), drawn
        # again while the low bits fall below 2**bits % (rng + 1)
        bound = rng + 1
        m = draw() * bound
        if m & mask < bound:
            threshold = (mask - rng) % bound
            while m & mask < threshold:
                m = draw() * bound
        return m >> bits

    def choice(self, n: int, size: int) -> np.ndarray:
        """Generator.choice(n, size, replace=False): size distinct int64
        draws from range(n)."""
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct draws from {n}")
        if n > 10_000 and size > min(10_000, n // 50):
            picks = list(range(n))
            self._shuffle(picks, max(n - size, 1))
            return np.array(picks[n - size :], dtype=np.int64)
        picks = []
        taken = set()
        # Floyd's algorithm: a draw already taken becomes j, which none is
        for j in range(n - size, n):
            value = self.bounded(j)
            if value in taken:
                value = j
            taken.add(value)
            picks.append(value)
        self._shuffle(picks, 1)
        return np.array(picks, dtype=np.int64)

    def _shuffle(self, items: list[int], first: int) -> None:
        """Fisher-Yates from the last item down to items[first]."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self.bounded(i)
            items[i], items[j] = items[j], items[i]

