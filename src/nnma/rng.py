"""Deterministic pseudo-random generator used for every stochastic choice.

All randomness in a run (parameter init, data shuffling, dropout masks,
synthetic data) flows through one :class:`Rng` seeded once, so identical
seeds reproduce runs byte-for-byte and the generator can be reimplemented
in any language from the description below.

Algorithm: xoshiro256** (Blackman & Vigna's 64-bit xorshift family).
The 256-bit state is expanded from the 64-bit seed with SplitMix64.
Doubles take the top 53 bits of one output word: ``(u64 >> 11) * 2**-53``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_CHUNK = 4096  # words per block in uniform_matrix, bounding its Python-int list


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class Rng:
    """xoshiro256** generator with convenience draws for this project."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        s = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            s.append(word)
        # xoshiro256** requires a nonzero state; SplitMix64 never emits
        # four zero words for any seed, but guard anyway.
        if not any(s):
            s[0] = 1
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform01(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of one word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform01()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n). Uses floor(u01 * n); the modulo-free
        mapping keeps the draw sequence language-portable."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        return min(int(self.uniform01() * n), n - 1)

    def uniform_matrix(self, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
        """Row-major matrix of uniform draws (draw order is part of the
        reproducibility contract).

        Bit-identical to calling ``uniform(lo, hi)`` once per entry: the
        generator step of ``next_u64`` runs inline on local state words,
        and the same float operations are applied to the whole array.
        """
        out = np.empty(rows * cols)
        s0, s1, s2, s3 = self._s
        for start in range(0, out.size, _CHUNK):
            words = []
            append = words.append
            for _ in range(min(_CHUNK, out.size - start)):
                x = (s1 * 5) & _MASK64
                append(((((x << 7) | (x >> 57)) * 9) & _MASK64) >> 11)
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            out[start:start + len(words)] = words
        self._s[:] = [s0, s1, s2, s3]
        out *= 2.0**-53
        out *= hi - lo
        out += lo
        return out.reshape(rows, cols)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
