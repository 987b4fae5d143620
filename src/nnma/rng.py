"""Deterministic pseudo-random generator used for every stochastic choice.

All randomness in a run (parameter init, data shuffling, dropout masks,
synthetic data) flows through one :class:`Rng` seeded once, so identical
seeds reproduce runs byte-for-byte and the generator can be reimplemented
in any language from the description below.

Algorithm: xoshiro256** (Blackman & Vigna's 64-bit xorshift family).
The 256-bit state is expanded from the 64-bit seed with SplitMix64.
Doubles take the top 53 bits of one output word: ``(u64 >> 11) * 2**-53``.

Large matrices are drawn on lanes of the same stream. The state
transition of xoshiro256** is linear over GF(2), so n steps are one
256 x 256 bit matrix T^n, and T^(2^j) follows from T by j squarings
(Haramoto et al., "Efficient Jump Ahead for F2-Linear Random Number
Generators", 2008). Lane i starts 512 i words into the draw, and numpy
steps all lanes together. Each entry and the state after the draw are
exactly those of the one-word-at-a-time sequence; only the speed differs.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_CHUNK = 4096  # words per block in the scalar loop, bounding its Python-int list
# Draws of at least this many words run on lanes. A lane draw costs
# about 8 ms however few lanes it has (one numpy step per stride word),
# plus the jump matrices on a process's first lane draw; the scalar loop
# costs about 1 us a word. Dropout masks and overfit-shape weights stay
# well below it.
_LANE_MIN_WORDS = 1 << 15
_LANE_STRIDE_LOG2 = 9
_LANE_STRIDE = 1 << _LANE_STRIDE_LOG2  # consecutive words drawn by one lane
_LANE_GROUP = 1024  # lanes stepped together
_ADVANCE_ROWS = 128  # states moved per float32 product in _advance


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _scalar_words(state: list[int], out: np.ndarray) -> list[int]:
    """Fill ``out`` with ``next_u64() >> 11`` of successive steps from
    ``state``; return the state after them. The generator step runs
    inline on local words."""
    s0, s1, s2, s3 = state
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
    return [s0, s1, s2, s3]


def _step_lanes(s0, s1, s2, s3, t) -> None:
    """One state transition of every lane, in place; ``t`` is a work buffer."""
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


def _bits(states: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 states as (n, 256) float32 bits, bit b of word w at
    column 64 w + b."""
    raw = states.astype("<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little").astype(np.float32)


def _advance(states: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """Each (n, 4) state moved by a packed jump matrix. The GF(2) product
    is a float32 product taken mod 2; its sums are at most 256, so exact.
    Rows go _ADVANCE_ROWS at a time, bounding the float32 temporaries."""
    matrix = _bits(jump)
    out = np.empty_like(states)
    for r0 in range(0, len(states), _ADVANCE_ROWS):
        bits = _bits(states[r0:r0 + _ADVANCE_ROWS]) @ matrix
        np.remainder(bits, 2, out=bits)
        packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
        out[r0:r0 + _ADVANCE_ROWS] = packed.view("<u8")
    return out


@functools.cache
def _jump(log2_steps: int) -> np.ndarray:
    """T^(2^log2_steps), packed as (256, 4) uint64 (8 KB): row i is the
    state that the basis state with only bit i set reaches after that many
    steps. Read-only, and cached, as it depends on nothing else."""
    if log2_steps == 0:
        i = np.arange(256)
        basis = np.zeros((256, 4), dtype=np.uint64)
        basis[i, i // 64] = np.uint64(1) << (i % 64).astype(np.uint64)
        words = [basis[:, w].copy() for w in range(4)]
        _step_lanes(*words, np.empty(256, dtype=np.uint64))
        matrix = np.stack(words, axis=1)
    else:
        half = _jump(log2_steps - 1)
        matrix = _advance(half, half)
    matrix.setflags(write=False)
    return matrix


def _lane_starts(state: list[int], lanes: int) -> np.ndarray:
    """(lanes, 4) states, row i being ``state`` moved i * _LANE_STRIDE
    steps. Each jump T^(2^j) doubles the rows."""
    starts = np.array([state], dtype=np.uint64)
    log2_steps = _LANE_STRIDE_LOG2
    while len(starts) < lanes:
        more = starts[:lanes - len(starts)]
        starts = np.concatenate([starts, _advance(more, _jump(log2_steps))])
        log2_steps += 1
    return starts


def _lane_words(starts: np.ndarray, out: np.ndarray) -> None:
    """Fill row i of the (lanes, _LANE_STRIDE) ``out`` with ``u64 >> 11``
    of the steps from ``starts[i]``, a group of lanes at a time."""
    for r0 in range(0, len(starts), _LANE_GROUP):
        group = starts[r0:r0 + _LANE_GROUP]
        s0, s1, s2, s3 = (group[:, w].copy() for w in range(4))
        x, t = np.empty_like(s0), np.empty_like(s0)
        dest = out[r0:r0 + len(group)]
        for k in range(_LANE_STRIDE):
            np.multiply(s1, 5, out=x)
            np.left_shift(x, 7, out=t)
            x >>= 57
            x |= t
            x *= 9
            x >>= 11
            dest[:, k] = x
            _step_lanes(s0, s1, s2, s3, t)


class Rng:
    """xoshiro256** generator with convenience draws for this project."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        s = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            s.append(word)
        # Never all zero, as xoshiro256** needs: SplitMix64's output mix is
        # a bijection and the four states differ, so at most one word is 0.
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

        Bit-identical to calling ``uniform(lo, hi)`` once per entry, and
        leaves the generator where those calls would: the same float
        operations are applied to the whole array. A draw of at least
        ``_LANE_MIN_WORDS`` words fills its whole strides on lanes and
        its last partial stride with the scalar loop, which starts from
        the state one lane further on.
        """
        out = np.empty(rows * cols)
        if out.size < _LANE_MIN_WORDS:
            self._s[:] = _scalar_words(self._s, out)
        else:
            lanes = out.size // _LANE_STRIDE
            starts = _lane_starts(self._s, lanes + 1)
            _lane_words(starts[:lanes], out[:lanes * _LANE_STRIDE].reshape(lanes, _LANE_STRIDE))
            tail = [int(w) for w in starts[lanes]]
            self._s[:] = _scalar_words(tail, out[lanes * _LANE_STRIDE:])
        out *= 2.0**-53
        out *= hi - lo
        out += lo
        return out.reshape(rows, cols)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
