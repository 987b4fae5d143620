import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnma import rng as R
from nnma.corpus import synth_generate
from nnma.embeddings import Vocabulary
from nnma.model import NnmaModel
from nnma.rng import Rng

LANE_MIN = R._LANE_MIN_WORDS
LANE_BLOCK = R._LANE_STRIDE * R._LANE_GROUP  # words in one full group of lanes


def per_entry(rng, rows, cols, lo, hi):
    """Reference fill: one ``Rng.uniform`` call per entry, row-major."""
    draws = [rng.uniform(lo, hi) for _ in range(rows * cols)]
    return np.array(draws, dtype=np.float64).reshape(rows, cols)


def assert_twins_agree(seed, rows, cols, lo, hi):
    """``uniform_matrix`` on one generator against per-entry draws on its
    twin: same entries bitwise, then the same next word."""
    fast, slow = Rng(seed), Rng(seed)
    fast.next_u64()
    slow.next_u64()
    got = fast.uniform_matrix(rows, cols, lo, hi)
    want = per_entry(slow, rows, cols, lo, hi)
    assert got.shape == (rows, cols) and got.dtype == np.float64
    assert np.array_equal(got, want)
    assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("rows, cols, lo, hi", [
    (1, 1, 0.0, 1.0),
    (3, 7, -1.0, 1.0),
    (50, 40, -0.05, 0.05),
    (0, 4, -1.0, 1.0),
    (2, 3, 0, 5),
    (3, 5000, 1.0, 4.0),  # 29 lanes, then a partial last lane of 152 words
    (2, 4000, 1.0, 4.0),  # two scalar-loop blocks, the last one partial
    (1, LANE_MIN - 1, -1.0, 1.0),  # the largest scalar draw
    (1, LANE_MIN, -1.0, 1.0),  # the smallest lane draw, whole lanes only
    (1, 32767, -1.0, 1.0),  # 63 lanes and a partial last lane of 511 words
    (1, 32768, -1.0, 1.0),  # 64 whole lanes
    (3, 11000, -0.5, 0.25),  # lanes, then a partial last lane of 232 words
    (2 * LANE_BLOCK // 512, 512, -0.05, 0.05),  # exactly two full lane groups
    (20001, 50, -0.05, 0.05),  # the paper-shape embedding
    (100, 100, -0.17, 0.17),  # paper-shape w_a, on lanes
    (100, 200, -0.14, 0.14),  # paper-shape w_b
])
def test_uniform_matrix_matches_per_entry_draws(rows, cols, lo, hi):
    assert_twins_agree(2024, rows, cols, lo, hi)


def lane_draws(monkeypatch) -> list[int]:
    """Records the lanes of every lane draw from here on."""
    calls = []
    lane_words = R._lane_words

    def counted(starts, out):
        calls.append(len(starts))
        lane_words(starts, out)

    monkeypatch.setattr(R, "_lane_words", counted)
    return calls


@settings(max_examples=15, deadline=None)
@given(rows=st.integers(1, 64), extra=st.integers(-600, 1200),
       seed=st.integers(0, 2**64 - 1))
def test_uniform_matrix_around_the_lane_threshold(rows, extra, seed):
    cols = max(1, (LANE_MIN + extra) // rows)
    assert_twins_agree(seed, rows, cols, -1.0, 1.0)


# Blackman & Vigna's jump(): 2^128 steps of xoshiro256**.
PUBLISHED_JUMP = [0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C,
                  0xA9582618E03FC9AA, 0x39ABDC4529B1661C]


def published_jump(rng):
    """The reference implementation of jump(), on ``rng`` in place."""
    acc = [0, 0, 0, 0]
    for word in PUBLISHED_JUMP:
        for b in range(64):
            if word >> b & 1:
                acc = [a ^ s for a, s in zip(acc, rng._s)]
            rng.next_u64()
    rng._s[:] = acc


def jumped(state, log2_steps):
    moved = R._advance(np.array([state], dtype=np.uint64), R._jump(log2_steps))
    return [int(w) for w in moved[0]]


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_jump_matrix_2_128_is_the_published_jump(seed):
    rng = Rng(seed)
    start = list(rng._s)
    published_jump(rng)
    assert jumped(start, 128) == rng._s


@pytest.mark.parametrize("log2_steps", range(11))
def test_jump_matrix_is_2_to_the_k_steps(log2_steps):
    rng = Rng(77 + log2_steps)
    start = list(rng._s)
    for _ in range(2**log2_steps):
        rng.next_u64()
    assert jumped(start, log2_steps) == rng._s


def test_jump_matrices_are_packed_and_read_only():
    m = R._jump(12)
    assert m.dtype == np.uint64 and m.shape == (256, 4) and m.nbytes == 8192
    assert not m.flags.writeable


def test_paper_shape_weights_after_the_embedding_draw_take_lanes(monkeypatch):
    # Each LSTM direction's stacked gate weights (4d x (d_e + d), 20k
    # words), then each side's w_a (10k) and w_b (20k) per level, follow
    # the embedding matrix, whose draw builds the jumps.
    R._jump.cache_clear()
    calls = lane_draws(monkeypatch)
    vocab = Vocabulary([f"w{i}" for i in range(20000)])
    NnmaModel.create(vocab, ["A", "B"], d_e=50, d=50, d_m=200, k=2, rng=Rng(3))
    w_a, wide = 10000 // R._LANE_STRIDE, 20000 // R._LANE_STRIDE
    after_embedding = calls[calls.index(wide):]
    encoder, attention = after_embedding[:4], after_embedding[4:]
    assert encoder == [wide] * 4
    assert [c for c in attention if c in (w_a, wide)] == [w_a, wide] * 4


def test_only_lane_draws_build_jump_matrices():
    # The overfit shape (d 16, d_m 32, d_e 50, V 33) draws nothing that
    # reaches the lanes, so it builds no jump matrix; the first lane draw
    # builds them.
    R._jump.cache_clear()
    data = synth_generate(3, 8)
    NnmaModel.create(Vocabulary.from_instances(data.instances), data.label_inventory(),
                     d_e=50, d=16, d_m=32, k=2, rng=Rng(3))
    Rng(1).uniform_matrix(1, LANE_MIN - 1, 0.0, 1.0)
    assert R._jump.cache_info().currsize == 0
    Rng(1).uniform_matrix(1, LANE_MIN, 0.0, 1.0)
    assert R._jump.cache_info().currsize > 0


def test_lane_starts_are_a_stride_apart():
    rng = Rng(5)
    starts = R._lane_starts(list(rng._s), 5)
    for lane in range(5):
        assert [int(w) for w in starts[lane]] == rng._s
        for _ in range(R._LANE_STRIDE):
            rng.next_u64()


def test_uniform_matrix_draws_stay_in_range():
    draws = Rng(3).uniform_matrix(20, 30, -0.25, 0.75)
    assert np.all(draws >= -0.25) and np.all(draws < 0.75)
