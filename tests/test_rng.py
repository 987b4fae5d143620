import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnma import rng as R
from nnma.embeddings import DRAW_BLOCKS, INIT_SCALE, Vocabulary
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


def matrix_draws(monkeypatch) -> list[tuple]:
    """Records the rows, cols, lo and hi of every ``uniform_matrix`` call
    from here on."""
    calls = []
    uniform_matrix = Rng.uniform_matrix

    def counted(self, rows, cols, lo, hi, out=None):
        calls.append((rows, cols, lo, hi))
        return uniform_matrix(self, rows, cols, lo, hi, out=out)

    monkeypatch.setattr(Rng, "uniform_matrix", counted)
    return calls


def test_paper_shape_weights_after_the_embedding_draw_take_lanes(monkeypatch):
    # The embedding matrix (50 x 20001) is drawn in DRAW_BLOCKS blocks of
    # columns; then every xavier and gates row of the network, 361,600
    # words at d 50, d_m 200, k 2 and 4 labels, comes from one unit draw. All five
    # take lanes.
    lanes = lane_draws(monkeypatch)
    draws = matrix_draws(monkeypatch)
    vocab = Vocabulary([f"w{i}" for i in range(20000)])
    model = NnmaModel.create(vocab, ["A", "B", "C", "D"], d_e=50, d=50, d_m=200, k=2,
                             rng=Rng(3))
    network = sum(p.data.size for spec, p in zip(model.table, model.parameters())
                  if spec.init in ("xavier", "gates"))
    assert network == 361_600
    step = -(-len(vocab) // DRAW_BLOCKS)
    blocks = [(min(step, len(vocab) - start), 50, -INIT_SCALE, INIT_SCALE)
              for start in range(0, len(vocab), step)]
    assert len(blocks) == DRAW_BLOCKS
    assert draws == blocks + [(1, network, 0.0, 1.0)]
    assert lanes == [rows * cols // R._LANE_STRIDE for rows, cols, _, _ in draws]


def test_only_lane_draws_build_jump_matrices():
    R._jump.cache_clear()
    Rng(1).uniform_matrix(1, LANE_MIN - 1, 0.0, 1.0)
    assert R._jump.cache_info().currsize == 0
    Rng(1).uniform_matrix(1, LANE_MIN, 0.0, 1.0)
    assert R._jump.cache_info().currsize > 0


def stepped(state, steps):
    rng = Rng(0)
    rng._s[:] = [int(w) for w in state]
    for _ in range(steps):
        rng.next_u64()
    return rng._s


def test_advance_over_several_row_blocks():
    # 2 full blocks of _ADVANCE_ROWS states and a partial third.
    states = np.array([Rng(seed)._s for seed in range(2 * R._ADVANCE_ROWS + 37)],
                      dtype=np.uint64)
    moved = R._advance(states, R._jump(3))
    assert moved.shape == states.shape and moved.dtype == np.uint64
    assert [[int(w) for w in row] for row in moved] == [stepped(s, 8) for s in states]


def test_advance_parity_of_a_full_sum():
    # Every product of an all-ones state and an all-ones matrix sums 256
    # ones: even, so every bit of the result is 0. A float32 256 cast
    # straight to uint8 would be out of range. With one row of the matrix
    # cleared every sum is 255, odd, and every bit is 1.
    ones = np.full((3, 4), 2**64 - 1, dtype=np.uint64)
    matrix = np.full((256, 4), 2**64 - 1, dtype=np.uint64)
    assert not R._advance(ones, matrix).any()
    matrix[0] = 0
    assert (R._advance(ones, matrix) == ones).all()


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
