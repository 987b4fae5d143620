import numpy as np
import pytest

from nnma.rng import Rng


def per_entry(rng, rows, cols, lo, hi):
    """Reference fill: one ``Rng.uniform`` call per entry, row-major."""
    out = np.empty((rows, cols))
    flat = out.reshape(-1)
    for i in range(flat.size):
        flat[i] = rng.uniform(lo, hi)
    return out


@pytest.mark.parametrize("rows, cols, lo, hi", [
    (1, 1, 0.0, 1.0),
    (3, 7, -1.0, 1.0),
    (50, 40, -0.05, 0.05),
    (0, 4, -1.0, 1.0),
    (2, 3, 0, 5),
    (3, 5000, 1.0, 4.0),  # several generator blocks, the last one partial
])
def test_uniform_matrix_matches_per_entry_draws(rows, cols, lo, hi):
    fast, slow = Rng(2024), Rng(2024)
    fast.next_u64()
    slow.next_u64()
    got = fast.uniform_matrix(rows, cols, lo, hi)
    want = per_entry(slow, rows, cols, lo, hi)
    assert got.shape == (rows, cols) and got.dtype == np.float64
    assert np.array_equal(got, want)
    assert fast.next_u64() == slow.next_u64()


def test_uniform_matrix_draws_stay_in_range():
    draws = Rng(3).uniform_matrix(20, 30, -0.25, 0.75)
    assert np.all(draws >= -0.25) and np.all(draws < 0.75)
