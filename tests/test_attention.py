import numpy as np
import pytest

from nnma.attention import GeneralRepr, memory_input_width, run_stack
from nnma.rng import Rng
from nnma.tensor import Tensor, grad_check
from per_op import attend, general_repr, mean_cols, memory_first, memory_next, sum_all
from table_params import arg_attention, attention_level


def rand_matrix(rows, cols, seed, requires_grad=False):
    data = Rng(seed).uniform_matrix(rows, cols, -1.0, 1.0)
    return Tensor(data, requires_grad=requires_grad)


def level_params(level, d, d_m, seed):
    return attention_level(level, d, d_m, Rng(seed))


def zero_scores(params):
    """Zero every position-scoring matrix in a parameter stack."""
    for p in params:
        p.arg1.w_s.data[:] = 0.0
        p.arg2.w_s.data[:] = 0.0


def stack_params(K, d, d_m, seed):
    rng = Rng(seed)
    return [attention_level(k, d, d_m, rng) for k in range(1, K + 1)]


class TestGeneralRepr:
    def test_identical_columns_reproduce_the_column(self):
        v = np.array([[0.3], [-1.2], [0.5], [2.0]])
        h = Tensor(np.repeat(v, 5, axis=1))
        g = general_repr(h, h)
        np.testing.assert_array_equal(g.R0_1.data, v)

    def test_two_column_mean(self):
        g = general_repr(Tensor([[1.0, 3.0]]), Tensor([[5.0]]))
        assert g.R0_1.item() == 2.0
        assert g.R0_2.item() == 5.0

    def test_matches_brute_force_average(self):
        h = rand_matrix(4, 7, seed=1)
        g = general_repr(h, h)
        expected = np.zeros((4, 1))
        for i in range(7):
            expected[:, 0] += h.data[:, i]
        expected /= 7
        np.testing.assert_allclose(g.R0_1.data, expected, rtol=0, atol=1e-12)


class TestMemoryFirst:
    def test_zero_weights_zero_memory(self):
        d, d_m = 2, 3
        p = level_params(1, d, d_m, seed=2)
        p.w_m.data[:] = 0.0
        g = GeneralRepr(rand_matrix(2 * d, 1, 3), rand_matrix(2 * d, 1, 4))
        np.testing.assert_array_equal(memory_first(g, p).data, np.zeros((d_m, 1)))

    def test_equal_representations_ignore_difference_block(self):
        # With R0_1 == R0_2 the third input block is exactly zero, so
        # the columns of W_m that read it cannot influence the output.
        d, d_m = 2, 3
        p = level_params(1, d, d_m, seed=5)
        r = rand_matrix(2 * d, 1, 6)
        g = GeneralRepr(r, Tensor(r.data.copy()))
        before = memory_first(g, p).data.copy()
        p.w_m.data[:, 4 * d:] = 99.0
        after = memory_first(g, p).data
        np.testing.assert_array_equal(before, after)

    def test_output_bounded(self):
        d, d_m = 3, 4
        p = level_params(1, d, d_m, seed=7)
        g = GeneralRepr(rand_matrix(2 * d, 1, 8), rand_matrix(2 * d, 1, 9))
        m = memory_first(g, p).data
        assert np.all(np.abs(m) < 1.0)

    def test_level_two_params_rejected(self):
        d, d_m = 2, 3
        p = level_params(2, d, d_m, seed=10)
        g = GeneralRepr(rand_matrix(2 * d, 1, 11), rand_matrix(2 * d, 1, 12))
        with pytest.raises(ValueError):
            memory_first(g, p)


class TestMemoryNext:
    def test_zero_weights_zero_memory(self):
        d, d_m = 2, 3
        p = level_params(2, d, d_m, seed=13)
        p.w_m.data[:] = 0.0
        out = memory_next(rand_matrix(2 * d, 1, 14), rand_matrix(2 * d, 1, 15),
                          rand_matrix(d_m, 1, 16), p)
        np.testing.assert_array_equal(out.data, np.zeros((d_m, 1)))

    def test_block_decomposition_matches_first_level_formula(self):
        # Zeroing the memory block reduces the update to the level-1
        # formula applied to the previous representations.
        d, d_m = 2, 3
        p2 = level_params(2, d, d_m, seed=17)
        p2.w_m.data[:, 6 * d:] = 0.0
        r1 = rand_matrix(2 * d, 1, 18)
        r2 = rand_matrix(2 * d, 1, 19)
        m_prev = rand_matrix(d_m, 1, 20)
        out = memory_next(r1, r2, m_prev, p2)

        p1 = level_params(1, d, d_m, seed=21)
        p1.w_m.data[:] = p2.w_m.data[:, :6 * d]
        ref = memory_first(GeneralRepr(r1, r2), p1)
        np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-15)

    def test_output_bounded(self):
        d, d_m = 2, 3
        p = level_params(2, d, d_m, seed=22)
        out = memory_next(rand_matrix(2 * d, 1, 23), rand_matrix(2 * d, 1, 24),
                          rand_matrix(d_m, 1, 25), p)
        assert np.all(np.abs(out.data) < 1.0)

    def test_level_one_params_rejected(self):
        d, d_m = 2, 3
        p = level_params(1, d, d_m, seed=26)
        with pytest.raises(ValueError):
            memory_next(rand_matrix(2 * d, 1, 27), rand_matrix(2 * d, 1, 28),
                        rand_matrix(d_m, 1, 29), p)


class TestMemoryInputWidth:
    def test_level_one(self):
        assert memory_input_width(1, 5, 7) == 30

    def test_deeper_levels_append_memory(self):
        assert memory_input_width(2, 5, 7) == 37
        assert memory_input_width(3, 5, 7) == 37

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            memory_input_width(0, 5, 7)


class TestAttend:
    def test_zero_scores_give_uniform_and_exact_mean(self):
        d, d_m, L = 2, 3, 5
        p = arg_attention(d, d_m, Rng(30))
        p.w_s.data[:] = 0.0
        h = rand_matrix(2 * d, L, 31)
        M = rand_matrix(d_m, 1, 32)
        a, r = attend(h, M, p)
        np.testing.assert_array_equal(a.data, np.full((L, 1), 1.0 / L))
        np.testing.assert_array_equal(r.data, mean_cols(h).data)

    def test_single_word(self):
        d, d_m = 2, 3
        p = arg_attention(d, d_m, Rng(33))
        h = rand_matrix(2 * d, 1, 34)
        a, r = attend(h, rand_matrix(d_m, 1, 35), p)
        assert a.data.tolist() == [[1.0]]
        np.testing.assert_array_equal(r.data, h.data)

    def test_weighted_sum_matches_explicit_loop(self):
        d, d_m, L = 3, 4, 6
        p = arg_attention(d, d_m, Rng(36))
        h = rand_matrix(2 * d, L, 37)
        a, r = attend(h, rand_matrix(d_m, 1, 38), p)
        expected = np.zeros((2 * d, 1))
        for i in range(L):
            expected[:, 0] += a.data[i, 0] * h.data[:, i]
        np.testing.assert_allclose(r.data, expected, rtol=0, atol=1e-12)

    def test_distribution_properties(self):
        d, d_m, L = 2, 3, 7
        p = arg_attention(d, d_m, Rng(39))
        h = rand_matrix(2 * d, L, 40)
        a, _ = attend(h, rand_matrix(d_m, 1, 41), p)
        assert np.all(a.data >= 0.0)
        assert abs(a.data.sum() - 1.0) <= 1e-9

    def test_representation_in_convex_hull(self):
        d, d_m, L = 2, 3, 5
        p = arg_attention(d, d_m, Rng(42))
        h = rand_matrix(2 * d, L, 43)
        _, r = attend(h, rand_matrix(d_m, 1, 44), p)
        lo = h.data.min(axis=1, keepdims=True)
        hi = h.data.max(axis=1, keepdims=True)
        assert np.all(r.data >= lo - 1e-12)
        assert np.all(r.data <= hi + 1e-12)


class TestRunStack:
    def test_single_level_equals_manual_pipeline(self):
        d, d_m = 2, 3
        params = stack_params(1, d, d_m, seed=45)
        h1 = rand_matrix(2 * d, 4, 46)
        h2 = rand_matrix(2 * d, 3, 47)
        trace = run_stack(h1, h2, params)

        g = general_repr(h1, h2)
        M = memory_first(g, params[0])
        a1, r1 = attend(h1, M, params[0].arg1)
        a2, r2 = attend(h2, M, params[0].arg2)
        lv = trace.levels[0]
        np.testing.assert_array_equal(lv.M.data, M.data)
        np.testing.assert_array_equal(lv.a1.data, a1.data)
        np.testing.assert_array_equal(lv.a2.data, a2.data)
        np.testing.assert_array_equal(lv.R1.data, r1.data)
        np.testing.assert_array_equal(lv.R2.data, r2.data)

    def test_all_zero_parameters(self):
        d, d_m = 2, 3
        params = stack_params(2, d, d_m, seed=48)
        for p in params:
            for t in p.tensors():
                t.data[:] = 0.0
        h1 = rand_matrix(2 * d, 4, 49)
        h2 = rand_matrix(2 * d, 5, 50)
        trace = run_stack(h1, h2, params)
        for lv in trace.levels:
            np.testing.assert_array_equal(lv.M.data, np.zeros((d_m, 1)))
            np.testing.assert_array_equal(lv.a1.data, np.full((4, 1), 0.25))
            np.testing.assert_array_equal(lv.a2.data, np.full((5, 1), 0.2))
            np.testing.assert_array_equal(lv.R1.data, mean_cols(h1).data)
            np.testing.assert_array_equal(lv.R2.data, mean_cols(h2).data)

    def test_empty_stack_rejected(self):
        h = rand_matrix(4, 3, 51)
        with pytest.raises(ValueError):
            run_stack(h, h, [])

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_zero_scores_reduce_to_general_repr_bitwise(self, K):
        d, d_m = 2, 3
        params = stack_params(K, d, d_m, seed=52 + K)
        zero_scores(params)
        h1 = rand_matrix(2 * d, 5, 60)
        h2 = rand_matrix(2 * d, 7, 61)
        trace = run_stack(h1, h2, params)
        for lv in trace.levels:
            np.testing.assert_array_equal(lv.R1.data, trace.general.R0_1.data)
            np.testing.assert_array_equal(lv.R2.data, trace.general.R0_2.data)

    def test_replay_consistency_of_level_three(self):
        d, d_m = 2, 3
        params = stack_params(3, d, d_m, seed=62)
        h1 = rand_matrix(2 * d, 4, 63)
        h2 = rand_matrix(2 * d, 6, 64)
        trace = run_stack(h1, h2, params)
        lv2, lv3 = trace.levels[1], trace.levels[2]

        M = memory_next(lv2.R1, lv2.R2, lv2.M, params[2])
        a1, r1 = attend(h1, M, params[2].arg1)
        a2, r2 = attend(h2, M, params[2].arg2)
        np.testing.assert_array_equal(lv3.M.data, M.data)
        np.testing.assert_array_equal(lv3.a1.data, a1.data)
        np.testing.assert_array_equal(lv3.a2.data, a2.data)
        np.testing.assert_array_equal(lv3.R1.data, r1.data)
        np.testing.assert_array_equal(lv3.R2.data, r2.data)

    def test_memories_bounded(self):
        d, d_m = 2, 4
        params = stack_params(3, d, d_m, seed=65)
        h1 = rand_matrix(2 * d, 5, 66)
        h2 = rand_matrix(2 * d, 5, 67)
        trace = run_stack(h1, h2, params)
        for lv in trace.levels:
            assert np.all(np.abs(lv.M.data) < 1.0)

    def test_full_stack_gradient_check(self):
        d, d_m, L, K = 3, 4, 4, 3
        params = stack_params(K, d, d_m, seed=68)
        h1 = rand_matrix(2 * d, L, 69, requires_grad=True)
        h2 = rand_matrix(2 * d, L, 70, requires_grad=True)
        tensors = [t for p in params for t in p.tensors()] + [h1, h2]

        def loss():
            trace = run_stack(h1, h2, params)
            return sum_all(trace.final)

        assert grad_check(loss, tensors) < 1e-4
