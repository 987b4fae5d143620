import math

import numpy as np
import pytest

from nnma.recurrent import BiLstmParams, LstmParams, bi_encode, run_direction
from nnma.rng import Rng
from nnma.tensor import (Tensor, concat, grad_check, hadamard, hstack,
                         select_columns, sigmoid, sum_all, tanh, topo_order)


def lstm_step(x, h_prev, c_prev, p):
    """Reference cell built from tensor primitives; returns (h, c).

    The gate input is the stacked vector [x; h_prev], in that order.
    """
    z = concat([x, h_prev])
    i = sigmoid(p.W_i @ z + p.b_i)
    f = sigmoid(p.W_f @ z + p.b_f)
    o = sigmoid(p.W_o @ z + p.b_o)
    c_hat = tanh(p.W_c @ z + p.b_c)
    c = i * c_hat + f * c_prev
    h = o * tanh(c)
    return h, c


def unrolled_direction(seq, p, reverse=False):
    """Reference direction run: one ``lstm_step`` graph per word."""
    d = p.hidden_dim
    h = Tensor.zeros(d, 1)
    c = Tensor.zeros(d, 1)
    order = range(seq.cols - 1, -1, -1) if reverse else range(seq.cols)
    states = {}
    for t in order:
        h, c = lstm_step(select_columns(seq, [t]), h, c, p)
        states[t] = h
    return hstack([states[t] for t in range(seq.cols)])


def zero_params(input_dim, hidden_dim):
    width = input_dim + hidden_dim
    mats = [Tensor.zeros(hidden_dim, width, requires_grad=True) for _ in range(4)]
    vecs = [Tensor.zeros(hidden_dim, 1, requires_grad=True) for _ in range(4)]
    return LstmParams(*mats, *vecs)


def random_params(input_dim, hidden_dim, seed):
    return LstmParams.create(input_dim, hidden_dim, Rng(seed))


def random_seq(input_dim, length, seed, requires_grad=False):
    data = Rng(seed).uniform_matrix(input_dim, length, -1.0, 1.0)
    return Tensor(data, requires_grad=requires_grad)


def scalar_cell(w, x, h_prev, c_prev):
    """Independent plain-float oracle for a 1-dimensional cell with all
    four gate weights equal to ``w`` (a 2-list) and zero biases."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = w[0] * x + w[1] * h_prev
    i = sig(z)
    f = sig(z)
    o = sig(z)
    c_hat = math.tanh(z)
    c = i * c_hat + f * c_prev
    h = o * math.tanh(c)
    return h, c


class TestLstmStep:
    def test_zero_parameter_fixed_point(self):
        p = zero_params(2, 3)
        x = Tensor([[0.4], [-0.7]])
        h, c = lstm_step(x, Tensor.zeros(3, 1), Tensor.zeros(3, 1), p)
        np.testing.assert_array_equal(c.data, np.zeros((3, 1)))
        np.testing.assert_array_equal(h.data, np.zeros((3, 1)))

    def test_zero_parameter_gates_are_half(self):
        # With weights and biases zero every gate input is 0 and the
        # sigmoid gates sit at 0.5; visible through a nonzero c_prev.
        p = zero_params(1, 1)
        h, c = lstm_step(Tensor([[1.0]]), Tensor([[0.0]]), Tensor([[1.0]]), p)
        assert c.item() == 0.5
        assert h.item() == 0.5 * math.tanh(0.5)

    def test_scalar_hand_calculation(self):
        p = zero_params(1, 1)
        for mat in (p.W_i, p.W_f, p.W_o, p.W_c):
            mat.data[:] = [[1.0, 0.0]]
        h, c = lstm_step(Tensor([[1.0]]), Tensor([[0.0]]), Tensor([[0.0]]), p)

        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        assert sig1 == 0.7310585786300049
        c_expected = sig1 * math.tanh(1.0)
        h_expected = sig1 * math.tanh(c_expected)
        assert c.item() == c_expected
        assert h.item() == h_expected
        assert h.item() == 0.36960635293570576

    def test_scalar_oracle_random_inputs(self):
        rng = Rng(31)
        w = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        p = zero_params(1, 1)
        for mat in (p.W_i, p.W_f, p.W_o, p.W_c):
            mat.data[:] = [w]
        x, h_prev, c_prev = (rng.uniform(-1, 1) for _ in range(3))
        h, c = lstm_step(Tensor([[x]]), Tensor([[h_prev]]), Tensor([[c_prev]]), p)
        h_ref, c_ref = scalar_cell(w, x, h_prev, c_prev)
        assert abs(h.item() - h_ref) < 1e-15
        assert abs(c.item() - c_ref) < 1e-15

    def test_concat_order_input_before_hidden(self):
        # The x block of each weight matrix comes first: a matrix that
        # reads only its first input_dim columns must respond to x and
        # ignore h_prev.
        p = zero_params(1, 1)
        p.W_c.data[:] = [[1.0, 0.0]]
        h_a, _ = lstm_step(Tensor([[2.0]]), Tensor([[0.0]]), Tensor([[0.0]]), p)
        h_b, _ = lstm_step(Tensor([[2.0]]), Tensor([[5.0]]), Tensor([[0.0]]), p)
        assert h_a.item() == h_b.item()
        assert h_a.item() != 0.0

    def test_hidden_state_bounded(self):
        p = random_params(3, 4, seed=5)
        h = Tensor.zeros(4, 1)
        c = Tensor.zeros(4, 1)
        for t in range(20):
            x = random_seq(3, 1, seed=100 + t)
            h, c = lstm_step(x, h, c, p)
            assert np.all(np.abs(h.data) < 1.0)

    def test_shape_mismatch_rejected(self):
        p = zero_params(2, 3)
        with pytest.raises(ValueError):
            lstm_step(Tensor.zeros(5, 1), Tensor.zeros(3, 1), Tensor.zeros(3, 1), p)

    def test_gradient_check_one_step(self):
        p = random_params(2, 3, seed=9)
        x = random_seq(2, 1, seed=10, requires_grad=True)
        c_prev = random_seq(3, 1, seed=11, requires_grad=True)
        h_prev = random_seq(3, 1, seed=12, requires_grad=True)
        params = p.tensors() + [x, h_prev, c_prev]

        def loss():
            h, c = lstm_step(x, h_prev, c_prev, p)
            return sum_all(concat([h, c]))

        assert grad_check(loss, params) < 1e-6


class TestRunDirection:
    def test_single_word_directions_agree(self):
        p = random_params(2, 3, seed=21)
        seq = random_seq(2, 1, seed=22)
        fwd = run_direction(seq, p, reverse=False)
        bwd = run_direction(seq, p, reverse=True)
        np.testing.assert_array_equal(fwd.data, bwd.data)

    def test_zero_parameters_give_zero_output(self):
        p = zero_params(2, 3)
        seq = random_seq(2, 5, seed=23)
        out = run_direction(seq, p)
        np.testing.assert_array_equal(out.data, np.zeros((3, 5)))

    def test_empty_sequence_rejected(self):
        p = zero_params(2, 3)
        with pytest.raises(ValueError):
            run_direction(Tensor(np.zeros((2, 0))), p)

    def test_reversed_equals_naive_construction(self):
        p = random_params(3, 4, seed=24)
        seq = random_seq(3, 6, seed=25)
        direct = run_direction(seq, p, reverse=True)
        flipped = Tensor(seq.data[:, ::-1].copy())
        naive = run_direction(flipped, p, reverse=False).data[:, ::-1]
        np.testing.assert_array_equal(direct.data, naive)

    def test_forward_prefix_property(self):
        # Forward states depend only on the words consumed so far, so a
        # shared prefix yields identical leading columns.
        p = random_params(2, 3, seed=26)
        seq = random_seq(2, 5, seed=27)
        prefix = Tensor(seq.data[:, :3].copy())
        full = run_direction(seq, p)
        short = run_direction(prefix, p)
        np.testing.assert_array_equal(full.data[:, :3], short.data)

    def test_deterministic(self):
        p = random_params(2, 3, seed=28)
        seq = random_seq(2, 4, seed=29)
        a = run_direction(seq, p, reverse=True)
        b = run_direction(seq, p, reverse=True)
        np.testing.assert_array_equal(a.data, b.data)


class TestFusedAgainstReference:
    """The fused run against the unrolled graph of reference cells."""

    @staticmethod
    def setup_case(length, reverse, seed):
        input_dim, hidden_dim = 5, 3
        p = random_params(input_dim, hidden_dim, seed)
        rng = Rng(seed + 1)
        for bias in p.tensors()[4:]:
            bias.data[:] = rng.uniform_matrix(hidden_dim, 1, -0.5, 0.5)
        seq = random_seq(input_dim, length, seed + 2, requires_grad=True)
        # Distinct weights per output entry, so every column's adjoint
        # differs and a misaligned step shows.
        weights = Tensor(Rng(seed + 3).uniform_matrix(hidden_dim, length, -1.0, 1.0))

        def loss(run):
            return sum_all(hadamard(run(seq, p, reverse), weights))

        return p, seq, loss

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("length", [1, 2, 30])
    def test_values_and_all_nine_gradients(self, length, reverse):
        p, seq, loss = self.setup_case(length, reverse, seed=60 + length)
        inputs = [seq] + p.tensors()
        results = []
        for run in (run_direction, unrolled_direction):
            for t in inputs:
                t.zero_grad()
            out = run(seq, p, reverse)
            loss(run).backward()
            results.append((out.data, [t.grad.copy() for t in inputs]))
        (fused, fused_grads), (ref, ref_grads) = results
        assert fused.shape == ref.shape == (3, length)
        assert np.max(np.abs(fused - ref)) <= 1e-12
        for got, want in zip(fused_grads, ref_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_check(self, reverse):
        p, seq, loss = self.setup_case(4, reverse, seed=70)
        assert grad_check(lambda: loss(run_direction), p.tensors() + [seq]) < 1e-6

    def test_one_node_per_run(self):
        p = random_params(3, 2, seed=71)
        seq = random_seq(3, 12, seed=72, requires_grad=True)
        tape = topo_order(run_direction(seq, p))
        assert len(tape) == 1 + 1 + len(p.tensors())

    def test_shape_mismatch_rejected(self):
        p = zero_params(2, 3)
        with pytest.raises(ValueError):
            run_direction(Tensor.zeros(5, 4), p)


class TestBiEncode:
    def test_output_shape(self):
        p = BiLstmParams.create(3, 4, Rng(30))
        for length in (1, 2, 7):
            seq = random_seq(3, length, seed=40 + length)
            assert bi_encode(seq, p).shape == (8, length)

    def test_zero_parameters_give_zero_matrix(self):
        p = BiLstmParams(zero_params(2, 3), zero_params(2, 3))
        seq = random_seq(2, 4, seed=41)
        np.testing.assert_array_equal(bi_encode(seq, p).data, np.zeros((6, 4)))

    def test_rows_decompose_into_directions(self):
        p = BiLstmParams.create(2, 3, Rng(33))
        seq = random_seq(2, 5, seed=42)
        out = bi_encode(seq, p)
        fwd = run_direction(seq, p.forward, reverse=False)
        bwd = run_direction(seq, p.backward, reverse=True)
        np.testing.assert_array_equal(out.data[:3], fwd.data)
        np.testing.assert_array_equal(out.data[3:], bwd.data)

    def test_gradient_reaches_every_parameter_and_input(self):
        p = BiLstmParams.create(3, 2, Rng(34))
        seq = random_seq(3, 4, seed=43, requires_grad=True)
        sum_all(bi_encode(seq, p)).backward()
        for t in p.tensors():
            assert t.grad is not None
            assert np.any(t.grad != 0.0)
        assert seq.grad is not None
        assert np.all(np.any(seq.grad != 0.0, axis=0))

    def test_gradient_check_full_encoder(self):
        p = BiLstmParams.create(2, 2, Rng(35))
        seq = random_seq(2, 3, seed=44, requires_grad=True)

        def loss():
            return sum_all(bi_encode(seq, p))

        assert grad_check(loss, p.tensors() + [seq]) < 1e-6

    def test_encoding_bounded(self):
        p = BiLstmParams.create(3, 4, Rng(36))
        seq = random_seq(3, 10, seed=45)
        out = bi_encode(seq, p)
        assert np.all(np.abs(out.data) < 1.0)
