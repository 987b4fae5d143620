import math

import numpy as np
import pytest

from nnma.model import parameter_table
from nnma.recurrent import encode_pair
from nnma.rng import Rng
from nnma.tensor import (ParamGroup, ShapeError, Tensor, _make, grad_check, select_columns,
                         topo_order)
from per_op import add, concat, hadamard, hstack, matmul, sigmoid, sum_all, tanh
from table_params import drawn


def lstm_step(x, h_prev, c_prev, p):
    """Reference cell built from tensor primitives; returns (h, c).

    The gate input is the stacked vector [x; h_prev], in that order.
    """
    z = concat([x, h_prev])
    i = sigmoid(add(matmul(p.W_i, z), p.b_i))
    f = sigmoid(add(matmul(p.W_f, z), p.b_f))
    o = sigmoid(add(matmul(p.W_o, z), p.b_o))
    c_hat = tanh(add(matmul(p.W_c, z), p.b_c))
    c = add(hadamard(i, c_hat), hadamard(f, c_prev))
    h = hadamard(o, tanh(c))
    return h, c


def unrolled_direction(seq, p, reverse=False):
    """Reference direction run: one ``lstm_step`` graph per word."""
    d = p.W_i.rows
    h = Tensor.zeros(d, 1)
    c = Tensor.zeros(d, 1)
    order = range(seq.cols - 1, -1, -1) if reverse else range(seq.cols)
    states = {}
    for t in order:
        h, c = lstm_step(select_columns(seq, [t]), h, c, p)
        states[t] = h
    return hstack([states[t] for t in range(seq.cols)])


def run_direction(seq, p, reverse=False):
    """Reference direction run, the per-direction operation that
    ``encode_pair`` steps four at a time: hidden states over a
    (input_dim x L) sequence, one column per word.

    Initial h and c are zero. With ``reverse`` the words are consumed
    last-to-first, but output column i still corresponds to word i of
    the original order.

    Each step consumes [x; h_prev] through the four gate projections:
    i, f, o = sigmoid(W_* [x; h_prev] + b_*), c_hat = tanh(W_c [x; h_prev]
    + b_c), c = i * c_hat + f * c_prev, h = o * tanh(c). The gate weights
    are stacked into one 4d x (input_dim + d) matrix, the input
    projection of every word is one matrix product, and the backward pass
    is hand-written backpropagation through time.
    """
    length = seq.cols
    if length == 0:
        raise ValueError("run_direction needs at least one word")
    d = p.W_i.rows
    n_in = seq.rows
    params = p.tensors()
    W = np.concatenate([t.data for t in params[:4]], axis=0)
    if W.shape[1] != n_in + d:
        raise ShapeError(f"gate weights {W.shape} do not fit a {n_in}-row "
                         f"input with hidden size {d}")
    b = np.concatenate([t.data for t in params[4:]], axis=0).reshape(-1)
    W_x, W_h = W[:, :n_in], W[:, n_in:]

    # Rows are steps in consumption order.
    X = np.ascontiguousarray(seq.data.T[::-1] if reverse else seq.data.T)
    A = X @ W_x.T + b
    gates = np.empty((length, 4 * d))
    cells = np.empty((length, d))
    tanh_c = np.empty((length, d))
    hidden = np.empty((length, d))
    h = c = np.zeros(d)
    for t in range(length):
        a = A[t] if t == 0 else A[t] + W_h @ h
        g = gates[t]
        g[:3 * d] = 1.0 / (1.0 + np.exp(-a[:3 * d]))
        g[3 * d:] = np.tanh(a[3 * d:])
        c = cells[t] = g[:d] * g[3 * d:] + g[d:2 * d] * c
        tc = tanh_c[t] = np.tanh(c)
        h = hidden[t] = g[2 * d:3 * d] * tc

    out = hidden[::-1].T if reverse else hidden.T

    def vjp(grad):
        dH = grad.T[::-1] if reverse else grad.T
        i, f, o, c_hat = (gates[:, k * d:(k + 1) * d] for k in range(4))
        c_prev = np.vstack([np.zeros((1, d)), cells[:-1]])
        # Local derivative of each pre-activation row with respect to dc
        # (input, forget and candidate rows) or dh (output row).
        local = np.hstack([c_hat * i * (1.0 - i), c_prev * f * (1.0 - f),
                           tanh_c * o * (1.0 - o), i * (1.0 - c_hat * c_hat)])
        through_c = o * (1.0 - tanh_c * tanh_c)
        W_hT = np.ascontiguousarray(W_h.T)
        DA = np.empty((length, 4 * d))
        dh = dH[length - 1]
        dc = np.zeros(d)
        for t in range(length - 1, -1, -1):
            dc = dh * through_c[t] + dc
            da = DA[t] = local[t] * np.concatenate((dc, dc, dh, dc))
            if t:
                dh = dH[t - 1] + W_hT @ da
                dc = dc * f[t]
        h_prev = np.vstack([np.zeros((1, d)), hidden[:-1]])
        dX = DA @ W_x
        dW = DA.T @ np.hstack([X, h_prev])
        db = DA.sum(axis=0).reshape(-1, 1)
        dX = dX[::-1].T if reverse else dX.T
        return ((np.ascontiguousarray(dX),)
                + tuple(dW[k * d:(k + 1) * d] for k in range(4))
                + tuple(db[k * d:(k + 1) * d] for k in range(4)))

    return _make(np.ascontiguousarray(out), (seq, *params), vjp)


def bi_encode(seq, p):
    """Reference bidirectional encoding: column i = [forward_i; backward_i],
    shape 2d x L, from two ``run_direction`` operations and a ``concat``."""
    fwd = run_direction(seq, p.forward, reverse=False)
    bwd = run_direction(seq, p.backward, reverse=True)
    return concat([fwd, bwd])


def zero_params(input_dim, hidden_dim, prefix="enc1.forward"):
    """The table rows under ``prefix`` (one direction, or ``enc1`` for
    both), all zero."""
    rows = parameter_table(input_dim, hidden_dim, d_m=1, k=1, n=2, v=1)
    return ParamGroup(prefix, {spec.name: Tensor.zeros(*spec.shape, requires_grad=True)
                               for spec in rows})


def random_params(input_dim, hidden_dim, seed):
    return drawn("enc1.forward", Rng(seed), d_e=input_dim, d=hidden_dim)


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
        p = drawn("enc1", Rng(30), d_e=3, d=4)
        for length in (1, 2, 7):
            seq = random_seq(3, length, seed=40 + length)
            assert bi_encode(seq, p).shape == (8, length)

    def test_zero_parameters_give_zero_matrix(self):
        p = zero_params(2, 3, "enc1")
        seq = random_seq(2, 4, seed=41)
        np.testing.assert_array_equal(bi_encode(seq, p).data, np.zeros((6, 4)))

    def test_rows_decompose_into_directions(self):
        p = drawn("enc1", Rng(33), d_e=2, d=3)
        seq = random_seq(2, 5, seed=42)
        out = bi_encode(seq, p)
        fwd = run_direction(seq, p.forward, reverse=False)
        bwd = run_direction(seq, p.backward, reverse=True)
        np.testing.assert_array_equal(out.data[:3], fwd.data)
        np.testing.assert_array_equal(out.data[3:], bwd.data)

    def test_gradient_reaches_every_parameter_and_input(self):
        p = drawn("enc1", Rng(34), d_e=3, d=2)
        seq = random_seq(3, 4, seed=43, requires_grad=True)
        sum_all(bi_encode(seq, p)).backward()
        for t in p.tensors():
            assert t.grad is not None
            assert np.any(t.grad != 0.0)
        assert seq.grad is not None
        assert np.all(np.any(seq.grad != 0.0, axis=0))

    def test_gradient_check_full_encoder(self):
        p = drawn("enc1", Rng(35), d_e=2, d=2)
        seq = random_seq(2, 3, seed=44, requires_grad=True)

        def loss():
            return sum_all(bi_encode(seq, p))

        assert grad_check(loss, p.tensors() + [seq]) < 1e-6

    def test_encoding_bounded(self):
        p = drawn("enc1", Rng(36), d_e=3, d=4)
        seq = random_seq(3, 10, seed=45)
        out = bi_encode(seq, p)
        assert np.all(np.abs(out.data) < 1.0)


class TestEncodePair:
    """The four-direction operation against two reference encoders."""

    @staticmethod
    def setup_case(lengths, seed, input_dim=5, hidden_dim=3):
        rng = Rng(seed)
        p1 = drawn("enc1", rng, d_e=input_dim, d=hidden_dim)
        p2 = drawn("enc1", rng, d_e=input_dim, d=hidden_dim)
        for t in p1.tensors() + p2.tensors():
            if t.cols == 1:
                t.data[:] = rng.uniform_matrix(hidden_dim, 1, -0.5, 0.5)
        xs = [Tensor(rng.uniform_matrix(input_dim, n, -1.0, 1.0), requires_grad=True)
              for n in lengths]
        # Distinct weights per output entry, so every column's adjoint
        # differs and a misaligned step shows.
        ws = [Tensor(rng.uniform_matrix(2 * hidden_dim, n, -1.0, 1.0)) for n in lengths]

        def loss(h1, h2):
            return add(sum_all(hadamard(h1, ws[0])), sum_all(hadamard(h2, ws[1])))

        return xs, (p1, p2), loss

    @pytest.mark.parametrize("lengths", [(1, 1), (1, 5), (5, 1), (4, 4), (13, 30), (30, 13)])
    def test_bitwise_equal_to_reference_values_and_34_gradients(self, lengths):
        (x1, x2), (p1, p2), loss = self.setup_case(lengths, seed=80 + sum(lengths))
        inputs = [x1, x2] + p1.tensors() + p2.tensors()
        assert len(inputs) == 34
        results = []
        for encode in (lambda: encode_pair(x1, x2, p1, p2),
                       lambda: (bi_encode(x1, p1), bi_encode(x2, p2))):
            for t in inputs:
                t.zero_grad()
            h1, h2 = encode()
            loss(h1, h2).backward()
            results.append(([h1.data, h2.data], [t.grad for t in inputs]))
        (fused, fused_grads), (ref, ref_grads) = results
        assert fused[0].shape == (6, lengths[0]) and fused[1].shape == (6, lengths[1])
        for got, want in zip(fused + fused_grads, ref + ref_grads):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lengths", [(1, 4), (4, 1)])
    def test_padded_steps_never_reach_the_result(self, lengths):
        # A one-word argument never uses its recurrent weights, so NaN
        # there must not leak in from the steps its directions are padded
        # through while the other argument is still being read.
        (x1, x2), (p1, p2), loss = self.setup_case(lengths, seed=95)
        short = p1 if lengths[0] == 1 else p2
        for p in (short.forward, short.backward):
            for w in (p.W_i, p.W_f, p.W_o, p.W_c):
                w.data[:, 5:] = np.nan
        inputs = [x1, x2] + p1.tensors() + p2.tensors()
        results = []
        for encode in (lambda: encode_pair(x1, x2, p1, p2),
                       lambda: (bi_encode(x1, p1), bi_encode(x2, p2))):
            for t in inputs:
                t.zero_grad()
            h1, h2 = encode()
            loss(h1, h2).backward()
            results.append([h1.data, h2.data] + [t.grad for t in inputs])
        fused, ref = results
        assert all(np.isfinite(a).all() for a in ref)
        for got, want in zip(fused, ref):
            assert got.tobytes() == want.tobytes()

    def test_gradient_check(self):
        (x1, x2), (p1, p2), loss = self.setup_case((3, 5), seed=90, input_dim=3, hidden_dim=2)
        params = [x1, x2] + p1.tensors() + p2.tensors()
        assert grad_check(lambda: loss(*encode_pair(x1, x2, p1, p2)), params) < 1e-6

    def test_outputs_are_c_contiguous(self):
        (x1, x2), (p1, p2), _ = self.setup_case((4, 7), seed=91)
        for h in encode_pair(x1, x2, p1, p2):
            assert h.data.flags.c_contiguous

    def test_one_recorded_operation_under_the_blocks(self):
        (x1, x2), (p1, p2), _ = self.setup_case((4, 7), seed=92)
        h1, h2 = encode_pair(x1, x2, p1, p2)
        (op1,), (op2,) = h1._parents, h2._parents
        assert op1 is op2
        assert op1._parents == (x1, x2, *p1.tensors(), *p2.tensors())

    @pytest.mark.parametrize("lengths", [(0, 3), (3, 0)])
    def test_empty_argument_rejected(self, lengths):
        p = zero_params(2, 3, "enc1")
        x1, x2 = (Tensor(np.zeros((2, n))) for n in lengths)
        with pytest.raises(ValueError):
            encode_pair(x1, x2, p, p)

    def test_gate_width_mismatch_rejected(self):
        p = zero_params(2, 3, "enc1")
        x = Tensor.zeros(5, 4)
        with pytest.raises(ShapeError):
            encode_pair(x, x, p, p)

    def test_hidden_size_mismatch_rejected(self):
        p1 = zero_params(2, 3, "enc1")
        p2 = zero_params(2, 4, "enc1")
        x = Tensor.zeros(2, 4)
        with pytest.raises(ShapeError):
            encode_pair(x, x, p1, p2)
