"""LSTM cell and bidirectional sequence encoder.

A direction run threads (h, c) along the sequence from zero initial
states, one step per word, as a single autodiff operation with
hand-written backpropagation through time (gate fusion and a hoisted
input projection, after Appleyard, Kocisky & Blunsom, "Optimizing
Performance of Recurrent Neural Networks on GPUs", arXiv:1604.01946).
The bidirectional encoder stacks the forward and (re-aligned) backward
runs into a 2d x L matrix, one column per word.

Each argument of a pair gets its own BiLstmParams; nothing here is
shared between the two encoders.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .rng import Rng
from .tensor import ShapeError, Tensor, _make, concat


def xavier_uniform(rows: int, cols: int, rng: Rng) -> Tensor:
    """Weight matrix drawn uniform(-r, r), r = sqrt(6 / (fan_in + fan_out))
    with fan_in = cols and fan_out = rows."""
    r = math.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform_matrix(rows, cols, -r, r), requires_grad=True)


@dataclass
class LstmParams:
    """Gate projections for one direction.

    Each W_* maps the concatenated [input; previous hidden] vector of
    length input_dim + hidden_dim to the hidden dimension.
    """

    W_i: Tensor
    W_f: Tensor
    W_o: Tensor
    W_c: Tensor
    b_i: Tensor
    b_f: Tensor
    b_o: Tensor
    b_c: Tensor

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: Rng) -> "LstmParams":
        """Xavier-uniform weights drawn in field order; zero biases."""
        width = input_dim + hidden_dim
        weights = [xavier_uniform(hidden_dim, width, rng) for _ in range(4)]
        biases = [Tensor.zeros(hidden_dim, 1, requires_grad=True) for _ in range(4)]
        return cls(*weights, *biases)

    @property
    def hidden_dim(self) -> int:
        return self.W_i.rows

    def tensors(self) -> list[Tensor]:
        """Parameters in serialization order."""
        return [self.W_i, self.W_f, self.W_o, self.W_c,
                self.b_i, self.b_f, self.b_o, self.b_c]


@dataclass
class BiLstmParams:
    forward: LstmParams
    backward: LstmParams

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: Rng) -> "BiLstmParams":
        fwd = LstmParams.create(input_dim, hidden_dim, rng)
        bwd = LstmParams.create(input_dim, hidden_dim, rng)
        return cls(fwd, bwd)

    @property
    def hidden_dim(self) -> int:
        return self.forward.hidden_dim

    def tensors(self) -> list[Tensor]:
        return self.forward.tensors() + self.backward.tensors()


def run_direction(seq: Tensor, p: LstmParams, reverse: bool = False) -> Tensor:
    """Hidden states over a (input_dim x L) sequence, one column per word.

    Initial h and c are zero. With ``reverse`` the words are consumed
    last-to-first, but output column i still corresponds to word i of
    the original order.

    Each step consumes [x; h_prev] through the four gate projections:
    i, f, o = sigmoid(W_* [x; h_prev] + b_*), c_hat = tanh(W_c [x; h_prev]
    + b_c), c = i * c_hat + f * c_prev, h = o * tanh(c). The whole run is
    one recorded operation: the gate weights are stacked into one
    4d x (input_dim + d) matrix, the input projection of every word is
    one matrix product, and the backward pass is hand-written
    backpropagation through time.
    """
    length = seq.cols
    if length == 0:
        raise ValueError("run_direction needs at least one word")
    d = p.hidden_dim
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

    def vjp(grad: np.ndarray):
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


def bi_encode(seq: Tensor, p: BiLstmParams) -> Tensor:
    """Bidirectional encoding: column i = [forward_i; backward_i], shape 2d x L."""
    fwd = run_direction(seq, p.forward, reverse=False)
    bwd = run_direction(seq, p.backward, reverse=True)
    return concat([fwd, bwd])
