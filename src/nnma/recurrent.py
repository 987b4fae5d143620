"""LSTM parameters and the bidirectional encoders of both arguments.

Each argument is read by its own bidirectional LSTM: a forward and a
backward direction, each threading (h, c) along the words from zero
initial states, whose states stack into a 2d x L matrix, one column per
word. The four directions of a pair are independent, so ``encode_pair``
runs them as a single autodiff operation: one input-projection product
per direction, then one loop over the words that steps all four
together with a stacked recurrent product, and a hand-written
backpropagation through time stepped the same way (after Appleyard,
Kocisky & Blunsom, "Optimizing Performance of Recurrent Neural Networks
on GPUs", arXiv:1604.01946: fewer, larger products, independent
recurrences in one pass).

Each argument has its own BiLstmParams; nothing here is shared between
the two encoders.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .rng import Rng
from .tensor import ShapeError, Tensor, _make, column_block


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


def encode_pair(x1: Tensor, x2: Tensor, p1: BiLstmParams,
                p2: BiLstmParams) -> tuple[Tensor, Tensor]:
    """Bidirectional encodings (h1, h2) of two argument sequences.

    ``x1`` and ``x2`` are (input_dim x L) matrices, one column per word;
    ``p1`` encodes the first, ``p2`` the second. Each encoding is 2d x L
    and its column i is [forward_i; backward_i]: the forward direction
    consumes the words first-to-last and the backward one last-to-first,
    both from zero h and c.

    Each step consumes [x; h_prev] through the four gate projections:
    i, f, o = sigmoid(W_* [x; h_prev] + b_*), c_hat = tanh(W_c [x; h_prev]
    + b_c), c = i * c_hat + f * c_prev, h = o * tanh(c).

    All four directions are one recorded operation. Each direction's
    input projection is one matrix product over its words. The loop
    steps all four together, one stacked product of the (4, 4d, d)
    recurrent weights per word, and the hand-written backpropagation
    through time steps back the same way. The shorter argument's two
    directions run padded past their end; what they compute there is
    discarded. h1 and h2 are two column blocks of the operation's
    2d x (L1 + L2) output.
    """
    n_in, d = x1.rows, p1.hidden_dim
    lengths = (x1.cols, x1.cols, x2.cols, x2.cols)
    if min(lengths) == 0:
        raise ValueError("encode_pair needs at least one word in each argument")
    if x2.rows != n_in:
        raise ShapeError(f"arguments have {n_in} and {x2.rows} input rows")
    directions = (p1.forward, p1.backward, p2.forward, p2.backward)
    params = [t for p in directions for t in p.tensors()]
    weights = [t.data for p in directions for t in (p.W_i, p.W_f, p.W_o, p.W_c)]
    biases = [t.data for p in directions for t in (p.b_i, p.b_f, p.b_o, p.b_c)]
    if (any(w.shape != (d, n_in + d) for w in weights)
            or any(v.shape != (d, 1) for v in biases)):
        raise ShapeError(f"gate parameters do not all fit a {n_in}-row input "
                         f"with hidden size {d}")
    W = np.concatenate(weights).reshape(4, 4 * d, n_in + d)
    b = np.concatenate(biases).reshape(4, 4 * d)
    W_x, W_h = W[:, :, :n_in], W[:, :, n_in:]

    # Rows are steps in each direction's consumption order, padded to the
    # longer argument; the second axis is the direction.
    steps = max(lengths)
    X = [np.ascontiguousarray(x.data.T[::-1] if k % 2 else x.data.T)
         for k, x in enumerate((x1, x1, x2, x2))]
    A = np.zeros((steps, 4, 4 * d))
    for k in range(4):
        A[:lengths[k], k] = X[k] @ W_x[k].T + b[k]
    gates = np.empty((steps, 4, 4 * d))
    cells = np.empty((steps, 4, d))
    tanh_c = np.empty((steps, 4, d))
    hidden = np.empty((steps, 4, d))
    h = c = np.zeros((4, d))
    for t in range(steps):
        a = A[t] if t == 0 else A[t] + np.matmul(W_h, h[:, :, None])[:, :, 0]
        g = gates[t]
        g[:, :3 * d] = 1.0 / (1.0 + np.exp(-a[:, :3 * d]))
        g[:, 3 * d:] = np.tanh(a[:, 3 * d:])
        c = cells[t] = g[:, :d] * g[:, 3 * d:] + g[:, d:2 * d] * c
        tc = tanh_c[t] = np.tanh(c)
        h = hidden[t] = g[:, 2 * d:3 * d] * tc

    L1 = lengths[0]
    # (rows, columns) of the output that each direction fills.
    blocks = [(slice(0, d), slice(0, L1)), (slice(d, 2 * d), slice(0, L1)),
              (slice(0, d), slice(L1, None)), (slice(d, 2 * d), slice(L1, None))]
    out = np.empty((2 * d, L1 + lengths[2]))
    for k, (rows, cols) in enumerate(blocks):
        states = hidden[:lengths[k], k]
        out[rows, cols] = (states[::-1] if k % 2 else states).T

    def vjp(grad: np.ndarray):
        dH = np.zeros((steps, 4, d))
        for k, (rows, cols) in enumerate(blocks):
            g = grad[rows, cols].T
            dH[:lengths[k], k] = g[::-1] if k % 2 else g
        i, f, o, c_hat = (gates[:, :, k * d:(k + 1) * d] for k in range(4))
        c_prev = np.concatenate([np.zeros((1, 4, d)), cells[:-1]])
        # Local derivative of each pre-activation with respect to dc
        # (input, forget and candidate gates) or dh (output gate).
        local = np.concatenate([c_hat * i * (1.0 - i), c_prev * f * (1.0 - f),
                                tanh_c * o * (1.0 - o), i * (1.0 - c_hat * c_hat)],
                               axis=2)
        through_c = o * (1.0 - tanh_c * tanh_c)
        W_hT = np.ascontiguousarray(W_h.transpose(0, 2, 1))
        DA = np.empty((steps, 4, 4 * d))
        short = min(lengths)
        pair = slice(0, 2) if lengths[0] == short else slice(2, 4)
        dh = dH[steps - 1]
        dc = np.zeros((4, d))
        for t in range(steps - 1, -1, -1):
            dc = dh * through_c[t] + dc
            da = DA[t] = local[t] * np.concatenate((dc, dc, dh, dc), axis=1)
            if t:
                dh = dH[t - 1] + np.matmul(W_hT, da[:, :, None])[:, :, 0]
                dc = dc * f[t]
                if t == short:
                    # The shorter argument's directions start at their
                    # last word: nothing from the padded steps carries in.
                    dh[pair] = dH[t - 1, pair]
                    dc[pair] = 0.0

        # Products over each direction's own steps only, each with the
        # operand shapes and layouts of a lone direction's, so that they
        # round as a lone direction's do.
        dX, grads = [], []
        for k in range(4):
            n = lengths[k]
            DA_k = np.ascontiguousarray(DA[:n, k])
            h_prev = np.vstack([np.zeros((1, d)), hidden[:n - 1, k]])
            dX.append(DA_k @ W_x[k])
            dW = DA_k.T @ np.hstack([X[k], h_prev])
            db = DA_k.sum(axis=0).reshape(-1, 1)
            grads += [dW[g * d:(g + 1) * d] for g in range(4)]
            grads += [db[g * d:(g + 1) * d] for g in range(4)]
        return (np.ascontiguousarray(dX[0].T + dX[1][::-1].T),
                np.ascontiguousarray(dX[2].T + dX[3][::-1].T), *grads)

    both = _make(out, (x1, x2, *params), vjp)
    return column_block(both, 0, L1), column_block(both, L1, out.shape[1])
