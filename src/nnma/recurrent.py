"""The bidirectional LSTM encoders of both arguments.

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

Each argument has its own encoder, the ``enc1`` or ``enc2`` group of
``model.parameter_table``: a ``forward`` and a ``backward`` direction,
each with its four gates' weights stacked by rows in one 4d x
(input_dim + d) matrix ``W`` (input, forget, output and candidate gate,
in that order) and their biases in one 4d x 1 column ``b``. Nothing is
shared between the two encoders.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import (ParamGroup, ShapeError, Tensor, _make, claim_runs, column_block,
                     recording, runs, segments, spans)


def _reading_rows(x: np.ndarray, bounds: list[tuple[int, int]], backward: bool) -> np.ndarray:
    """The words (columns of ``x``) of each instance as rows, instance by
    instance, in the order a direction reads them: last word first for
    the backward direction."""
    if backward:
        return np.concatenate([x.T[s:t][::-1] for s, t in bounds])
    return np.ascontiguousarray(x.T)


def _forward(x1: np.ndarray, x2: np.ndarray, W_x: np.ndarray, W_h: np.ndarray,
             b: np.ndarray, bounds: tuple, placed: list, steps: int, record: bool):
    """Every direction's forward pass: the 2d x (N1 + N2) output and,
    when ``record``, what the backward pass reads (each direction's input
    rows, and per step the gates, cells, tanh of cells and hidden
    states); None otherwise, so that none of them outlive the call."""
    d, batch = W_h.shape[2], len(bounds[0])
    # A[t, k, :, j]: direction k's input projection for instance j's
    # step t, zero past the instance's last word.
    A = np.zeros((steps, 4, 4 * d, batch))
    X = []
    for k in range(4):
        X_k = _reading_rows(x1 if k < 2 else x2, bounds[k // 2], k % 2 == 1)
        P = X_k @ W_x[k].T
        P += b[k]
        for j, (s, t) in enumerate(bounds[k // 2]):
            A[:t - s, k, :, j] = P[s:t]
        if record:
            X.append(X_k)
    del X_k, P  # copied into A; the loop below needs the memory more
    if record:
        gates = np.empty((steps, 4, 4 * d, batch))
        cells = np.empty((steps, 4, d, batch))
        tanh_c = np.empty((steps, 4, d, batch))
    # Once a step has read its slot of A, the slot keeps the step's
    # hidden states, so no further array of the batch's size is needed.
    hidden = A[:, :, :d, :]
    h = c = np.zeros((4, d, batch))
    for t in range(steps):
        a = A[t]
        if t:
            a += np.matmul(W_h, h)
        g = gates[t] if record else a
        g[:, :3 * d] = 1.0 / (1.0 + np.exp(-a[:, :3 * d]))
        g[:, 3 * d:] = np.tanh(a[:, 3 * d:])
        c = g[:, :d] * g[:, 3 * d:] + g[:, d:2 * d] * c
        tc = np.tanh(c)
        h = hidden[t] = g[:, 2 * d:3 * d] * tc
        if record:
            cells[t], tanh_c[t] = c, tc

    out = np.empty((2 * d, x1.shape[1] + x2.shape[1]))
    for k, j, s, t, rows, offset in placed:
        states = hidden[:t - s, k, :, j]
        out[rows, offset + s:offset + t] = (states[::-1] if k % 2 else states).T
    return out, ((X, gates, cells, tanh_c, hidden) if record else None)


def encode_pair(x1: Tensor, x2: Tensor, p1: ParamGroup, p2: ParamGroup,
                lengths1: Sequence[int] | None = None,
                lengths2: Sequence[int] | None = None) -> tuple[Tensor, Tensor]:
    """Bidirectional encodings (h1, h2) of a batch of argument pairs.

    ``x1`` and ``x2`` are (input_dim x N) matrices, one column per word.
    They hold the first and the second arguments of B instances side by
    side, in the segment layout of ``tensor.segments``: instance b owns
    ``lengths1[b]`` columns of ``x1`` and ``lengths2[b]`` of ``x2``
    (None: one instance). ``p1`` encodes the first arguments, ``p2`` the
    second. Each encoding has its input's columns and 2d rows, and its
    column i is [forward_i; backward_i]: the forward direction consumes
    an instance's words first-to-last and the backward one last-to-first,
    both from zero h and c, so no instance reads another's words.

    Each step consumes [x; h_prev] through the four gate projections,
    the row blocks of W [x; h_prev] + b: i, f, o = sigmoid of the first
    three, c_hat = tanh of the fourth, c = i * c_hat + f * c_prev,
    h = o * tanh(c).

    All 4B directions are one recorded operation. Each direction's
    input projection is one matrix product over the words of all B
    instances. The loop steps all 4B together, one stacked product of
    the (4, 4d, d) recurrent weights with the (4, d, B) hidden states
    per word, and the hand-written backpropagation through time steps
    back the same way. Directions shorter than the longest run padded
    past their end; what they compute there is discarded, and their
    backpropagation starts at their last word. When the operation is
    not recorded (``no_grad``), the per-step gate values that only the
    backward pass reads are not kept. h1 and h2 are two column blocks
    of the operation's 2d x (N1 + N2) output.

    The parameters are read where they lie: ``p1`` and ``p2`` must be
    consecutive runs of one ``FlatParams`` layout, ``p2`` right after
    ``p1``, each in the parameter table's order, as a model's encoders
    are. Each direction's ``W`` then ``b`` are then one contiguous run,
    and the four directions sit one run apart, so the stacked
    (4, 4d, d_e + d) weights and (4, 4d) biases are views of the
    layout's values. The backward pass computes each direction's weight
    gradient as one product, and its bias gradient as one row sum,
    straight into the same views of the layout's gradients when no
    encoder parameter has a gradient yet (``tensor.claim_runs``); else it
    gives them to ``Tensor.backward`` as the parameters' adjoints.
    """
    n_in, d = x1.rows, p1.forward.W.rows // 4
    if min(x1.cols, x2.cols) == 0:
        raise ValueError("encode_pair needs at least one word in each argument")
    if x2.rows != n_in:
        raise ShapeError(f"arguments have {n_in} and {x2.rows} input rows")
    sizes = (segments(x1.cols, lengths1), segments(x2.cols, lengths2))
    batch = len(sizes[0])
    if len(sizes[1]) != batch:
        raise ShapeError(f"{batch} first and {len(sizes[1])} second arguments")
    params = [t for p in (p1.forward, p1.backward, p2.forward, p2.backward) for t in (p.W, p.b)]
    if any(t.shape != ((4 * d, n_in + d) if i % 2 == 0 else (4 * d, 1))
           for i, t in enumerate(params)):
        raise ShapeError(f"gate parameters do not all fit a {n_in}-row input "
                         f"with hidden size {d}")
    span1, span2 = p1.span, p2.span
    if (span1 is None or span2 is None or span2[0] is not span1[0] or span2[1] != span1[2]
            or params != p1.tensors() + p2.tensors()):
        raise ShapeError("encode_pair reads its parameters from one FlatParams layout: "
                         "p1 then p2, each in the parameter table's order")
    layout, start, stop = span1[0], span1[1], span2[2]
    cut = 4 * d * (n_in + d)
    stacked = layout.values[start:stop].reshape(4, -1)
    W, b = stacked[:, :cut].reshape(4, 4 * d, n_in + d), stacked[:, cut:]
    W_x, W_h = W[:, :, :n_in], W[:, :, n_in:]
    # Direction k reads argument k // 2, last word first when k is odd
    # (``_reading_rows``). Instance j's words are columns s:t of its
    # argument, and it fills steps 0 to t - s - 1 of the per-step arrays,
    # which hold every direction and instance: (step, direction, row,
    # instance).
    bounds = (spans(sizes[0]), spans(sizes[1]))
    placed = [(k, j, s, t, slice((k % 2) * d, (k % 2 + 1) * d), 0 if k < 2 else x1.cols)
              for k in range(4) for j, (s, t) in enumerate(bounds[k // 2])]
    steps = max(max(n) for n in sizes)
    out, saved = _forward(x1.data, x2.data, W_x, W_h, b, bounds, placed, steps,
                          recording((x1, x2, *params)))

    # The directions whose words end at step t < steps: their
    # backpropagation restarts there, nothing from the padded steps
    # carries in.
    restarts: dict[int, list[tuple[int, int]]] = {}
    for k, j, s, t, _, _ in placed:
        if t - s < steps:
            restarts.setdefault(t - s, []).append((k, j))

    def vjp(grad: np.ndarray):
        X, gates, cells, tanh_c, hidden = saved
        dH = np.zeros((steps, 4, d, batch))
        for k, j, s, t, rows, offset in placed:
            g = grad[rows, offset + s:offset + t].T
            dH[:t - s, k, :, j] = g[::-1] if k % 2 else g
        i, f, o, c_hat = (gates[:, :, k * d:(k + 1) * d] for k in range(4))
        c_prev = np.concatenate([np.zeros((1, 4, d, batch)), cells[:-1]])
        # Local derivative of each pre-activation with respect to dc
        # (input, forget and candidate gates) or dh (output gate).
        local = np.concatenate([c_hat * i * (1.0 - i), c_prev * f * (1.0 - f),
                                tanh_c * o * (1.0 - o), i * (1.0 - c_hat * c_hat)],
                               axis=2)
        through_c = o * (1.0 - tanh_c * tanh_c)
        W_hT = np.ascontiguousarray(W_h.transpose(0, 2, 1))
        DA = np.empty((steps, 4, 4 * d, batch))
        dh = dH[steps - 1]
        dc = np.zeros((4, d, batch))
        for t in range(steps - 1, -1, -1):
            dc = dh * through_c[t] + dc
            da = DA[t] = local[t] * np.concatenate((dc, dc, dh, dc), axis=1)
            if t:
                dh = dH[t - 1] + np.matmul(W_hT, da)
                dc = dc * f[t]
                for k, j in restarts.get(t, ()):
                    dh[k, :, j] = dH[t - 1, k, :, j]
                    dc[k, :, j] = 0.0

        # Products over each direction's own rows only, each with the
        # operand shapes and layouts of a lone direction's, so that a
        # batch of one rounds as a lone direction does.
        dX = [np.empty((x1.cols, n_in)), np.empty((x2.cols, n_in))]
        claimed = claim_runs(params)
        into = (layout.grads[start:stop].reshape(4, -1) if claimed
                else np.empty(stacked.shape))
        dW, db = into[:, :cut].reshape(4, 4 * d, n_in + d), into[:, cut:]
        for k in range(4):
            sizes_k = [(j, t - s) for j, (s, t) in enumerate(bounds[k // 2])]
            DA_k = np.concatenate([DA[:n, k, :, j] for j, n in sizes_k])
            h_prev = np.concatenate([part for j, n in sizes_k
                                     for part in (np.zeros((1, d)), hidden[:n - 1, k, :, j])])
            dX_k = DA_k @ W_x[k]
            for s, t in bounds[k // 2]:
                if k % 2:
                    dX[k // 2][s:t] += dX_k[s:t][::-1]
                else:
                    dX[k // 2][s:t] = dX_k[s:t]
            np.matmul(DA_k.T, np.hstack([X[k], h_prev]), out=dW[k])
            np.sum(DA_k, axis=0, out=db[k])
        dx = (np.ascontiguousarray(dX[0].T), np.ascontiguousarray(dX[1].T))
        if claimed:
            return (*dx, *[None] * len(params))
        # Each parameter's rows of its direction's products, cut as the
        # layout cuts them.
        return (*dx, *runs(into.reshape(-1), [t.shape for t in params]))

    both = _make(out, (x1, x2, *params), vjp)
    return column_block(both, 0, x1.cols), column_block(both, x1.cols, out.shape[1])
