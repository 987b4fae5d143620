"""The per-product reference graph that the fused operations replaced.

Training once recorded one autodiff node per product: the primitives
below, the attention stack built from them (``run_stack``) and the
classifier head (``classify``, ``forward_batch``). The model now runs
the stack and the head as one operation each, with hand-written
backward passes (``nnma.attention.run_stack``, ``nnma.model.classify``);
this module keeps the old graph as the oracle those operations must
match bit for bit, in every value and every gradient.

Its segment primitives (``mean_cols``, ``segment_matvec``,
``segment_softmax``) compute the whole batch at once as the stack does:
one product with a block-diagonal matrix, one softmax over rows padded
with -inf. The ``*_looped`` forms compute each segment on its own, as an
instance alone does; at one segment both are the same bits, and at more
they agree up to the grouping of sums (``attend_looped``).

It also keeps the column lookup with a dense backward
(``select_columns``) and the momentum step as three whole-array passes
(``MomentumSgd``): together the oracle for a lookup gradient kept as a
compact block and ``nnma.trainer.MomentumSgd``'s one cache-blocked sweep.
The recorded column ``softmax`` and ``scale`` by a constant, which the
model once recorded for its class distributions and weighted loss, are
kept for the tests built on them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from nnma.attention import AttentionTrace, GeneralRepr, LevelOutput
from nnma.embeddings import embed_sequence
from nnma.model import Prediction
from nnma.recurrent import encode_pair
from nnma.tensor import ParamGroup, ShapeError, Tensor, _make, segments, spans


# -- primitive operations -----------------------------------------------------


def _require_same_shape(x: Tensor, y: Tensor, op: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{op} shape mismatch: {x.shape} vs {y.shape}")


def add(x: Tensor, y: Tensor) -> Tensor:
    _require_same_shape(x, y, "add")

    def vjp(g: np.ndarray):
        return g, g

    return _make(x.data + y.data, (x, y), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g: np.ndarray):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), vjp)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Stack parts vertically; column vectors concatenate into one."""
    if len(parts) == 0:
        raise ShapeError("concat of an empty list")
    cols = parts[0].cols
    for p in parts[1:]:
        if p.cols != cols:
            raise ShapeError(f"concat column mismatch: {p.cols} vs {cols}")
    out = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.rows for p in parts])

    def vjp(g: np.ndarray):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(out, tuple(parts), vjp)


def hstack(parts: Sequence[Tensor]) -> Tensor:
    """Stack parts horizontally (used to assemble per-word columns)."""
    if len(parts) == 0:
        raise ShapeError("hstack of an empty list")
    rows = parts[0].rows
    for p in parts[1:]:
        if p.rows != rows:
            raise ShapeError(f"hstack row mismatch: {p.rows} vs {rows}")
    out = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.cols for p in parts])

    def vjp(g: np.ndarray):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(out, tuple(parts), vjp)


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))

    def vjp(g: np.ndarray):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def vjp(g: np.ndarray):
        return (g * (1.0 - out * out),)

    return _make(out, (x,), vjp)


def sub(x: Tensor, y: Tensor) -> Tensor:
    _require_same_shape(x, y, "sub")

    def vjp(g: np.ndarray):
        return g, -g

    return _make(x.data - y.data, (x, y), vjp)


def hadamard(x: Tensor, y: Tensor) -> Tensor:
    _require_same_shape(x, y, "hadamard")

    def vjp(g: np.ndarray):
        return g * y.data, g * x.data

    return _make(x.data * y.data, (x, y), vjp)


def _join(parts: list[np.ndarray], axis: int) -> np.ndarray:
    """Per-segment results side by side. A single one is used as it is:
    every part is a fresh array its operation made."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _owner(sizes: Sequence[int]) -> np.ndarray:
    """The N x B indicator of which segment each of N positions is in."""
    out = np.zeros((sum(sizes), len(sizes)))
    for j, (s, t) in enumerate(spans(sizes)):
        out[s:t, j] = 1.0
    return out


def _mean_node(m: Tensor, sizes: list[int], out: np.ndarray) -> Tensor:
    """``out``, the means of ``m``'s segments, with their backward pass."""
    bounds = spans(sizes)

    def vjp(g: np.ndarray):
        return (_join([np.repeat(g[:, j:j + 1] * (1.0 / (t - s)), t - s, axis=1)
                       for j, (s, t) in enumerate(bounds)], 1),)

    return _make(out, (m,), vjp)


def mean_cols(m: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """Arithmetic mean of each segment's columns, one column per segment.

    Computed as the one product of ``m`` with the block-diagonal matrix
    holding (1/L, ..., 1/L) in each segment's rows of its column, the
    product ``segment_matvec`` forms, so that a uniform attention
    read-out over the same segments reproduces it bitwise.
    """
    if m.cols == 0:
        raise ShapeError("mean_cols over zero columns")
    sizes = segments(m.cols, lengths)
    return _mean_node(m, sizes, m.data @ (_owner(sizes) / np.array(sizes)))


def mean_cols_looped(m: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """``mean_cols`` with each segment's mean its own product,
    ``m_s @ (1/L, ..., 1/L)^T``, as an instance alone computes it."""
    sizes = segments(m.cols, lengths)
    return _mean_node(m, sizes, _join([m.data[:, s:t] @ np.full((t - s, 1), 1.0 / (t - s))
                                       for s, t in spans(sizes)], 1))


def _matvec_node(m: Tensor, w: Tensor, sizes: list[int], out: np.ndarray) -> Tensor:
    """``out``, each segment's columns of ``m`` times its rows of ``w``,
    with their backward pass."""
    bounds = spans(sizes)

    def vjp(g: np.ndarray):
        cols = [g[:, j:j + 1] for j in range(len(bounds))]
        dm = _join([gj @ w.data[s:t].T for gj, (s, t) in zip(cols, bounds)], 1)
        dw = _join([m.data[:, s:t].T @ gj for gj, (s, t) in zip(cols, bounds)], 0)
        return dm, dw

    return _make(out, (m, w), vjp)


def segment_matvec(m: Tensor, w: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """For each segment, its columns of ``m`` times its rows of the column
    ``w``, one output column per segment: with attention weights in
    ``w``, every instance's read-out ``h a``. All segments are one
    product, ``m`` times the block-diagonal matrix whose column j holds
    segment j's rows of ``w`` and zeros elsewhere."""
    if w.cols != 1 or w.rows != m.cols:
        raise ShapeError(f"segment_matvec needs a {m.cols} x 1 weight column, got {w.shape}")
    sizes = segments(m.cols, lengths)
    return _matvec_node(m, w, sizes, m.data @ (_owner(sizes) * w.data))


def segment_matvec_looped(m: Tensor, w: Tensor,
                          lengths: Sequence[int] | None = None) -> Tensor:
    """``segment_matvec`` with each segment its own matrix-vector
    product, as it would be for that instance alone."""
    sizes = segments(m.cols, lengths)
    return _matvec_node(m, w, sizes, _join([m.data[:, s:t] @ w.data[s:t]
                                            for s, t in spans(sizes)], 1))


def softmax(x: Tensor) -> Tensor:
    """Softmax of each column, stabilized by subtracting the column's
    maximum: one distribution per column, as the classifier gives one
    per instance of a batch."""
    shifted = x.data - x.data.max(axis=0)
    e = np.exp(shifted)
    out = e / e.sum(axis=0)

    def vjp(g: np.ndarray):
        return (out * (g - (g * out).sum(axis=0)),)

    return _make(out, (x,), vjp)


def _softmax_node(scores: Tensor, sizes: list[int], parts: list[np.ndarray]) -> Tensor:
    """The segments' distributions ``parts`` as one column, with their
    backward pass."""
    bounds = spans(sizes)
    out = _join(parts, 0).reshape(-1, 1)

    def vjp(g: np.ndarray):
        return (_join([out[s:t] * (g[s:t] - np.vdot(g[s:t], out[s:t])) for s, t in bounds],
                      0).reshape(1, -1),)

    return _make(out, (scores,), vjp)


def segment_softmax(scores: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """Softmax within each segment of a 1 x N score row, returned as an
    N x 1 column: every instance's scores become its own distribution.
    The segments are the rows of one matrix, each padded with -inf to
    the longest; a row is stabilized by its own maximum and normalized
    by its own sum, so no other instance's positions enter it."""
    if scores.rows != 1:
        raise ShapeError(f"segment_softmax expects a score row, got {scores.shape}")
    sizes = segments(scores.cols, lengths)
    bounds = spans(sizes)
    padded = np.full((len(sizes), max(sizes)), -np.inf)
    for j, (s, t) in enumerate(bounds):
        padded[j, :t - s] = scores.data[0, s:t]
    e = np.exp(padded - padded.max(axis=1, keepdims=True))
    dist = e / e.sum(axis=1, keepdims=True)
    return _softmax_node(scores, sizes, [dist[j, :t - s] for j, (s, t) in enumerate(bounds)])


def segment_softmax_looped(scores: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """``segment_softmax`` with each segment its own 1-d softmax, as an
    instance alone computes it."""
    sizes = segments(scores.cols, lengths)
    row = scores.data[0]
    parts = []
    for s, t in spans(sizes):
        e = np.exp(row[s:t] - row[s:t].max())
        parts.append(e / e.sum())
    return _softmax_node(scores, sizes, parts)


def broadcast_repeat(v: Tensor, counts: int | Sequence[int]) -> Tensor:
    """Column j of ``v`` repeated ``counts[j]`` times, side by side (an
    int count repeats a single column): each instance's vector across
    its segment. Backward sums the incoming gradient over each column's
    repeats."""
    if isinstance(counts, int):
        if v.cols != 1:
            raise ShapeError(f"broadcast_repeat expects a column vector, got {v.shape}")
        counts = [counts]
    if len(counts) != v.cols or min(counts) < 1:
        raise ShapeError(f"broadcast_repeat needs one count >= 1 per column of "
                         f"{v.shape}, got {list(counts)}")
    out = np.repeat(v.data, counts, axis=1)
    bounds = spans(counts)

    def vjp(g: np.ndarray):
        return (_join([g[:, s:t].sum(axis=1, keepdims=True) for s, t in bounds], 1),)

    return _make(out, (v,), vjp)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """``x`` with the column ``b`` added to each of its columns, a bias
    shared by every instance of a batch; backward sums ``b``'s gradient
    over the columns."""
    if b.shape != (x.rows, 1):
        raise ShapeError(f"add_bias needs a {x.rows} x 1 bias, got {b.shape}")

    def vjp(g: np.ndarray):
        return g, g.sum(axis=1, keepdims=True)

    return _make(x.data + b.data, (x, b), vjp)


def select_columns(m: Tensor, indices: Sequence[int]) -> Tensor:
    """The lookup with the dense backward it had before ``ColumnGrad``:
    a zero matrix of the source's shape, scatter-added per lookup."""
    idx = list(indices)

    def vjp(g: np.ndarray):
        grad = np.zeros_like(m.data)
        np.add.at(grad, (slice(None), idx), g)
        return (grad,)

    return _make(m.data[:, idx], (m,), vjp)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a plain float constant."""
    factor = float(factor)

    def vjp(g: np.ndarray):
        return (g * factor,)

    return _make(x.data * factor, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every entry, as a 1x1 scalar."""
    out = np.array([[x.data.sum()]])

    def vjp(g: np.ndarray):
        return (np.full(x.shape, g[0, 0]),)

    return _make(out, (x,), vjp)


# -- the attention stack, one node per product --------------------------------


def general_repr(h1: Tensor, h2: Tensor, lengths1: Sequence[int] | None = None,
                 lengths2: Sequence[int] | None = None, mean=mean_cols) -> GeneralRepr:
    """Pass-0 representations: each instance's column mean of its
    encoder output, by ``mean`` (``mean_cols`` or ``mean_cols_looped``)."""
    return GeneralRepr(mean(h1, lengths1), mean(h2, lengths2))


def memory_first(g: GeneralRepr, p: ParamGroup) -> Tensor:
    """M_1 = tanh(W_m [R0_1; R0_2; R0_1 - R0_2]); no bias term."""
    stacked = concat([g.R0_1, g.R0_2, sub(g.R0_1, g.R0_2)])
    return tanh(matmul(p.w_m, stacked))


def memory_next(r1_prev: Tensor, r2_prev: Tensor, m_prev: Tensor,
                p: ParamGroup) -> Tensor:
    """M_k = tanh(W_m [R1; R2; R1 - R2; M_prev]) for levels k >= 2."""
    stacked = concat([r1_prev, r2_prev, sub(r1_prev, r2_prev), m_prev])
    return tanh(matmul(p.w_m, stacked))


def attend(h: Tensor, M: Tensor, p: ParamGroup,
           lengths: Sequence[int] | None = None) -> tuple[Tensor, Tensor]:
    """Memory-conditioned attention over one argument: o = tanh(W_a h +
    (W_b M repeated across each instance's L columns)); a = softmax of
    each instance's scores W_s o, as one column; R = h a per instance.
    Returns (a, R)."""
    sizes = segments(h.cols, lengths)
    o = tanh(add(matmul(p.w_a, h), broadcast_repeat(matmul(p.w_b, M), sizes)))
    a = segment_softmax(matmul(p.w_s, o), sizes)
    return a, segment_matvec(h, a, sizes)


def attend_repeated(h: Tensor, M: Tensor, p: ParamGroup,
                    lengths: Sequence[int] | None = None) -> tuple[Tensor, Tensor]:
    """``attend`` with W_b applied to M repeated across each instance's
    columns, W_b (M outer ones): the same function, one product per word.
    Kept as the reference the per-instance product must stay close to."""
    sizes = segments(h.cols, lengths)
    o = tanh(add(matmul(p.w_a, h), matmul(p.w_b, broadcast_repeat(M, sizes))))
    a = segment_softmax(matmul(p.w_s, o), sizes)
    return a, segment_matvec(h, a, sizes)


def attend_looped(h: Tensor, M: Tensor, p: ParamGroup,
                  lengths: Sequence[int] | None = None) -> tuple[Tensor, Tensor]:
    """``attend`` with every instance's softmax and read-out its own
    operations (``segment_softmax_looped``, ``segment_matvec_looped``),
    as each instance alone computes them. Kept as the reference the
    whole-batch forms must stay close to."""
    sizes = segments(h.cols, lengths)
    o = tanh(add(matmul(p.w_a, h), broadcast_repeat(matmul(p.w_b, M), sizes)))
    a = segment_softmax_looped(matmul(p.w_s, o), sizes)
    return a, segment_matvec_looped(h, a, sizes)


def run_stack(h1: Tensor, h2: Tensor, params: list[ParamGroup],
              lengths1: Sequence[int] | None = None,
              lengths2: Sequence[int] | None = None, read=attend,
              mean=mean_cols) -> AttentionTrace:
    """All K passes, one recorded node per product, each argument's pass
    by ``read`` (``attend``, ``attend_repeated`` or ``attend_looped``)
    and its pass-0 mean by ``mean`` (``mean_cols`` or
    ``mean_cols_looped``). ``final`` is a ``concat`` of the last level's
    R1 and R2 that the reference head does not read."""
    if len(params) == 0:
        raise ValueError("attention stack needs at least one level")
    lengths1, lengths2 = segments(h1.cols, lengths1), segments(h2.cols, lengths2)
    g = general_repr(h1, h2, lengths1, lengths2, mean)
    levels: list[LevelOutput] = []
    for k, p in enumerate(params, start=1):
        if k == 1:
            M = memory_first(g, p)
        else:
            prev = levels[-1]
            M = memory_next(prev.R1, prev.R2, prev.M, p)
        a1, r1 = read(h1, M, p.arg1, lengths1)
        a2, r2 = read(h2, M, p.arg2, lengths2)
        levels.append(LevelOutput(M, a1, a2, r1, r2))
    top = levels[-1]
    return AttentionTrace(g, levels, lengths1, lengths2, concat([top.R1, top.R2]))


# -- the classifier head and the model's forward pass -----------------------------


def classify(trace: AttentionTrace, w_p: Tensor, b_p: Tensor,
             dropout_mask: Tensor | None = None) -> Tensor:
    """Logits of [R1; R2; R1 - R2] of the last level, masked."""
    r1, r2 = trace.levels[-1].R1, trace.levels[-1].R2
    feature = concat([r1, r2, sub(r1, r2)])
    if dropout_mask is not None:
        feature = hadamard(feature, dropout_mask)
    return add_bias(matmul(w_p, feature), b_p)


def forward_batch(model, instances, dropout_mask: Tensor | None = None) -> Prediction:
    """``NnmaModel.forward_batch`` through the per-product stack and head."""
    lengths1 = [len(inst.arg1) for inst in instances]
    lengths2 = [len(inst.arg2) for inst in instances]
    x1 = embed_sequence([tok for inst in instances for tok in inst.arg1],
                        model.vocab, model.embeddings)
    x2 = embed_sequence([tok for inst in instances for tok in inst.arg2],
                        model.vocab, model.embeddings)
    h1, h2 = encode_pair(x1, x2, model.enc1, model.enc2, lengths1, lengths2)
    trace = run_stack(h1, h2, model.levels, lengths1=lengths1, lengths2=lengths2)
    logits = classify(trace, model.w_p, model.b_p, dropout_mask)
    probabilities = softmax(logits)
    return Prediction(probabilities, np.argmax(probabilities.data, axis=0).tolist(),
                      trace, logits)


# -- the optimizer step, three whole-array passes ----------------------------------


class MomentumSgd:
    """v <- momentum * v - rate * grad; theta <- theta + v, as three passes
    over each whole parameter: ``v *= momentum``, ``v -= rate * grad``
    over the dense gradient, ``theta += v``."""

    def __init__(self, params: list[Tensor], rate: float, momentum: float):
        self.params = params
        self.rate = rate
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        for p, v in zip(self.params, self.velocities):
            v *= self.momentum
            if p.grad is not None:
                v -= self.rate * p.grad
            p.data += v
