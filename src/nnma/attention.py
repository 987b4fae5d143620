"""Multi-level attention stack with an external memory vector.

Reading an argument pair proceeds in passes. Pass 0 treats every word
equally: each argument's representation is the column mean of its
encoder output. Each later pass k first condenses what has been read so
far into a memory vector M_k, then scores every word of each argument
against that memory, turns the scores into a probability distribution,
and re-reads the argument as the attention-weighted mixture of its word
encodings. The memory update is recurrent, so pass k sees everything
passes 1..k-1 extracted.

Level k's weights are the ``levelk`` group of ``model.parameter_table``:
the memory update ``w_m``, and per argument (``arg1``, ``arg2``) ``w_a``
(2d x 2d) on the words, ``w_b`` (2d x d_m) on the memory and the scorer
``w_s`` (1 x 2d); d is the encoder hidden size per direction, so word
encodings have 2d rows, and d_m is the memory size.

The stack reads a batch of B instances at once, in the segment layout
of ``tensor.segments``: an encoding holds every instance's words side
by side (``lengths1``/``lengths2`` give each instance's word count),
each representation and memory is a B-column matrix with one column per
instance, and each attention distribution is one column holding every
instance's distribution as a run of rows. One instance is B = 1.

All K passes are one recorded operation (``run_stack``) with a
hand-written backward pass, as ``recurrent.encode_pair`` is for the
encoders: fewer, larger operations than one per product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import ParamGroup, ShapeError, Tensor, _make, recording, segments, spans


@dataclass
class GeneralRepr:
    """Mean-pooled argument representations, each 2d x B."""

    R0_1: Tensor
    R0_2: Tensor


def memory_input_width(level: int, d: int, d_m: int) -> int:
    """Width of the concatenated memory-update input: [R1, R2, R1-R2]
    gives 6d at level 1; later levels append the previous memory."""
    if level < 1:
        raise ValueError(f"level index starts at 1, got {level}")
    return 6 * d if level == 1 else 6 * d + d_m


@dataclass
class LevelOutput:
    """Everything one pass produced: memory (d_m x B), both attention
    distributions (columns of every instance's L_1, resp. L_2, rows),
    both re-read representations (2d x B)."""

    M: Tensor
    a1: Tensor
    a2: Tensor
    R1: Tensor
    R2: Tensor


@dataclass
class AttentionTrace:
    """Full record of a forward pass through the stack, for the batch
    whose arguments have ``lengths1`` and ``lengths2`` words. ``final``
    is [R1; R2] of the last level (4d x B), the result of the recorded
    operation and the only field a backward pass reaches; the other
    fields are plain values."""

    general: GeneralRepr
    levels: list[LevelOutput]
    lengths1: list[int]
    lengths2: list[int]
    final: Tensor

    def split(self) -> list["AttentionTrace"]:
        """One trace per instance, in batch order: its column of every
        representation and memory and its rows of every distribution, as
        plain tensors outside any recorded graph."""
        out = []
        rows = zip(spans(self.lengths1), spans(self.lengths2))
        for b, ((s1, t1), (s2, t2)) in enumerate(rows):
            def col(t: Tensor) -> Tensor:
                return Tensor(t.data[:, b])

            levels = [LevelOutput(col(lv.M), Tensor(lv.a1.data[s1:t1]),
                                  Tensor(lv.a2.data[s2:t2]), col(lv.R1), col(lv.R2))
                      for lv in self.levels]
            out.append(AttentionTrace(GeneralRepr(col(self.general.R0_1),
                                                  col(self.general.R0_2)),
                                      levels, [t1 - s1], [t2 - s2], col(self.final)))
        return out


def _join(parts: list[np.ndarray], axis: int) -> np.ndarray:
    """Per-segment results side by side. A single one is used as it is:
    every part is a fresh array made here."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _value(data: np.ndarray) -> Tensor:
    """A plain tensor around an array this module made, without a copy."""
    return _make(data, (), None)


def _check_shapes(two_d: int, d_m: int, params: Sequence[ParamGroup]) -> None:
    for level, p in enumerate(params, start=1):
        width = memory_input_width(level, two_d // 2, d_m)
        if p.w_m.shape != (d_m, width):
            raise ShapeError(f"level {level} W_m is {p.w_m.shape}, expected {(d_m, width)} "
                             f"for {two_d}-row encodings")
        for q in (p.arg1, p.arg2):
            want = ((two_d, two_d), (two_d, d_m), (1, two_d))
            if (q.w_a.shape, q.w_b.shape, q.w_s.shape) != want:
                raise ShapeError(f"level {level} attention weights do not fit {two_d}-row "
                                 f"encodings and a {d_m}-row memory")


def _read(H: np.ndarray, bounds: list[tuple[int, int]], sizes: list[int],
          M: np.ndarray, q: ParamGroup):
    """One argument's pass: o = tanh(W_a H + W_b (M repeated across each
    instance's columns)), each instance's softmax of its scores W_s o,
    and its read-out H a. Returns (repeated M, o, a, R)."""
    rep = np.repeat(M, sizes, axis=1)
    o = np.tanh(q.w_a.data @ H + q.w_b.data @ rep)
    row = (q.w_s.data @ o)[0]
    parts = []
    for s, t in bounds:
        e = np.exp(row[s:t] - row[s:t].max())
        parts.append(e / e.sum())
    a = _join(parts, 0).reshape(-1, 1)
    return rep, o, a, _join([H[:, s:t] @ a[s:t] for s, t in bounds], 1)


def run_stack(h1: Tensor, h2: Tensor, params: list[ParamGroup],
              lengths1: Sequence[int] | None = None,
              lengths2: Sequence[int] | None = None) -> AttentionTrace:
    """All K attention passes over a batch of encoded argument pairs.

    ``h1`` and ``h2`` hold every instance's word encodings side by side,
    ``lengths1[b]`` and ``lengths2[b]`` columns for instance b (None: one
    instance). Pass 0 is each instance's column mean, computed as the
    product with (1/L, ..., 1/L), so that a uniform distribution (all
    W_s zero) re-reads it bit for bit. Level 1 builds its memory from
    the pass-0 means, M_1 = tanh(W_m [R0_1; R0_2; R0_1 - R0_2]); each
    later level from the previous level's representations and memory,
    M_k = tanh(W_m [R1; R2; R1 - R2; M_{k-1}]). No bias terms. Every
    instance reads only its own segment, so its distributions and
    representations are those it would get alone, up to the rounding of
    the products the batch shares (W_a h, W_b M).

    All K levels are one recorded operation whose result is ``final``;
    its backward pass takes the products in the order and operand layout
    the per-product graph did and sums each shared adjoint (every h, M
    and R) in the order that graph's reverse sweep reached its
    consumers, so gradients are the same bits. Under ``no_grad`` nothing
    is kept for a backward pass.
    """
    if len(params) == 0:
        raise ValueError("attention stack needs at least one level")
    sizes = (segments(h1.cols, lengths1), segments(h2.cols, lengths2))
    if len(sizes[0]) != len(sizes[1]):
        raise ValueError(f"{len(sizes[0])} first and {len(sizes[1])} second arguments")
    n, d_m = h1.rows, params[0].w_m.rows
    if h2.rows != n:
        raise ShapeError(f"encodings have {n} and {h2.rows} rows")
    _check_shapes(n, d_m, params)
    tensors = [t for p in params for t in p.tensors()]
    record = recording((h1, h2, *tensors))
    H = (h1.data, h2.data)
    bounds = (spans(sizes[0]), spans(sizes[1]))

    R = [_join([X[:, s:t] @ np.full((t - s, 1), 1.0 / (t - s)) for s, t in b], 1)
         for X, b in zip(H, bounds)]
    general = GeneralRepr(_value(R[0]), _value(R[1]))
    levels: list[LevelOutput] = []
    saved = []  # per level: memory input, memory, each side's (rep, o, a)
    M = None
    for p in params:
        S = np.concatenate([R[0], R[1], R[0] - R[1]] + ([] if M is None else [M]))
        M = np.tanh(p.w_m.data @ S)
        reads = [_read(X, b, z, M, q) for X, b, z, q in zip(H, bounds, sizes, (p.arg1, p.arg2))]
        (_, _, a1, r1), (_, _, a2, r2) = reads
        levels.append(LevelOutput(_value(M), _value(a1), _value(a2), _value(r1), _value(r2)))
        if record:
            saved.append((S, M, [read[:3] for read in reads]))
        R = [r1, r2]

    # The per-product graph's reverse sweep went from level K down: each
    # level's arg1 read-out and products, then arg2's, then its memory
    # update. Each shared adjoint is summed in that order, from its first
    # contribution: h gets the read-out's, then W_a h's, level by level
    # from the top, and the pass-0 mean's last; M_k gets level k+1's memory
    # input's, then each side's repeat's; R gets the next memory input's
    # (the classifier's at the top), then the difference R1 - R2's.
    def vjp(g: np.ndarray):
        dR = [g[:n], g[n:]]
        dM = None
        dH = [None, None]
        grads = [None] * len(params)
        for k in range(len(params) - 1, -1, -1):
            S, M, reads = saved[k]
            p = params[k]
            repeats, weights = [], []
            for side, q in enumerate((p.arg1, p.arg2)):
                X, b = H[side], bounds[side]
                rep, o, a = reads[side]
                cols = [dR[side][:, j:j + 1] for j in range(len(b))]
                d_read = _join([gj @ a[s:t].T for gj, (s, t) in zip(cols, b)], 1)
                da = _join([X[:, s:t].T @ gj for gj, (s, t) in zip(cols, b)], 0)
                dscore = _join([a[s:t] * (da[s:t] - np.vdot(da[s:t], a[s:t]))
                                for s, t in b], 0).reshape(1, -1)
                dpre = (q.w_s.data.T @ dscore) * (1.0 - o * o)
                drep = q.w_b.data.T @ dpre
                repeats.append(_join([drep[:, s:t].sum(axis=1, keepdims=True)
                                      for s, t in b], 1))
                d_read = d_read if dH[side] is None else dH[side] + d_read
                dH[side] = d_read + q.w_a.data.T @ dpre
                weights += [dpre @ X.T, dpre @ rep.T, dscore @ o.T]
            dM = repeats[0] + repeats[1] if dM is None else dM + repeats[0] + repeats[1]
            dZ = dM * (1.0 - M * M)
            grads[k] = [dZ @ S.T] + weights
            dS = p.w_m.data.T @ dZ
            dD = dS[2 * n:3 * n]
            dR = [dS[:n] + dD, dS[n:2 * n] - dD]
            dM = dS[3 * n:]
        for side in (0, 1):
            dH[side] = dH[side] + _join([np.repeat(dR[side][:, j:j + 1] * (1.0 / (t - s)),
                                                   t - s, axis=1)
                                         for j, (s, t) in enumerate(bounds[side])], 1)
        return (dH[0], dH[1], *(w for level in grads for w in level))

    final = _make(np.concatenate(R), (h1, h2, *tensors), vjp)
    return AttentionTrace(general, levels, sizes[0], sizes[1], final)
