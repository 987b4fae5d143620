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
encodings have 2d rows, and d_m is the memory size. A pass scores words
by o = tanh(W_a h + W_b (M ⊗ e_L)). Since W_b (M ⊗ e_L) = (W_b M) ⊗ e_L,
W_b M is computed once per instance (2d x B) and repeated across that
instance's words, not multiplied once per word.

The stack reads a batch of B instances at once, in the segment layout
of ``tensor.segments``: an encoding holds every instance's words side
by side (``lengths1``/``lengths2`` give each instance's word count),
each representation and memory is a B-column matrix with one column per
instance, and each attention distribution is one column holding every
instance's distribution as a run of rows. One instance is B = 1. The
forward pass has no loop over instances: every read's softmax is one
over a (B, L_max) score matrix padded with -inf, and its read-outs, like
the pass-0 means, are one product with an N x B block-diagonal matrix
(N the batch's word count). The backward pass still loops over the
instances of each read; training runs it at B = 1.

All K passes are one recorded operation (``run_stack``) with a
hand-written backward pass, as ``recurrent.encode_pair`` is for the
encoders: fewer, larger operations than one per product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (ParamGroup, ShapeError, Tensor, _make, claim_runs, recording, segments,
                     spans)


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
    fields are plain values. Instance b owns column b of every
    representation and memory and the b-th run of ``tensor.spans`` rows
    of each distribution; a one-instance pass (B = 1) is what a heatmap
    draws."""

    general: GeneralRepr
    levels: list[LevelOutput]
    lengths1: list[int]
    lengths2: list[int]
    final: Tensor


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


def _layout(sizes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One argument's batch in the whole-batch layouts: ``valid``, the
    (B, L_max) mask of the entries of each instance's row of scores that
    hold a word (row b's first L_b); ``owner``, the N x B indicator whose
    column b is 1 on instance b's words; and the pass-0 weights, ``owner``
    with column b divided by L_b. A block-diagonal read-out matrix is
    ``owner`` times a column of every word's weight."""
    lengths = np.array(sizes)
    valid = np.arange(max(sizes)) < lengths[:, None]
    owner = np.eye(len(sizes)).repeat(lengths, axis=0)
    return valid, owner, owner / lengths


def _read(H: np.ndarray, layout: tuple[np.ndarray, np.ndarray, np.ndarray],
          sizes: list[int], M: np.ndarray, q: ParamGroup):
    """One argument's pass: o = tanh(W_a H + (W_b M repeated across each
    instance's columns)), each instance's softmax of its scores W_s o,
    and its read-out H a. Returns (o, a, R).

    The softmax is one row per instance of a (B, L_max) matrix padded
    with -inf, whose every row is shifted by its maximum and divided by
    its sum, so the padding gets weight 0. The read-outs are one product
    H D, with instance b's weights in rows of column b of the N x B
    block-diagonal D and zeros elsewhere. At B = 1 both hold exactly the
    one instance's row and column, and round as separate per-instance
    operations do. At B > 1 a row's sum also adds its padding's zeros
    and H D the other blocks' zero products; the zeros change no value
    but do change how numpy and BLAS group the sums, so an instance's
    values can differ from its lone pass in the last bits."""
    valid, owner, _ = layout
    o = np.tanh(q.w_a.data @ H + np.repeat(q.w_b.data @ M, sizes, axis=1))
    scores = np.full(valid.shape, -np.inf)
    scores[valid] = (q.w_s.data @ o)[0]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = (e / e.sum(axis=1, keepdims=True))[valid].reshape(-1, 1)
    return o, a, H @ (owner * a)


def run_stack(h1: Tensor, h2: Tensor, params: list[ParamGroup],
              lengths1: Sequence[int] | None = None,
              lengths2: Sequence[int] | None = None) -> AttentionTrace:
    """All K attention passes over a batch of encoded argument pairs.

    ``h1`` and ``h2`` hold every instance's word encodings side by side,
    ``lengths1[b]`` and ``lengths2[b]`` columns for instance b (None: one
    instance). Pass 0 is each instance's column mean, computed as the
    read-outs are, one product with the block-diagonal matrix holding
    (1/L, ..., 1/L) for each instance, so that a uniform distribution
    (all W_s zero) re-reads it bit for bit. Level 1 builds its memory from
    the pass-0 means, M_1 = tanh(W_m [R0_1; R0_2; R0_1 - R0_2]); each
    later level from the previous level's representations and memory,
    M_k = tanh(W_m [R1; R2; R1 - R2; M_{k-1}]). No bias terms. Every
    instance reads only its own segment, so its distributions and
    representations are those it would get alone, up to the rounding of
    the products the batch shares (W_a h, W_b M) and of the whole-batch
    softmax sums, read-outs and means (``_read``); at B = 1 these are the
    one instance's own operations. W_b M is one column
    per instance, repeated across its words; that rounds differently
    from multiplying W_b by the memory repeated per word, which computes
    the same function.

    All K levels are one recorded operation whose result is ``final``;
    its backward pass takes the products in the order and operand layout
    the per-product graph did and sums each shared adjoint (every h, M
    and R) in the order that graph's reverse sweep reached its
    consumers, so gradients are the same bits. Under ``no_grad`` nothing
    is kept for a backward pass.

    Each weight's gradient is one product. When no weight of the stack
    has a gradient yet and each is a ``FlatParams`` leaf, as a model's
    are, the products are computed straight into the weights' gradient
    runs (``tensor.claim_runs``); else they are given to
    ``Tensor.backward`` as the weights' adjoints.
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
    layouts = (_layout(sizes[0]), _layout(sizes[1]))

    R = [X @ uniform for X, (_, _, uniform) in zip(H, layouts)]
    general = GeneralRepr(_value(R[0]), _value(R[1]))
    levels: list[LevelOutput] = []
    saved = []  # per level: memory input, memory, each side's (o, a)
    M = None
    for p in params:
        S = np.concatenate([R[0], R[1], R[0] - R[1]] + ([] if M is None else [M]))
        M = np.tanh(p.w_m.data @ S)
        reads = [_read(X, lay, z, M, q)
                 for X, lay, z, q in zip(H, layouts, sizes, (p.arg1, p.arg2))]
        (_, a1, r1), (_, a2, r2) = reads
        levels.append(LevelOutput(_value(M), _value(a1), _value(a2), _value(r1), _value(r2)))
        if record:
            saved.append((S, M, [read[:2] for read in reads]))
        R = [r1, r2]

    # The per-product graph's reverse sweep went from level K down: each
    # level's arg1 read-out and products, then arg2's, then its memory
    # update. Each shared adjoint is summed in that order, from its first
    # contribution: h gets the read-out's, then W_a h's, level by level
    # from the top, and the pass-0 mean's last; M_k gets level k+1's memory
    # input's, then each side's W_b M's; R gets the next memory input's
    # (the classifier's at the top), then the difference R1 - R2's.
    def vjp(g: np.ndarray):
        claimed = claim_runs(tensors)
        bounds = (spans(sizes[0]), spans(sizes[1]))

        def product(a: np.ndarray, b: np.ndarray, weight: Tensor) -> np.ndarray:
            return np.matmul(a, b, out=weight._grad_view if claimed else None)

        dR = [g[:n], g[n:]]
        dM = None
        dH = [None, None]
        grads = [None] * len(params)
        for k in range(len(params) - 1, -1, -1):
            S, M, reads = saved[k]
            p = params[k]
            dM_reads, weights = [], []
            for side, q in enumerate((p.arg1, p.arg2)):
                X, b = H[side], bounds[side]
                o, a = reads[side]
                cols = [dR[side][:, j:j + 1] for j in range(len(b))]
                d_read = _join([gj @ a[s:t].T for gj, (s, t) in zip(cols, b)], 1)
                da = _join([X[:, s:t].T @ gj for gj, (s, t) in zip(cols, b)], 0)
                dscore = _join([a[s:t] * (da[s:t] - np.vdot(da[s:t], a[s:t]))
                                for s, t in b], 0).reshape(1, -1)
                dpre = (q.w_s.data.T @ dscore) * (1.0 - o * o)
                dsum = _join([dpre[:, s:t].sum(axis=1, keepdims=True) for s, t in b], 1)
                dM_reads.append(q.w_b.data.T @ dsum)
                d_read = d_read if dH[side] is None else dH[side] + d_read
                dH[side] = d_read + q.w_a.data.T @ dpre
                weights += [product(dpre, X.T, q.w_a), product(dsum, M.T, q.w_b),
                            product(dscore, o.T, q.w_s)]
            dM = dM_reads[0] + dM_reads[1] if dM is None else dM + dM_reads[0] + dM_reads[1]
            dZ = dM * (1.0 - M * M)
            grads[k] = [product(dZ, S.T, p.w_m)] + weights
            dS = p.w_m.data.T @ dZ
            dD = dS[2 * n:3 * n]
            dR = [dS[:n] + dD, dS[n:2 * n] - dD]
            dM = dS[3 * n:]
        for side in (0, 1):
            dH[side] = dH[side] + _join([np.repeat(dR[side][:, j:j + 1] * (1.0 / (t - s)),
                                                   t - s, axis=1)
                                         for j, (s, t) in enumerate(bounds[side])], 1)
        if claimed:
            return (dH[0], dH[1], *[None] * len(tensors))
        return (dH[0], dH[1], *(w for level in grads for w in level))

    final = _make(np.concatenate(R), (h1, h2, *tensors), vjp)
    return AttentionTrace(general, levels, sizes[0], sizes[1], final)
