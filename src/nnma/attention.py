"""Multi-level attention stack with an external memory vector.

Reading an argument pair proceeds in passes. Pass 0 treats every word
equally: each argument's representation is the column mean of its
encoder output. Each later pass k first condenses what has been read so
far into a memory vector M_k, then scores every word of each argument
against that memory, turns the scores into a probability distribution,
and re-reads the argument as the attention-weighted mixture of its word
encodings. The memory update is recurrent, so pass k sees everything
passes 1..k-1 extracted.

All weight shapes are in terms of d (encoder hidden size per direction,
so word encodings have 2d rows) and d_m (memory size).

The stack reads a batch of B instances at once, in the segment layout
of ``tensor.segments``: an encoding holds every instance's words side
by side (``lengths1``/``lengths2`` give each instance's word count),
each representation and memory is a B-column matrix with one column per
instance, and each attention distribution is one column holding every
instance's distribution as a run of rows. One instance is B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rng import Rng
from .recurrent import xavier_uniform
from .tensor import (
    Tensor,
    broadcast_repeat,
    concat,
    mean_cols,
    segment_matvec,
    segment_softmax,
    segments,
    spans,
    tanh,
)


@dataclass
class GeneralRepr:
    """Mean-pooled argument representations, each 2d x B."""

    R0_1: Tensor
    R0_2: Tensor


@dataclass
class ArgAttentionParams:
    """Attention weights for one argument at one level."""

    w_a: Tensor  # 2d x 2d, transforms word encodings
    w_b: Tensor  # 2d x d_m, injects the memory
    w_s: Tensor  # 1 x 2d, scores each position

    @classmethod
    def create(cls, d: int, d_m: int, rng: Rng) -> "ArgAttentionParams":
        return cls(
            xavier_uniform(2 * d, 2 * d, rng),
            xavier_uniform(2 * d, d_m, rng),
            xavier_uniform(1, 2 * d, rng),
        )

    def tensors(self) -> list[Tensor]:
        return [self.w_a, self.w_b, self.w_s]


def memory_input_width(level: int, d: int, d_m: int) -> int:
    """Width of the concatenated memory-update input: [R1, R2, R1-R2]
    gives 6d at level 1; later levels append the previous memory."""
    if level < 1:
        raise ValueError(f"level index starts at 1, got {level}")
    return 6 * d if level == 1 else 6 * d + d_m


@dataclass
class AttentionLevelParams:
    """All weights of one attention level: the memory update plus one
    attention triple per argument."""

    w_m: Tensor
    arg1: ArgAttentionParams
    arg2: ArgAttentionParams

    @classmethod
    def create(cls, level: int, d: int, d_m: int, rng: Rng) -> "AttentionLevelParams":
        w_m = xavier_uniform(d_m, memory_input_width(level, d, d_m), rng)
        return cls(w_m, ArgAttentionParams.create(d, d_m, rng),
                   ArgAttentionParams.create(d, d_m, rng))

    def tensors(self) -> list[Tensor]:
        return [self.w_m] + self.arg1.tensors() + self.arg2.tensors()


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
    whose arguments have ``lengths1`` and ``lengths2`` words."""

    general: GeneralRepr
    levels: list[LevelOutput]
    lengths1: list[int]
    lengths2: list[int]

    @property
    def final_r1(self) -> Tensor:
        return self.levels[-1].R1

    @property
    def final_r2(self) -> Tensor:
        return self.levels[-1].R2

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
                                      levels, [t1 - s1], [t2 - s2]))
        return out


def general_repr(h1: Tensor, h2: Tensor, lengths1: Sequence[int] | None = None,
                 lengths2: Sequence[int] | None = None) -> GeneralRepr:
    """Pass-0 representations: each instance's column mean of its
    encoder output."""
    return GeneralRepr(mean_cols(h1, lengths1), mean_cols(h2, lengths2))


def memory_first(g: GeneralRepr, p: AttentionLevelParams) -> Tensor:
    """M_1 = tanh(W_m [R0_1; R0_2; R0_1 - R0_2]); no bias term."""
    stacked = concat([g.R0_1, g.R0_2, g.R0_1 - g.R0_2])
    return tanh(p.w_m @ stacked)


def memory_next(r1_prev: Tensor, r2_prev: Tensor, m_prev: Tensor,
                p: AttentionLevelParams) -> Tensor:
    """M_k = tanh(W_m [R1; R2; R1 - R2; M_prev]) for levels k >= 2."""
    stacked = concat([r1_prev, r2_prev, r1_prev - r2_prev, m_prev])
    return tanh(p.w_m @ stacked)


def attend(h: Tensor, M: Tensor, p: ArgAttentionParams,
           lengths: Sequence[int] | None = None) -> tuple[Tensor, Tensor]:
    """Memory-conditioned attention over one argument.

    o = tanh(W_a h + W_b (M repeated across each instance's L columns));
    position scores are the row W_s o, and a = softmax of each
    instance's scores, as one column. Returns (a, R) with R = h a per
    instance, the re-read representation. With W_s = 0 every
    distribution is exactly uniform and R reproduces the column mean of
    h bitwise (see mean_cols).
    """
    sizes = segments(h.cols, lengths)
    o = tanh(p.w_a @ h + p.w_b @ broadcast_repeat(M, sizes))
    a = segment_softmax(p.w_s @ o, sizes)
    return a, segment_matvec(h, a, sizes)


def run_stack(h1: Tensor, h2: Tensor, params: list[AttentionLevelParams],
              lengths1: Sequence[int] | None = None,
              lengths2: Sequence[int] | None = None) -> AttentionTrace:
    """All K attention passes over a batch of encoded argument pairs.

    ``h1`` and ``h2`` hold every instance's word encodings side by side,
    ``lengths1[b]`` and ``lengths2[b]`` columns for instance b (None: one
    instance). Level 1 builds its memory from the pass-0 means; each
    later level builds it from the previous level's representations and
    memory. Every instance reads only its own segment, so its
    distributions and representations are those it would get alone, up
    to the rounding of the products the batch shares (W_a h, W_b M).
    """
    if len(params) == 0:
        raise ValueError("attention stack needs at least one level")
    lengths1, lengths2 = segments(h1.cols, lengths1), segments(h2.cols, lengths2)
    if len(lengths1) != len(lengths2):
        raise ValueError(f"{len(lengths1)} first and {len(lengths2)} second arguments")
    g = general_repr(h1, h2, lengths1, lengths2)
    levels: list[LevelOutput] = []
    for k, p in enumerate(params, start=1):
        if k == 1:
            M = memory_first(g, p)
        else:
            prev = levels[-1]
            M = memory_next(prev.R1, prev.R2, prev.M, p)
        a1, r1 = attend(h1, M, p.arg1, lengths1)
        a2, r2 = attend(h2, M, p.arg2, lengths2)
        levels.append(LevelOutput(M, a1, a2, r1, r2))
    return AttentionTrace(g, levels, lengths1, lengths2)
