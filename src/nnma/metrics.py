"""Evaluation metrics, attention-distribution analysis, heatmap export.

Classification quality is macro-averaged F1 (unweighted mean of
per-class F1 over the task's label set, with the 0/0 convention F1 = 0)
plus plain accuracy.

The attention analysis compares the distributions produced by different
levels via KL divergence, natural log throughout. Direction is fixed as
KL(a_i || a_j) for level pair i < j and KL(uniform || a_i) per level,
aggregated per instance then averaged over the dataset, separately for
each argument side; a flag flips the direction for both families.

Heatmaps follow the blue/white/red convention: a token's cell is white
at exactly the uniform weight 1/L, shades toward blue below it and
toward red above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .attention import AttentionTrace
from .corpus import Dataset


@dataclass
class ConfusionCounts:
    """Per-label true/false positive and false negative tallies."""

    tp: dict[str, int] = field(default_factory=dict)
    fp: dict[str, int] = field(default_factory=dict)
    fn: dict[str, int] = field(default_factory=dict)
    correct: int = 0
    total: int = 0

    @classmethod
    def tally(cls, preds: Sequence[str], golds: Sequence[str],
              labels: Sequence[str]) -> "ConfusionCounts":
        counts = cls({l: 0 for l in labels}, {l: 0 for l in labels},
                     {l: 0 for l in labels})
        for pred, gold in zip(preds, golds):
            counts.total += 1
            if pred == gold:
                counts.correct += 1
                counts.tp[gold] = counts.tp.get(gold, 0) + 1
            else:
                counts.fp[pred] = counts.fp.get(pred, 0) + 1
                counts.fn[gold] = counts.fn.get(gold, 0) + 1
        return counts

    def f1(self, label: str) -> float:
        tp = self.tp.get(label, 0)
        denom = 2 * tp + self.fp.get(label, 0) + self.fn.get(label, 0)
        if denom == 0:
            return 0.0
        return 2 * tp / denom


@dataclass
class MetricsResult:
    macro_f1: float
    accuracy: float
    per_class: dict[str, float]


def macro_f1(preds: Sequence[str], golds: Sequence[str],
             labels: Sequence[str]) -> MetricsResult:
    """Macro-averaged F1 and accuracy over the given label set.

    A label with no true positives and no predictions scores 0 (the
    0/0 convention), and still counts in the macro average.
    """
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds, {len(golds)} golds")
    if not preds:
        raise ValueError("cannot score an empty prediction list")
    counts = ConfusionCounts.tally(preds, golds, labels)
    per_class = {label: counts.f1(label) for label in labels}
    macro = sum(per_class.values()) / len(labels)
    return MetricsResult(macro, counts.correct / counts.total, per_class)


def evaluate(model, ds: Dataset) -> MetricsResult:
    """Score every instance against its gold label: forward-only
    batches (``NnmaModel.forward_chunks``: length-sorted chunks, no
    dropout, no graph recorded), each instance one column of its chunk's
    class distributions, predictions put back in dataset order."""
    preds: list[str] = [""] * len(ds)
    for positions, prediction in model.forward_chunks(ds.instances):
        for i, label in zip(positions, prediction.predicted):
            preds[i] = model.label_names[label]
    golds = [inst.label for inst in ds.instances]
    return macro_f1(preds, golds, model.label_names)


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Sum of p_i * ln(p_i / q_i), with 0 * ln(0/q) = 0.

    Both inputs must be distributions of equal length; q must be
    strictly positive wherever compared (softmax outputs always are).
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    for name, dist in (("p", p), ("q", q)):
        if abs(dist.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} sums to {dist.sum()}, not a distribution")
        if np.any(dist < 0.0):
            raise ValueError(f"{name} has negative entries")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi <= 0.0:
            raise ValueError("q has a zero entry where p does not")
        total += pi * math.log(pi / qi)
    return float(total)


@dataclass
class SideKl:
    """KL statistics for one argument side: mean KL per level pair
    (keys (i, j), 1-based, i < j) and mean KL against uniform per level."""

    pairs: dict[tuple[int, int], float]
    uniform: dict[int, float]


@dataclass
class KlReport:
    arg1: SideKl
    arg2: SideKl
    levels: int
    instances: int
    flipped: bool

    @property
    def direction(self) -> str:
        if self.flipped:
            return "KL(a_j || a_i) for i < j; KL(a_i || uniform)"
        return "KL(a_i || a_j) for i < j; KL(uniform || a_i)"


def attention_traces(model, instances: Sequence) -> list[AttentionTrace]:
    """Each instance's attention trace, in the order given, cut from the
    segments of forward-only batches (``NnmaModel.forward_chunks``)."""
    traces: list[AttentionTrace] = [None] * len(instances)  # type: ignore[list-item]
    for positions, prediction in model.forward_chunks(instances):
        for i, trace in zip(positions, prediction.trace.split()):
            traces[i] = trace
    return traces


def attention_kl_report(model, ds: Dataset, flipped: bool = False) -> KlReport:
    """Mean KL divergences between attention levels over a dataset.

    The distributions come from batched forward-only passes
    (``attention_traces``): each instance's rows of a chunk's attention
    columns. Aggregation is per instance then averaged in dataset
    order, separately per argument side. Requires at least two
    attention levels.
    """
    if model.k < 2:
        raise ValueError("KL report needs a model with at least 2 attention levels")
    if len(ds) == 0:
        raise ValueError("KL report over an empty dataset")
    return kl_report(attention_traces(model, ds.instances), flipped)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kl_divergence`` of each row of ``p`` against the same row of
    ``q``, for rows already checked to be distributions."""
    support = p > 0.0
    if np.any(support & (q <= 0.0)):
        raise ValueError("q has a zero entry where p does not")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(support, p * np.log(p / q), 0.0).sum(axis=1)


def kl_report(traces: Sequence[AttentionTrace], flipped: bool = False) -> KlReport:
    """``attention_kl_report`` over one trace per instance. Each
    instance's values come from its levels' distributions as the rows of
    one array, checked once, so they agree with ``kl_divergence`` per
    pair up to the order of summation."""
    k = len(traces[0].levels)
    pair_keys = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    first = [i - 1 for i, _ in pair_keys]
    second = [j - 1 for _, j in pair_keys]
    sums = {side: [np.zeros(len(pair_keys)), np.zeros(k)] for side in (1, 2)}

    for trace in traces:
        for side in (1, 2):
            P = np.stack([(lv.a1 if side == 1 else lv.a2).data.reshape(-1)
                          for lv in trace.levels])
            totals = P.sum(axis=1)
            if np.any(np.abs(totals - 1.0) > 1e-6):
                raise ValueError(f"arg{side} attention sums to {totals.tolist()}, "
                                 f"not a distribution")
            if np.any(P < 0.0):
                raise ValueError(f"arg{side} attention has negative entries")
            uni = np.full(P.shape, 1.0 / P.shape[1])
            a, b = P[first], P[second]
            sums[side][0] += _kl_rows(b, a) if flipped else _kl_rows(a, b)
            sums[side][1] += _kl_rows(P, uni) if flipped else _kl_rows(uni, P)

    count = len(traces)
    sides = [SideKl({key: float(total / count) for key, total in zip(pair_keys, pairs)},
                    {i: float(total / count) for i, total in enumerate(uniform, start=1)})
             for pairs, uniform in (sums[1], sums[2])]
    return KlReport(sides[0], sides[1], k, count, flipped)


def render_kl_report(report: KlReport) -> str:
    """Line-oriented text form of a KL report; repr floats round-trip."""
    lines = [
        f"# attention KL report over {report.instances} instances, "
        f"{report.levels} levels",
        f"# direction: {report.direction}",
    ]
    for name, side in (("arg1", report.arg1), ("arg2", report.arg2)):
        for (i, j), value in sorted(side.pairs.items()):
            lines.append(f"{name} kl_{i}{j} {value!r}")
        for i, value in sorted(side.uniform.items()):
            lines.append(f"{name} kl_u{i} {value!r}")
    return "\n".join(lines) + "\n"


# -- heatmap export -------------------------------------------------------

CELL = 20  # square cell edge, pixels

BLUE = (0, 0, 255)
WHITE = (255, 255, 255)
RED = (255, 0, 0)


def heat_color(weight: float, length: int) -> tuple[int, int, int]:
    """Cell color for an attention weight over ``length`` positions:
    white at the uniform value 1/length, linearly toward blue below it
    and toward red above it."""
    uniform = 1.0 / length
    if weight <= uniform:
        s = weight / uniform if uniform > 0 else 1.0
        channel = int(round(255 * s))
        return (channel, channel, 255)
    s = (weight - uniform) / (1.0 - uniform) if length > 1 else 1.0
    channel = int(round(255 * (1.0 - s)))
    return (255, channel, channel)


def heatmap_csv(trace: AttentionTrace, arg1_tokens: Sequence[str],
                arg2_tokens: Sequence[str], sink: IO[str]) -> None:
    """One CSV row per (level, argument): level, argument name, then
    token:weight pairs in position order (full-precision weights)."""
    _check_lengths(trace, arg1_tokens, arg2_tokens)
    for idx, lv in enumerate(trace.levels, start=1):
        for name, tokens, a in (("arg1", arg1_tokens, lv.a1),
                                ("arg2", arg2_tokens, lv.a2)):
            cells = ",".join(f"{tok}:{float(w)!r}"
                             for tok, w in zip(tokens, a.data.reshape(-1)))
            sink.write(f"{idx},{name},{cells}\n")


def heatmap_ppm(trace: AttentionTrace, arg1_tokens: Sequence[str],
                arg2_tokens: Sequence[str], sink: IO[bytes]) -> None:
    """Binary portable pixmap: one row of colored cells per (level,
    argument), levels top to bottom, arg1 above arg2 within a level.
    Rows shorter than the widest argument are padded with white."""
    _check_lengths(trace, arg1_tokens, arg2_tokens)
    lengths = {1: len(arg1_tokens), 2: len(arg2_tokens)}
    width_cells = max(lengths.values())
    rows = []
    for lv in trace.levels:
        rows.append((lv.a1.data.reshape(-1), lengths[1]))
        rows.append((lv.a2.data.reshape(-1), lengths[2]))

    width = width_cells * CELL
    height = len(rows) * CELL
    pixels = np.full((height, width, 3), 255, dtype=np.uint8)
    for r, (weights, length) in enumerate(rows):
        for i in range(length):
            color = heat_color(float(weights[i]), length)
            pixels[r * CELL:(r + 1) * CELL, i * CELL:(i + 1) * CELL] = color
    sink.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
    sink.write(pixels.tobytes())


def _check_lengths(trace: AttentionTrace, arg1_tokens, arg2_tokens) -> None:
    lv = trace.levels[0]
    if lv.a1.rows != len(arg1_tokens):
        raise ValueError(f"arg1 has {len(arg1_tokens)} tokens but "
                         f"attention length {lv.a1.rows}")
    if lv.a2.rows != len(arg2_tokens):
        raise ValueError(f"arg2 has {len(arg2_tokens)} tokens but "
                         f"attention length {lv.a2.rows}")
