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
from typing import IO, Iterable, Sequence

import numpy as np

from .attention import AttentionTrace
from .corpus import Dataset
from .tensor import segments


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


class KlReportError(ValueError):
    """Attention values the KL report cannot compare: not distributions,
    or a zero where the other distribution is positive (saturated
    attention), or no instances to report on."""


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


def attention_kl_report(model, ds: Dataset, flipped: bool = False) -> KlReport:
    """Mean KL divergences between attention levels over a dataset.

    The distributions come from batched forward-only passes
    (``NnmaModel.forward_chunks``), and ``kl_report`` reads each chunk's
    attention columns whole, as the chunks come. Each instance's values
    are summed in dataset order and averaged, separately per argument
    side. Requires at least two attention levels.
    """
    if model.k < 2:
        raise KlReportError("KL report needs a model with at least 2 attention levels")
    if len(ds) == 0:
        raise KlReportError("KL report over an empty dataset")
    return kl_report(((positions, prediction.trace)
                      for positions, prediction in model.forward_chunks(ds.instances)),
                     flipped)


def _kl_segments(p: np.ndarray, q: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``kl_divergence`` of each row of ``p`` against the same row of
    ``q`` within each segment (the columns from one of ``starts`` to the
    next): a (rows, segments) array, for rows already checked to be
    distributions with q positive wherever p is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
    return np.add.reduceat(terms, starts, axis=1)


def _first(bad: np.ndarray, positions: Sequence[int]) -> tuple[int, int]:
    """Row and segment of a true entry of a (rows, segments) mask: the
    segment whose dataset position comes first, then the first row."""
    rows, cols = np.nonzero(bad)
    at = np.lexsort((rows, np.asarray(positions)[cols]))[0]
    return int(rows[at]), int(cols[at])


def _side_kl(P: np.ndarray, lengths: Sequence[int], positions: Sequence[int], side: str,
             pairs: tuple[list[int], list[int]], flipped: bool) -> list[np.ndarray]:
    """One argument side of one chunk. ``P`` holds the K levels'
    attention columns as rows, instance b owning the b-th segment of
    ``lengths``. Checks every instance's distributions, then returns its
    pair values (pairs, B) and uniform values (K, B)."""
    lengths = segments(P.shape[1], lengths)
    starts = np.cumsum([0, *lengths[:-1]])

    def where(row: int, b: int) -> str:
        return f"{side} level {row + 1} attention of instance {positions[b]}"

    totals = np.add.reduceat(P, starts, axis=1)
    bad = np.abs(totals - 1.0) > 1e-6
    if bad.any():
        row, b = _first(bad, positions)
        raise KlReportError(f"{where(row, b)} sums to {float(totals[row, b])!r}, "
                            f"not a distribution")
    negative = P < 0.0
    if negative.any():
        row, b = _first(np.logical_or.reduceat(negative, starts, axis=1), positions)
        raise KlReportError(f"{where(row, b)} has negative entries")

    first, second = pairs
    uniform = np.repeat(1.0 / np.asarray(lengths, dtype=np.float64), lengths)
    levels = range(len(P))
    families = [(P[second], P[first], first) if flipped else (P[first], P[second], second),
                (P, uniform, levels) if flipped else (uniform, P, levels)]
    values = []
    for p, q, q_levels in families:
        unsupported = (p > 0.0) & (q <= 0.0)
        if unsupported.any():
            row, b = _first(np.logical_or.reduceat(unsupported, starts, axis=1), positions)
            raise KlReportError(f"{where(q_levels[row], b)}: "
                                "q has a zero entry where p does not")
        values.append(_kl_segments(p, q, starts))
    return values


def kl_report(chunks: Iterable[tuple[Sequence[int], AttentionTrace]],
              flipped: bool = False) -> KlReport:
    """``attention_kl_report`` over attention traces in the segment
    layout of ``tensor.segments``, each with its instances' dataset
    positions (0 to n - 1, each once over all chunks); one instance is
    a trace with B = 1.

    Each side of a chunk is read whole, as one (K, N) array of its
    levels' attention columns. Every instance's distributions are
    checked there (sum to 1 within 1e-6, no negative entry, q positive
    wherever p is); a refusal names the instance's position, the side
    and the level. The pair and uniform terms are computed over the
    whole array and summed per instance by ``np.add.reduceat`` at the
    segment starts, so an instance's values can differ from
    ``kl_divergence`` in their last bits (within 1e-12 relative). The
    values are then put in dataset order and summed in that order.
    """
    parts: list[tuple[Sequence[int], list[np.ndarray]]] = []
    for positions, trace in chunks:
        k = len(trace.levels)
        pair_keys = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        pairs = ([i - 1 for i, _ in pair_keys], [j - 1 for _, j in pair_keys])
        values = []
        for side, lengths in (("arg1", trace.lengths1), ("arg2", trace.lengths2)):
            P = np.stack([(lv.a1 if side == "arg1" else lv.a2).data.reshape(-1)
                          for lv in trace.levels])
            values += _side_kl(P, lengths, positions, side, pairs, flipped)
        parts.append((positions, values))
    if not parts:
        raise KlReportError("KL report over no instances")

    order = np.concatenate([np.asarray(positions, dtype=np.intp) for positions, _ in parts])
    count = order.size
    chunk_index = np.argsort(order)  # each dataset position's place in chunk order
    if not np.array_equal(order[chunk_index], np.arange(count)):
        raise KlReportError(f"chunk positions do not number {count} instances 0 to {count - 1}")
    means = []
    for family in range(4):
        in_order = np.concatenate([values[family] for _, values in parts], axis=1)[:, chunk_index]
        # cumsum adds one instance at a time, in dataset order.
        means.append(np.cumsum(in_order, axis=1)[:, -1] / count)
    sides = [SideKl({key: float(v) for key, v in zip(pair_keys, pair_means)},
                    {i: float(v) for i, v in enumerate(uniform_means, start=1)})
             for pair_means, uniform_means in (means[:2], means[2:])]
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
