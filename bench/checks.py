"""Correctness checks the benchmark applies to the program's outputs.

Each check recomputes a result independently (numpy and plain Python,
no nnma code) or tests a property of the method, and raises
``CheckFailed`` with a message naming what disagreed. They take plain
numbers and arrays, so the tests in ``test_checks.py`` can feed them
deliberately wrong inputs without running the program.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

DIST_TOL = 1e-9       # probability and attention columns sum to 1 within this
GRAD_TOL = 1e-4       # backward vs central difference, relative error
GRAD_FLOOR = 1e-5     # relative error denominator floor (see gradient())
KL_FLOOR = -1e-12     # a KL value may read this far below 0 from rounding
KL_REL_TOL = 1e-9     # numpy KL(uniform || a) vs the program's report
STEP_REL_TOL = 1e-12  # momentum step recomputed from saved copies
CKPT_PREFIX = 16      # magic (4) + version (4) + header length (8)


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def loss(value: float) -> None:
    """A training loss is a weighted negative log-probability."""
    if not math.isfinite(value) or value < 0.0:
        raise CheckFailed(f"training loss {value!r} is not finite and >= 0")


def distribution(column: np.ndarray, what: str) -> None:
    """Entries in [0, 1] that sum to 1 within DIST_TOL."""
    col = np.asarray(column, dtype=np.float64).reshape(-1)
    if col.size == 0 or not np.all((col >= 0.0) & (col <= 1.0)):
        raise CheckFailed(f"{what}: entries outside [0, 1]")
    total = float(col.sum())
    if abs(total - 1.0) > DIST_TOL:
        raise CheckFailed(f"{what}: sums to {total!r}, not 1")


def scores(preds: Sequence[str], golds: Sequence[str], labels: Sequence[str],
           accuracy: float, macro_f1: float) -> None:
    """Accuracy and macro-F1 (0/0 counts as F1 0) from our own tally."""
    if len(preds) != len(golds) or not preds:
        raise CheckFailed("scores: need equal, non-empty prediction and gold lists")
    correct = sum(p == g for p, g in zip(preds, golds))
    f1s = []
    for label in labels:
        tp = sum(p == label and g == label for p, g in zip(preds, golds))
        fp = sum(p == label and g != label for p, g in zip(preds, golds))
        fn = sum(p != label and g == label for p, g in zip(preds, golds))
        f1s.append(0.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
    want_acc = correct / len(golds)
    want_f1 = sum(f1s) / len(labels)
    if not math.isclose(accuracy, want_acc, rel_tol=1e-12, abs_tol=1e-15):
        raise CheckFailed(f"accuracy {accuracy!r}, recomputed {want_acc!r}")
    if not math.isclose(macro_f1, want_f1, rel_tol=1e-12, abs_tol=1e-15):
        raise CheckFailed(f"macro-F1 {macro_f1!r}, recomputed {want_f1!r}")


def kl_nonnegative(values: dict[str, float]) -> None:
    """Every KL divergence is >= 0 (up to KL_FLOOR of rounding)."""
    for name, value in values.items():
        if not math.isfinite(value) or value < KL_FLOOR:
            raise CheckFailed(f"KL {name} = {value!r} is negative")


def kl_uniform(attention: np.ndarray, reported: float, what: str) -> None:
    """KL(uniform || a) = sum u ln(u / a), recomputed with numpy."""
    a = np.asarray(attention, dtype=np.float64).reshape(-1)
    u = 1.0 / a.size
    want = float(np.sum(u * np.log(u / a)))
    if not math.isclose(reported, want, rel_tol=KL_REL_TOL, abs_tol=1e-15):
        raise CheckFailed(f"{what}: KL(uniform||a) reported {reported!r}, "
                          f"recomputed {want!r}")


def momentum_step(theta: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
                  new_velocity: np.ndarray, new_theta: np.ndarray,
                  momentum: float, rate: float, what: str) -> None:
    """v' = mu v - eta g and theta' = theta + v', from saved copies."""
    want_v = momentum * velocity - rate * grad
    want_theta = theta + want_v
    for name, got, want in (("velocity", new_velocity, want_v),
                            ("parameter", new_theta, want_theta)):
        if not np.allclose(got, want, rtol=STEP_REL_TOL, atol=1e-15):
            worst = float(np.max(np.abs(got - want)))
            raise CheckFailed(f"{what}: {name} after the step is off by {worst!r}")


def gradient(analytic: float, numeric: float, what: str) -> None:
    """Backward vs central difference: |a - n| / max(|a|, |n|, GRAD_FLOOR).

    The floor sits well above the difference quotient's rounding error
    (about 1e-10 here), so tiny partials are still compared relatively.
    """
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRAD_FLOOR)
    if not err <= GRAD_TOL:
        raise CheckFailed(f"{what}: backward {analytic!r}, finite difference "
                          f"{numeric!r}, relative error {err:.3g}")


def parameter_count(header: dict) -> int:
    """Number of float64 parameters a checkpoint header implies.

    Embedding d_e x v; four LSTM directions of four (d, d_e + d) gate
    matrices and four d-vectors; per level a memory matrix
    (d_m, 6d, plus d_m from level 2 on) and two attention triples
    (2d x 2d, 2d x d_m, 1 x 2d); the output layer (n, 6d) plus n.
    """
    d, d_e, d_m, k, n, v = (header[key] for key in ("d", "d_e", "d_m", "k", "n", "v"))
    lstm = 4 * d * (d_e + d) + 4 * d
    triple = 2 * d * 2 * d + 2 * d * d_m + 2 * d
    levels = sum(d_m * (6 * d + (d_m if level > 1 else 0)) + 2 * triple
                 for level in range(1, k + 1))
    return d_e * v + 4 * lstm + levels + n * 6 * d + n


def checkpoint_layout(blob: bytes) -> dict:
    """The file is 16 + header length + 8 x parameter count bytes; returns the header."""
    if len(blob) < CKPT_PREFIX:
        raise CheckFailed(f"checkpoint of {len(blob)} bytes has no prefix")
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[CKPT_PREFIX:CKPT_PREFIX + header_len].decode("utf-8"))
    want = CKPT_PREFIX + header_len + 8 * parameter_count(header)
    if len(blob) != want:
        raise CheckFailed(f"checkpoint is {len(blob)} bytes, header implies {want}")
    return header


def bit_identical(got: Sequence[np.ndarray], want: Sequence[np.ndarray], what: str) -> None:
    """Same count, shapes and bytes."""
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} arrays, expected {len(want)}")
    for i, (a, b) in enumerate(zip(got, want)):
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            raise CheckFailed(f"{what}: array {i} differs")


def heatmap_ppm(blob: bytes, rows: int) -> None:
    """A binary PPM with ``rows`` equal cell rows and a full pixel payload."""
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise CheckFailed("heatmap PPM: bad header")
    width, height = (int(x) for x in parts[1].split())
    if height % rows or len(parts[3]) != width * height * 3:
        raise CheckFailed(f"heatmap PPM: {len(parts[3])} pixel bytes for "
                          f"{width}x{height} in {rows} rows")


def heatmap_csv(text: str, rows: int, lengths: Sequence[int]) -> None:
    """One CSV line per (level, argument), with one cell per token."""
    lines = text.splitlines()
    if len(lines) != rows:
        raise CheckFailed(f"heatmap CSV: {len(lines)} lines, expected {rows}")
    for i, line in enumerate(lines):
        cells = line.split(",")[2:]
        if len(cells) != lengths[i % 2]:
            raise CheckFailed(f"heatmap CSV line {i + 1}: {len(cells)} cells, "
                              f"expected {lengths[i % 2]}")
