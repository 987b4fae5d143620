"""Tests of the benchmark's own checks, fed from fakes (no nnma code).

Run with ``python3 -m pytest bench/test_checks.py``. Each check must pass
on a right input and raise CheckFailed on a deliberately wrong one.
"""

import json
import math

import numpy as np
import pytest

import checks
from checks import CheckFailed


def test_distribution_accepts_softmax_and_rejects_unnormalised_column():
    z = np.array([[0.3], [-1.2], [2.0]])
    e = np.exp(z - z.max())
    checks.distribution(e / e.sum(), "softmax")
    with pytest.raises(CheckFailed, match="sums to"):
        checks.distribution(e, "unnormalised")
    with pytest.raises(CheckFailed, match="outside"):
        checks.distribution(np.array([1.5, -0.5]), "out of range")


def test_scores_reject_f1_that_disagrees_with_predictions():
    labels = ["a", "b", "c"]
    preds = ["a", "a", "b", "c", "c"]
    golds = ["a", "b", "b", "c", "a"]
    # per class: a 2*1/(2+1+1) = 0.5, b 2/(2+0+1) = 2/3, c 2/(2+1+0) = 2/3
    f1 = (0.5 + 2 / 3 + 2 / 3) / 3
    checks.scores(preds, golds, labels, accuracy=3 / 5, macro_f1=f1)
    with pytest.raises(CheckFailed, match="macro-F1"):
        checks.scores(preds, golds, labels, accuracy=3 / 5, macro_f1=f1 + 0.01)
    with pytest.raises(CheckFailed, match="accuracy"):
        checks.scores(preds, golds, labels, accuracy=4 / 5, macro_f1=f1)


def test_scores_count_an_absent_label_as_zero_f1():
    checks.scores(["a", "a"], ["a", "a"], ["a", "b"], accuracy=1.0, macro_f1=0.5)


def test_kl_rejects_negative_value():
    checks.kl_nonnegative({"arg1 kl_12": 0.03, "arg1 kl_u1": 0.0, "arg2 kl_u2": -1e-15})
    with pytest.raises(CheckFailed, match="negative"):
        checks.kl_nonnegative({"arg1 kl_12": 0.03, "arg2 kl_u1": -0.002})
    with pytest.raises(CheckFailed):
        checks.kl_nonnegative({"arg1 kl_12": math.nan})


def test_kl_uniform_matches_closed_form_and_rejects_wrong_report():
    a = np.array([0.5, 0.25, 0.25])
    want = sum(1 / 3 * math.log((1 / 3) / p) for p in a)
    checks.kl_uniform(a, want, "fake")
    with pytest.raises(CheckFailed, match="KL"):
        checks.kl_uniform(a, sum(p * math.log(p * 3) for p in a), "flipped direction")


def test_momentum_step_rejects_wrong_sign():
    rng = np.random.default_rng(0)
    theta, v, g = (rng.standard_normal((4, 3)) for _ in range(3))
    mu, eta = 0.9, 0.01
    v_new = mu * v - eta * g
    checks.momentum_step(theta, v, g, v_new, theta + v_new, mu, eta, "fake")
    flipped = mu * v + eta * g
    with pytest.raises(CheckFailed, match="velocity"):
        checks.momentum_step(theta, v, g, flipped, theta + flipped, mu, eta, "fake")
    with pytest.raises(CheckFailed, match="parameter"):
        checks.momentum_step(theta, v, g, v_new, theta - v_new, mu, eta, "fake")


def _central_difference(f, x, i, h=1e-5):
    up, down = x.copy(), x.copy()
    up[i] += h
    down[i] -= h
    return (f(up) - f(down)) / (2 * h)


def test_gradient_rejects_a_broken_backward():
    def f(x):
        return float(np.sum(np.tanh(x) ** 2))

    x = np.array([0.3, -1.1, 2.0, 1e-3])
    good = 2 * np.tanh(x) * (1 - np.tanh(x) ** 2)
    broken = 2 * np.tanh(x) * (1 - np.tanh(x))  # tanh' taken as 1 - tanh
    for i in range(x.size):
        numeric = _central_difference(f, x, i)
        checks.gradient(good[i], numeric, f"entry {i}")
    with pytest.raises(CheckFailed, match="finite difference"):
        for i in range(x.size):
            checks.gradient(broken[i], _central_difference(f, x, i), f"entry {i}")


def test_gradient_compares_tiny_partials_relatively():
    checks.gradient(2e-7, 2e-7 + 1e-12, "tiny, right")
    with pytest.raises(CheckFailed):
        checks.gradient(2e-7, -2e-7, "tiny, wrong sign")


def test_loss_rejects_negative_or_non_finite():
    checks.loss(0.0)
    checks.loss(1.386)
    for bad in (-1e-3, math.inf, math.nan):
        with pytest.raises(CheckFailed):
            checks.loss(bad)


def _fake_checkpoint(header: dict, extra: int = 0) -> bytes:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"\0" * (8 * checks.parameter_count(header) + extra)
    return b"NNMA" + (1).to_bytes(4, "little") + len(blob).to_bytes(8, "little") + blob + payload


def test_parameter_count_by_hand_for_a_tiny_shape():
    header = {"d": 1, "d_e": 1, "d_m": 1, "k": 2, "n": 2, "v": 3}
    # embedding 3; LSTM direction 4*1*2 + 4 = 12, four of them 48;
    # triple 4 + 2 + 2 = 8; level 1: 1*6 + 16 = 22; level 2: 1*7 + 16 = 23;
    # output 2*6 + 2 = 14
    assert checks.parameter_count(header) == 3 + 48 + 22 + 23 + 14


def test_checkpoint_layout_rejects_wrong_size():
    header = {"d": 2, "d_e": 3, "d_m": 4, "k": 2, "n": 4, "v": 7,
              "labels": list("abcd"), "vocab": list("abcdefg")}
    assert checks.checkpoint_layout(_fake_checkpoint(header)) == header
    with pytest.raises(CheckFailed, match="header implies"):
        checks.checkpoint_layout(_fake_checkpoint(header, extra=8))
    with pytest.raises(CheckFailed, match="header implies"):
        checks.checkpoint_layout(_fake_checkpoint(header)[:-1])


def test_bit_identical_rejects_last_bit_change():
    a = np.array([[0.1, 0.2]])
    checks.bit_identical([a], [a.copy()], "fake")
    b = a.copy()
    b[0, 1] = np.nextafter(b[0, 1], 1.0)
    with pytest.raises(CheckFailed, match="differs"):
        checks.bit_identical([a], [b], "fake")


def test_heatmap_outputs():
    rows, cell = 4, 20
    width, height = 3 * cell, rows * cell
    ppm = f"P6\n{width} {height}\n255\n".encode() + b"\xff" * (width * height * 3)
    checks.heatmap_ppm(ppm, rows)
    with pytest.raises(CheckFailed):
        checks.heatmap_ppm(ppm[:-3], rows)
    csv = "1,arg1,a:0.5,b:0.5\n1,arg2,c:1.0\n2,arg1,a:0.9,b:0.1\n2,arg2,c:1.0\n"
    checks.heatmap_csv(csv, rows, [2, 1])
    with pytest.raises(CheckFailed):
        checks.heatmap_csv(csv, rows, [2, 2])
