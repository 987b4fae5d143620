"""Acceptance suite: one test per numbered guarantee in README.md.

The heavy tests train real models on the synthetic cue dataset, so this
file takes a few minutes; everything is seeded, so reruns reproduce the
same verdicts exactly. Each test prints a one-line verdict (shown with
-s or on failure) on top of its asserts, and the test names carry the
criterion numbers so a verbose run reads as the checklist.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nnma.cli import GRADCHECK_THRESHOLD, main
from nnma.corpus import Dataset, Instance, cue_token, synth_generate
from nnma.embeddings import Vocabulary
from nnma.metrics import attention_kl_report, kl_divergence, macro_f1
from nnma.model import NnmaModel
from nnma.rng import Rng
from nnma.trainer import (Hyperparams, MomentumSgd, dropout_mask, evaluate,
                          run_epoch, train_step)

README = Path(__file__).resolve().parent.parent / "README.md"

# The overfit recipe: reference hyperparameters with the encoder and
# memory sizes scaled down, two levels, a straight 50-epoch run.
OVERFIT_HP = Hyperparams(d=16, d_m=32, k=2, max_epochs=50, seed=42)


def verdict(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {detail}")


def train_epochs(model, train: Dataset, hp: Hyperparams, rng: Rng) -> float:
    """The trainer's epochs without dev scoring or early stopping;
    returns the mean training loss of the last epoch."""
    gold = [model.label_index(inst.label) for inst in train.instances]
    weights = [1.0] * len(train)
    opt_net = MomentumSgd(model.network_parameters(), hp.rate, hp.momentum)
    opt_emb = MomentumSgd(model.embedding_parameters(), hp.embedding_rate,
                          hp.momentum)
    last = math.inf
    for _ in range(hp.max_epochs):
        last = run_epoch(model, train, gold, weights, opt_net, opt_emb, hp, rng)
    return last


def overfit_run(train: Dataset, hp: Hyperparams):
    start = time.monotonic()
    rng = Rng(hp.seed)
    vocab = Vocabulary.from_instances(train.instances)
    model = NnmaModel.create(vocab, train.label_inventory(), hp.d_e, hp.d,
                             hp.d_m, hp.k, rng)
    last_loss = train_epochs(model, train, hp, rng)
    return model, last_loss, time.monotonic() - start


@pytest.fixture(scope="module")
def synth_splits():
    full = synth_generate(42, 400)
    return (Dataset(full.instances[:320], "train"),
            Dataset(full.instances[320:360], "dev"),
            Dataset(full.instances[360:], "test"))


@pytest.fixture(scope="module")
def two_level_overfit(synth_splits):
    return overfit_run(synth_splits[0], OVERFIT_HP)


@pytest.fixture(scope="module")
def three_level_overfit(synth_splits):
    return overfit_run(synth_splits[0], replace(OVERFIT_HP, k=3))


def test_criterion_01_gradient_check(capsys):
    start = time.monotonic()
    code = main(["gradcheck"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    groups = {}
    for line in lines[:-1]:
        name, value = line.rsplit(" ", 1)
        groups[name] = float(value)
    ok = (code == 0 and elapsed < 60.0 and len(groups) >= 5
          and all(err < GRADCHECK_THRESHOLD for err in groups.values())
          and lines[-1].endswith("PASS"))
    worst = max(groups.values())
    verdict(1, ok, f"max relative error {worst:.3e} over {len(groups)} "
                   f"parameter groups, {elapsed:.1f}s")
    assert code == 0
    assert elapsed < 60.0
    for name, err in groups.items():
        assert err < GRADCHECK_THRESHOLD, f"{name}: {err}"


def test_criterion_02_normalization_invariants():
    rng = Rng(5)
    vocab = Vocabulary(f"w{i}" for i in range(30))
    model = NnmaModel.create(vocab, ["A", "B", "C"], d_e=4, d=5, d_m=6, k=2,
                             rng=rng)
    worst = 0.0
    low = 0.0
    for _ in range(1000):
        arg1 = [f"w{rng.below(40)}" for _ in range(1 + rng.below(7))]
        arg2 = [f"w{rng.below(40)}" for _ in range(1 + rng.below(7))]
        pred = model.forward(Instance("A", arg1, arg2))
        columns = [pred.probabilities.data]
        for level in pred.trace.levels:
            columns.append(level.a1.data)
            columns.append(level.a2.data)
        for col in columns:
            worst = max(worst, abs(float(col.sum()) - 1.0))
            low = min(low, float(col.min()))
    ok = worst <= 1e-9 and low >= 0.0
    verdict(2, ok, f"1000 forwards: worst |sum-1| {worst:.2e}, "
                   f"min entry {low:.2e}")
    assert worst <= 1e-9
    assert low >= 0.0


def test_criterion_03_uniform_attention_reduction():
    vocab = Vocabulary(f"w{i}" for i in range(12))
    inst = Instance("A", ["w1", "w2", "w3", "w4", "w5"], ["w6", "w7", "w8"])
    checked = 0
    for k in (1, 2, 3):
        model = NnmaModel.create(vocab, ["A", "B"], d_e=3, d=4, d_m=5, k=k,
                                 rng=Rng(11 + k))
        for level in model.levels:
            level.arg1.w_s.data[:] = 0.0
            level.arg2.w_s.data[:] = 0.0
        trace = model.forward(inst).trace
        for out in trace.levels:
            assert np.array_equal(out.R1.data, trace.general.R0_1.data)
            assert np.array_equal(out.R2.data, trace.general.R0_2.data)
            checked += 1
    verdict(3, True, f"zeroed scores reduce {checked} level outputs to the "
                     f"pooled means bitwise, k in 1..3")


def test_criterion_04_synthetic_overfit(synth_splits, two_level_overfit):
    train, _, test = synth_splits
    model, last_loss, elapsed = two_level_overfit
    train_acc = evaluate(model, train).accuracy
    test_acc = evaluate(model, test).accuracy
    ok = (train_acc >= 0.99 and test_acc >= 0.90 and elapsed < 300.0
          and last_loss < 0.05)
    verdict(4, ok, f"train {train_acc:.3f} test {test_acc:.3f} "
                   f"final loss {last_loss:.5f} in 50 epochs, {elapsed:.0f}s")
    assert train_acc >= 0.99
    assert test_acc >= 0.90
    assert elapsed < 300.0
    assert last_loss < 0.05


def test_criterion_05_attention_concentration(synth_splits, two_level_overfit):
    train = synth_splits[0]
    model = two_level_overfit[0]
    # Each argument contributes one trial: its planted cue token either
    # receives more than twice the uniform weight at the top level or
    # it does not.
    trials = hits = both = either = 0
    for inst in train.instances:
        top = model.forward(inst).trace.levels[-1]
        p1 = inst.arg1.index(cue_token(inst.label, 1))
        p2 = inst.arg2.index(cue_token(inst.label, 2))
        hit1 = float(top.a1.data[p1, 0]) > 2.0 / len(inst.arg1)
        hit2 = float(top.a2.data[p2, 0]) > 2.0 / len(inst.arg2)
        trials += 2
        hits += hit1 + hit2
        both += hit1 and hit2
        either += hit1 or hit2
    fraction = hits / trials
    n = len(train)
    ok = fraction >= 0.8
    verdict(5, ok, f"cue above twice uniform in {fraction:.3f} of "
                   f"{trials} argument trials (both sides {both / n:.3f}, "
                   f"at least one side {either / n:.3f})")
    assert fraction >= 0.8


def test_criterion_06_level_distinctness(synth_splits, three_level_overfit):
    train = synth_splits[0]
    model = three_level_overfit[0]
    report = attention_kl_report(model, train)
    uniform_values = list(report.arg1.uniform.values())
    uniform_values += list(report.arg2.uniform.values())
    pair_values = list(report.arg1.pairs.values())
    pair_values += list(report.arg2.pairs.values())
    sample = model.forward(train.instances[0]).trace.levels[-1].a1.data
    self_kl = kl_divergence(sample, sample)
    ok = (all(v >= 0.0 for v in uniform_values + pair_values)
          and max(uniform_values) > 0.01 and self_kl == 0.0)
    verdict(6, ok, f"k=3 run: kl against uniform in "
                   f"[{min(uniform_values):.4f}, {max(uniform_values):.4f}], "
                   f"self-KL {self_kl!r}")
    assert all(v >= 0.0 for v in uniform_values)
    assert all(v >= 0.0 for v in pair_values)
    assert max(uniform_values) > 0.01
    assert self_kl == 0.0


def test_criterion_07_metric_oracles():
    result = macro_f1(["A", "B", "B", "B"], ["A", "A", "B", "B"], ["A", "B"])
    kl = kl_divergence([0.5, 0.5], [0.75, 0.25])
    ok = (abs(result.macro_f1 - 0.7333333333333334) <= 1e-9
          and result.accuracy == 0.75
          and abs(kl - 0.143841) <= 1e-6)
    verdict(7, ok, f"macro_f1 {result.macro_f1!r} accuracy "
                   f"{result.accuracy!r} kl {kl!r}")
    assert result.macro_f1 == pytest.approx(0.7333333333333334, abs=1e-9)
    assert result.accuracy == 0.75
    assert kl == pytest.approx(0.143841, abs=1e-6)


def test_criterion_08_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "7", "--n", "40", "--out",
                 str(data)]) == 0
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        config = tmp_path / f"{run}.cfg"
        config.write_text(
            f"data_dir = {data}\n"
            f"output_dir = {out}\n"
            "task = four\n"
            "d = 4\nd_m = 5\nd_e = 6\nlevels = 2\n"
            "max_epochs = 2\npatience = 5\nseed = 3\n")
        assert main(["train", "--config", str(config)]) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("model.ckpt", "training_log.txt",
                                     "training_report.json")})
    same = all(outputs[0][name] == outputs[1][name] for name in outputs[0])
    sizes = {name: len(blob) for name, blob in outputs[0].items()}
    verdict(8, same, f"two train runs byte-identical: {sizes}")
    assert same


def test_criterion_09_checkpoint_roundtrip(synth_splits, tmp_path):
    train = synth_splits[0]
    steps = train.instances[:10]
    hp = Hyperparams(d=6, d_m=10, d_e=8, k=2, seed=3)

    def fresh():
        rng = Rng(hp.seed)
        vocab = Vocabulary.from_instances(train.instances)
        model = NnmaModel.create(vocab, train.label_inventory(), hp.d_e,
                                 hp.d, hp.d_m, hp.k, rng)
        opt_net = MomentumSgd(model.network_parameters(), hp.rate,
                              hp.momentum)
        opt_emb = MomentumSgd(model.embedding_parameters(),
                              hp.embedding_rate, hp.momentum)
        return model, opt_net, opt_emb, rng

    def advance(model, opt_net, opt_emb, rng, instances):
        losses = []
        for inst in instances:
            mask = dropout_mask(6 * model.d, hp.dropout, rng)
            losses.append(train_step(model, inst, model.label_index(
                inst.label), 1.0, opt_net, opt_emb, mask))
        return losses

    # Universe A: ten uninterrupted steps.
    model_a, net_a, emb_a, rng_a = fresh()
    losses_a = advance(model_a, net_a, emb_a, rng_a, steps)

    # Universe B: five steps, checkpoint, reload, five more. The
    # optimizer velocities and the generator survive the boundary; the
    # parameters go through the file.
    model_b, net_b, emb_b, rng_b = fresh()
    losses_b = advance(model_b, net_b, emb_b, rng_b, steps[:5])
    path = tmp_path / "mid.ckpt"
    model_b.save(path)
    model_c = NnmaModel.load(path)
    net_c = MomentumSgd(model_c.network_parameters(), hp.rate, hp.momentum)
    emb_c = MomentumSgd(model_c.embedding_parameters(), hp.embedding_rate,
                        hp.momentum)
    net_c.velocities = [v.copy() for v in net_b.velocities]
    emb_c.velocities = [v.copy() for v in emb_b.velocities]
    losses_b += advance(model_c, net_c, emb_c, rng_b, steps[5:])

    same = losses_a == losses_b
    verdict(9, same, f"losses of steps 6-10 after reload match bitwise: "
                     f"{[f'{v:.6f}' for v in losses_a[5:]]}")
    assert losses_a[:5] == losses_b[:5]
    assert losses_a[5:] == losses_b[5:]


def test_criterion_10_reproduction_guide():
    text = README.read_text()
    present = ("Reproducing the published four-way result" in text
               and "12345 / 1156 / 1011" in text)
    verdict(10, present, "licensed-data reproduction guide documented in "
                         "README.md (documentation only, no CI gate)")
    assert present
