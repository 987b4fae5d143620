import hashlib
import io

import numpy as np
import pytest

from nnma.corpus import Dataset, Instance, TaskSpec, synth_generate
from nnma.embeddings import Vocabulary
from nnma.metrics import evaluate
from nnma.model import NnmaModel
from nnma.rng import Rng
from nnma.tensor import Tensor, topo_order
from nnma.trainer import (
    Hyperparams,
    MomentumSgd,
    TrainingDiverged,
    dropout_mask,
    fit,
    reweight,
    train_step,
)


def tiny_setup(seed=1, k=1, n=16):
    ds = synth_generate(seed, n, vocab_size=12, len_range=(3, 5))
    vocab = Vocabulary.from_instances(ds.instances)
    model = NnmaModel.create(vocab, ds.label_inventory(), d_e=3, d=2, d_m=3,
                             k=k, rng=Rng(seed))
    return model, ds


def tiny_hp(**overrides):
    base = dict(d=2, d_m=3, d_e=3, k=1, max_epochs=2, patience=10,
                dropout=0.0, seed=1)
    base.update(overrides)
    return Hyperparams(**base)


class TestHyperparams:
    def test_reference_defaults(self):
        hp = Hyperparams()
        assert hp.momentum == 0.9
        assert hp.rate == 0.01
        assert hp.embedding_rate == 0.002
        assert hp.dropout == 0.1
        assert hp.d == 50
        assert hp.d_m == 200
        assert hp.d_e == 50
        hp.validate()

    @pytest.mark.parametrize("bad", [
        dict(dropout=1.0), dict(dropout=-0.1), dict(momentum=1.0),
        dict(rate=0.0), dict(embedding_rate=-1.0), dict(k=0),
        dict(max_epochs=0), dict(patience=-1), dict(d=0),
        dict(rate=float("nan")), dict(rate=float("inf")),
        dict(embedding_rate=float("inf")), dict(embedding_rate=float("nan")),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            Hyperparams(**bad).validate()


class TestMomentumSgd:
    def test_zero_momentum_is_plain_sgd(self):
        p = Tensor([[1.0], [2.0]], requires_grad=True)
        p.grad = np.array([[0.5], [-0.5]])
        MomentumSgd([p], rate=0.1, momentum=0.0).step()
        np.testing.assert_allclose(p.data, [[0.95], [2.05]], atol=1e-15)

    def test_zero_gradient_zero_velocity_fixed_point(self):
        p = Tensor([[3.0]], requires_grad=True)
        p.grad = np.array([[0.0]])
        MomentumSgd([p], rate=0.1, momentum=0.9).step()
        assert p.data[0, 0] == 3.0

    def test_hand_recurrence_two_steps(self):
        p = Tensor([[0.0]], requires_grad=True)
        opt = MomentumSgd([p], rate=0.1, momentum=0.9)
        p.grad = np.array([[1.0]])
        opt.step()
        assert p.data[0, 0] == pytest.approx(-0.1, abs=1e-12)
        assert opt.velocities[0][0, 0] == pytest.approx(-0.1, abs=1e-12)
        p.grad = np.array([[1.0]])
        opt.step()
        assert opt.velocities[0][0, 0] == pytest.approx(-0.19, abs=1e-12)
        assert p.data[0, 0] == pytest.approx(-0.29, abs=1e-12)

    def test_matches_closed_form_on_constant_gradient(self):
        rate, momentum, g = 0.05, 0.8, 0.7
        p = Tensor([[0.0]], requires_grad=True)
        opt = MomentumSgd([p], rate, momentum)
        for t in range(1, 21):
            p.grad = np.array([[g]])
            opt.step()
            expected_v = -rate * g * sum(momentum ** (t - s) for s in range(1, t + 1))
            assert opt.velocities[0][0, 0] == pytest.approx(expected_v, abs=1e-12)

    def test_missing_gradient_treated_as_zero(self):
        p = Tensor([[1.0]], requires_grad=True)
        opt = MomentumSgd([p], rate=0.1, momentum=0.5)
        opt.velocities[0][0, 0] = -0.2
        p.grad = None
        opt.step()
        # velocity decays to -0.1 and still moves the parameter
        assert opt.velocities[0][0, 0] == pytest.approx(-0.1, abs=1e-15)
        assert p.data[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_group_separation(self):
        model, _ = tiny_setup()
        opt_net = MomentumSgd(model.network_parameters(), 0.1, 0.9)
        opt_emb = MomentumSgd(model.embedding_parameters(), 0.1, 0.9)
        before_net = [p.data.copy() for p in model.network_parameters()]
        model.embeddings.weights.grad = np.ones_like(model.embeddings.weights.data)
        opt_net.step()
        opt_emb.step()
        for p, before in zip(model.network_parameters(), before_net):
            np.testing.assert_array_equal(p.data, before)
        assert np.any(model.embeddings.weights.data != 0.0)

    def test_hand_set_gradient_after_lookup_updates_every_column(self):
        # A backward pass leaves the embedding gradient restricted to the
        # looked-up columns; a gradient assigned by hand afterwards (also
        # by ``+=``) must update every column, not only those.
        model, ds = tiny_setup()
        emb = model.embeddings.weights
        for assign in ("set", "iadd"):
            model.zero_grad()
            model.loss(model.forward(ds.instances[0]), 0).backward()
            assert emb.grad_columns is not None and len(emb.grad_columns) < emb.cols
            if assign == "set":
                emb.grad = np.ones_like(emb.data)
            else:
                emb.grad += 1.0
            assert emb.grad_columns is None
            opt = MomentumSgd([emb], rate=0.1, momentum=0.0)
            before = emb.data.copy()
            opt.step()
            assert np.all(emb.data != before)


def golden_training_run(steps=60):
    """sha256 over the checkpoint bytes, both optimizers' velocities and
    every ``.grad`` after ``steps`` train steps with dropout, at V 3000.
    Each argument draws from a small per-instance pool plus a shared word
    and an unknown one, so words repeat within and across arguments."""
    rng = Rng(2024)
    vocab = Vocabulary([f"w{i}" for i in range(2999)])
    labels = ["A", "B", "C", "D"]
    instances = []
    for n in range(12):
        pool = [f"w{rng.below(2999)}" for _ in range(4)] + ["w7", "oov"]
        args = [[pool[rng.below(len(pool))] for _ in range(3 + rng.below(6))]
                for _ in range(2)]
        instances.append(Instance(labels[n % 4], args[0], args[1]))
    model = NnmaModel.create(vocab, labels, d_e=4, d=3, d_m=5, k=2, rng=rng)
    opt_net = MomentumSgd(model.network_parameters(), 0.05, 0.9)
    opt_emb = MomentumSgd(model.embedding_parameters(), 0.5, 0.9)
    for _ in range(steps):
        inst = instances[rng.below(len(instances))]
        mask = dropout_mask(6 * model.d, 0.2, rng)
        train_step(model, inst, model.label_index(inst.label), 1.0,
                   opt_net, opt_emb, mask)
    buf = io.BytesIO()
    model.save(buf)
    digest = hashlib.sha256(buf.getvalue())
    for v in opt_net.velocities + opt_emb.velocities:
        digest.update(v.tobytes())
    for p in model.parameters():
        digest.update(p.grad.tobytes())
    return digest.hexdigest()


class TestTrainStep:
    def test_golden_training_hash(self):
        # Pinned from the dense embedding gradient and dense momentum
        # update that the compact column gradient replaced: training must
        # stay bit-identical, checkpoint, velocities and gradients alike.
        assert golden_training_run() == (
            "0ac1917be7e0273dfdf0fdd01a5b2646a7aecd43bb28221a569c1c812d39c031")

    def test_only_leaves_keep_a_gradient(self, monkeypatch):
        model, ds = tiny_setup()
        inst = ds.instances[0]
        losses = []
        backward = Tensor.backward

        def keep(loss):
            losses.append(loss)
            backward(loss)

        monkeypatch.setattr(Tensor, "backward", keep)
        opt_net = MomentumSgd(model.network_parameters(), 0.1, 0.9)
        opt_emb = MomentumSgd(model.embedding_parameters(), 0.1, 0.9)
        train_step(model, inst, 0, 1.0, opt_net, opt_emb, dropout_mask(6 * model.d, 0.2, Rng(3)))
        tape = topo_order(losses[0])
        ops = [t for t in tape if t._vjp is not None]
        leaves = [t for t in tape if t._vjp is None]
        assert ops and all(t.grad is None for t in ops)
        assert {id(t) for t in leaves} == {id(p) for p in model.parameters()}
        assert all(t.grad is not None for t in leaves)

    def test_nan_in_touched_embedding_column_diverges(self, monkeypatch):
        model, ds = tiny_setup()
        inst = ds.instances[0]
        emb = model.embeddings.weights
        col = model.vocab.index(inst.arg2[-1])
        backward = Tensor.backward

        def poisoned(loss):
            backward(loss)
            assert col in emb.grad_columns
            emb.grad[1, col] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        opt_net = MomentumSgd(model.network_parameters(), 0.1, 0.9)
        opt_emb = MomentumSgd(model.embedding_parameters(), 0.1, 0.9)
        before = emb.data.copy()
        with pytest.raises(TrainingDiverged, match="non-finite gradient in embeddings$"):
            train_step(model, inst, 0, 1.0, opt_net, opt_emb, None)
        np.testing.assert_array_equal(emb.data, before)

    @pytest.mark.parametrize("name", ["enc2.backward.b_f", "level1.arg1.w_b", "classifier.w_p"])
    def test_nan_in_network_gradient_names_the_row(self, monkeypatch, name):
        model, ds = tiny_setup()
        target = dict(zip((spec.name for spec in model.table), model.parameters()))[name]
        backward = Tensor.backward

        def poisoned(loss):
            backward(loss)
            target.grad[0, 0] = np.inf

        monkeypatch.setattr(Tensor, "backward", poisoned)
        opt_net = MomentumSgd(model.network_parameters(), 0.1, 0.9)
        opt_emb = MomentumSgd(model.embedding_parameters(), 0.1, 0.9)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(TrainingDiverged, match=f"non-finite gradient in {name}$"):
            train_step(model, ds.instances[0], 0, 1.0, opt_net, opt_emb, None)
        for p, kept in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, kept)


class TestDropoutMask:
    def test_zero_rate_gives_identity(self):
        mask = dropout_mask(8, 0.0, Rng(1))
        np.testing.assert_array_equal(mask.data, np.ones((8, 1)))

    def test_support(self):
        mask = dropout_mask(1000, 0.3, Rng(2)).data.reshape(-1)
        keep = 1.0 / 0.7
        assert set(np.unique(mask)) <= {0.0, keep}

    def test_monte_carlo_zero_fraction(self):
        rng = Rng(3)
        zeros = 0
        draws = 100_000
        mask = dropout_mask(draws, 0.1, rng).data
        zeros = int(np.count_nonzero(mask == 0.0))
        assert abs(zeros / draws - 0.1) < 0.01

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            dropout_mask(4, 1.0, Rng(1))
        with pytest.raises(ValueError):
            dropout_mask(4, -0.2, Rng(1))

    def test_deterministic_under_seed(self):
        a = dropout_mask(64, 0.25, Rng(9))
        b = dropout_mask(64, 0.25, Rng(9))
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.5])
    def test_matches_per_entry_draws(self, q):
        # Reference: one uniform01() draw per entry, zero below q.
        fast, slow = Rng(31), Rng(31)
        mask = dropout_mask(300, q, fast).data
        want = [[0.0] if slow.uniform01() < q else [1.0 / (1.0 - q)] for _ in range(300)]
        assert mask.shape == (300, 1)
        assert np.array_equal(mask, np.array(want))
        assert fast.next_u64() == slow.next_u64()


def binary_dataset(pos, neg):
    instances = [Instance("Target", ["a"], ["b"]) for _ in range(pos)]
    instances += [Instance("Other", ["c"], ["d"]) for _ in range(neg)]
    return Dataset(instances)


class TestReweight:
    def test_balanced_binary_is_unweighted(self):
        ds = binary_dataset(50, 50)
        assert reweight(ds, TaskSpec("binary", "Target")) == [1.0] * 100

    def test_unbalanced_binary_closed_form(self):
        ds = binary_dataset(20, 80)
        weights = reweight(ds, TaskSpec("binary", "Target"))
        assert weights[:20] == [2.5] * 20
        assert weights[20:] == [0.625] * 80
        assert sum(weights[:20]) == sum(weights[20:])

    def test_weights_sum_to_instance_count(self):
        # N/(C*N_c) weights are thirds here, so the float sum can only
        # match N to rounding, not bitwise.
        ds = binary_dataset(30, 70)
        assert sum(reweight(ds, TaskSpec("binary", "Target"))) == pytest.approx(
            100.0, abs=1e-9)

    def test_four_way_is_unweighted(self):
        ds = synth_generate(4, 20, vocab_size=12)
        assert reweight(ds, TaskSpec("four_way")) == [1.0] * 20

    def test_single_class_rejected(self):
        ds = binary_dataset(10, 0)
        with pytest.raises(ValueError):
            reweight(ds, TaskSpec("binary", "Target"))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            reweight(Dataset([]), TaskSpec("four_way"))


class TestFit:
    def test_zero_patience_runs_exactly_one_epoch(self):
        model, ds = tiny_setup()
        report = fit(model, ds, ds, tiny_hp(patience=0, max_epochs=50))
        assert len(report.epochs) == 1

    def test_respects_max_epochs(self):
        model, ds = tiny_setup()
        report = fit(model, ds, ds, tiny_hp(max_epochs=3, patience=10))
        assert len(report.epochs) == 3
        assert not report.stopped_early

    def test_loss_trajectory_bitwise_reproducible(self):
        losses = []
        for _ in range(2):
            model, ds = tiny_setup(seed=7)
            report = fit(model, ds, ds, tiny_hp(max_epochs=3, dropout=0.1, seed=7))
            losses.append([e.train_loss for e in report.epochs])
        assert losses[0] == losses[1]

    def test_model_ends_at_best_dev_parameters(self):
        model, ds = tiny_setup(seed=8)
        report = fit(model, ds, ds, tiny_hp(max_epochs=4))
        assert evaluate(model, ds).macro_f1 == report.best_dev_f1
        assert report.best_epoch >= 1

    def test_training_reduces_loss(self):
        ds = synth_generate(9, 24, vocab_size=12, len_range=(3, 5))
        vocab = Vocabulary.from_instances(ds.instances)
        model = NnmaModel.create(vocab, ds.label_inventory(), d_e=6, d=6,
                                 d_m=8, k=1, rng=Rng(9))
        hp = tiny_hp(d=6, d_m=8, d_e=6, max_epochs=12, patience=100, seed=9)
        report = fit(model, ds, ds, hp)
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss

    def test_non_finite_loss_aborts_with_location(self):
        model, ds = tiny_setup(seed=10)
        model.embeddings.weights.data[:] = np.nan
        with pytest.raises(TrainingDiverged, match=r"epoch 1, instance \d+"):
            fit(model, ds, ds, tiny_hp())

    def test_non_finite_gradient_names_epoch_instance_and_row(self, monkeypatch):
        model, ds = tiny_setup(seed=10)
        w_m = model.levels[0].w_m
        backward = Tensor.backward

        def poisoned(loss):
            backward(loss)
            w_m.grad[0, 0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(TrainingDiverged,
                           match=r"^epoch 1, instance \d+: non-finite gradient in level1\.w_m$"):
            fit(model, ds, ds, tiny_hp())

    def test_weight_count_mismatch_rejected(self):
        model, ds = tiny_setup()
        with pytest.raises(ValueError):
            fit(model, ds, ds, tiny_hp(), weights=[1.0])

    def test_empty_dataset_rejected(self):
        model, ds = tiny_setup()
        with pytest.raises(ValueError):
            fit(model, Dataset([]), ds, tiny_hp())

    def test_log_callback_sees_every_epoch(self):
        model, ds = tiny_setup(seed=11)
        lines = []
        fit(model, ds, ds, tiny_hp(max_epochs=2), log=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("epoch 1 ")

    def test_weighted_instances_change_training(self):
        # Doubling every weight doubles each step's gradient, so the
        # parameter trajectory (and hence the mean loss) must diverge.
        model_a, ds = tiny_setup(seed=12)
        report_a = fit(model_a, ds, ds, tiny_hp(max_epochs=1))
        model_b, _ = tiny_setup(seed=12)
        heavier = [2.0] * len(ds)
        report_b = fit(model_b, ds, ds, tiny_hp(max_epochs=1), weights=heavier)
        assert report_b.epochs[0].train_loss != report_a.epochs[0].train_loss

    def test_early_stopping_flag(self):
        model, ds = tiny_setup(seed=13)
        report = fit(model, ds, ds, tiny_hp(max_epochs=40, patience=1))
        if report.stopped_early:
            assert len(report.epochs) < 40
