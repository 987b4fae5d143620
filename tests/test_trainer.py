import hashlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

import per_op
from nnma.corpus import Dataset, Instance, TaskSpec, synth_generate
from nnma.embeddings import Vocabulary
from nnma.metrics import evaluate
from nnma.model import NnmaModel
from nnma.rng import Rng
from nnma.tensor import FlatParams, Tensor, select_columns, topo_order
from nnma import attention, model as model_module, recurrent, trainer as trainer_module
from nnma.trainer import (
    MASK_CHUNK_WORDS,
    SWEEP_WORDS,
    Hyperparams,
    MomentumSgd,
    TrainingDiverged,
    dropout_mask,
    dropout_masks,
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
            cols = emb.compact_grad[0]
            assert cols is not None and len(cols) < emb.cols
            if assign == "set":
                emb.grad = np.ones_like(emb.data)
            else:
                emb.grad += 1.0
            assert emb.compact_grad[0] is None
            opt = MomentumSgd([emb], rate=0.1, momentum=0.0)
            before = emb.data.copy()
            opt.step()
            assert np.all(emb.data != before)

    @pytest.mark.parametrize("where", ["lone tensor", "network row"])
    def test_wrong_gradient_shape_names_both_shapes(self, where):
        # The gradient setter refuses an array of another shape, on a lone
        # tensor and on a network row's gradient view alike.
        if where == "lone tensor":
            params = [Tensor([[1.0], [2.0]], requires_grad=True)]
            p = params[0]
        else:
            model, _ = tiny_setup()
            params = model.network_parameters()
            p = model.levels[0].arg1.w_b
        opt = MomentumSgd(params, rate=0.1, momentum=0.9)
        wrong = (p.cols, p.rows + 1)
        before = [q.data.copy() for q in params]
        with pytest.raises(ValueError, match=re.escape(
                f"gradient shape {wrong} != parameter shape {p.shape}")):
            p.grad = np.ones(wrong)
            opt.step()
        for q, kept in zip(params, before):
            np.testing.assert_array_equal(q.data, kept)

    def test_several_tensors_outside_one_layout_are_refused(self):
        a = Tensor([[1.0]], requires_grad=True)
        b = Tensor([[2.0]], requires_grad=True)
        with pytest.raises(ValueError, match="FlatParams"):
            MomentumSgd([a, b], rate=0.1, momentum=0.9)
        model, _ = tiny_setup()
        with pytest.raises(ValueError, match="FlatParams"):
            MomentumSgd(model.network_parameters()[1:], rate=0.1, momentum=0.9)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def overfit_setup(seed):
    """A model at the acceptance overfit shape (d 16, d_m 32, d_e 50,
    k 2) and its synthetic corpus of 10-16 token arguments."""
    ds = synth_generate(seed, 40, vocab_size=32, len_range=(10, 16))
    model = NnmaModel.create(Vocabulary.from_instances(ds.instances), ds.label_inventory(),
                             d_e=50, d=16, d_m=32, k=2, rng=Rng(seed))
    return model, ds


class TestFlatGroup:
    """The network group as one buffer: every tensor, its gradient and
    its velocity at the table offset of one flat array each, stepped in
    one sweep, against ``per_op.MomentumSgd``'s per-tensor passes."""

    def test_tensors_sit_in_the_group_buffers_at_table_offsets(self):
        model, ds = tiny_setup(k=2)
        net = model.network_parameters()
        flat = FlatParams.of(net)
        assert flat is not None and flat.values is model.buffers()[1]
        opt = MomentumSgd(net, rate=0.1, momentum=0.9)
        model.loss(model.forward(ds.instances[0]), 0).backward()
        velocities = opt.velocities
        offset = 0
        for spec, p, v in zip(model.table[1:], net, velocities):
            assert p.shape == v.shape == spec.shape
            for array, buffer in ((p.data, flat.values), (p.grad, flat.grads),
                                  (v, velocities[0].base)):
                assert array.base is buffer and array.flags.c_contiguous
                assert array.ctypes.data == buffer.ctypes.data + 8 * offset
            offset += math.prod(spec.shape)
        assert offset == flat.values.size == flat.grads.size == velocities[0].base.size
        model.buffers()[1][:] = 7.0
        assert all(np.all(p.data == 7.0) for p in net)

    def test_unset_hand_set_and_added_gradients_reach_the_step(self):
        # Twin models, one stepped by the flat sweep and one by per-tensor
        # passes, get the same backward pass and the same edits by hand.
        rng = np.random.default_rng(3)
        sides = []
        for opt_class in (MomentumSgd, per_op.MomentumSgd):
            model, ds = tiny_setup(seed=4, k=2)
            opt = opt_class(model.network_parameters(), rate=0.5, momentum=0.9)
            sides.append((model, opt))
        start = [rng.uniform(-1, 1, p.shape) for p in sides[0][0].network_parameters()]
        for model, opt in sides:
            opt.velocities = [v.copy() for v in start]
        # (pass, edit, row): "zero only" drops every gradient and runs no
        # backward; "none" keeps the last step's gradients.
        plans = [("backward", "none", 3), ("backward", "set", 10), ("backward", "add", 20),
                 ("none", None, None), ("backward", "none", 0), ("backward", None, None),
                 ("zero only", None, None)]
        shapes = [p.shape for p in sides[0][0].network_parameters()]
        for pass_, edit, row in plans:
            by_hand = None if row is None else rng.uniform(-1, 1, shapes[row])
            for model, opt in sides:
                net = model.network_parameters()
                if pass_ != "none":
                    model.zero_grad()
                if pass_ == "backward":
                    model.loss(model.forward(ds.instances[0]), 0).backward()
                if edit == "none":
                    net[row].grad = None
                elif edit == "set":
                    net[row].grad = by_hand
                elif edit == "add":
                    net[row].grad += by_hand
                opt.step()
            (model, opt), (model_ref, opt_ref) = sides
            for p, p_ref, v, v_ref in zip(model.network_parameters(),
                                          model_ref.network_parameters(),
                                          opt.velocities, opt_ref.velocities):
                assert same_bits(p.data, p_ref.data), (pass_, edit)
                assert same_bits(v, v_ref), (pass_, edit)
                assert (p.grad is None) == (p_ref.grad is None)
                if p.grad is not None:
                    assert same_bits(p.grad, p_ref.grad)

    def test_overfit_steps_match_the_per_tensor_step_bytewise(self):
        # 200 train steps with dropout at the overfit shape: parameters,
        # velocities and gradients stay byte-equal to a twin model whose
        # two groups are stepped tensor by tensor in three passes.
        sides = []
        for opt_class in (MomentumSgd, per_op.MomentumSgd):
            model, ds = overfit_setup(seed=21)
            sides.append((model, opt_class(model.network_parameters(), 0.01, 0.9),
                          opt_class(model.embedding_parameters(), 0.002, 0.9)))
        (model, opt_net, opt_emb), (twin, ref_net, ref_emb) = sides
        rng = Rng(22)
        for step in range(200):
            inst = ds.instances[rng.below(len(ds))]
            gold = model.label_index(inst.label)
            mask = dropout_mask(6 * model.d, 0.1, rng)
            value = train_step(model, inst, gold, 1.0, opt_net, opt_emb, mask)
            twin.zero_grad()
            loss = twin.loss(twin.forward(inst, mask), gold, 1.0)
            loss.backward()
            ref_net.step()
            ref_emb.step()
            assert value == loss.item(), step
            for p, p_ref in zip(model.parameters(), twin.parameters()):
                assert same_bits(p.data, p_ref.data), step
                assert same_bits(p.grad, p_ref.grad), step
            for v, v_ref in zip(opt_net.velocities + opt_emb.velocities,
                                ref_net.velocities + ref_emb.velocities):
                assert same_bits(v, v_ref), step

    def test_network_step_allocates_no_gathered_copy(self):
        # One step over the paper-size network group (d 50, d_m 200) must
        # not gather the group into a new array of 8 n bytes.
        model = NnmaModel.create(Vocabulary(["a", "b"]), ["A", "B"], d_e=50, d=50, d_m=200,
                                 k=2, rng=Rng(8))
        net = model.network_parameters()
        n = sum(p.data.size for p in net)
        opt_net = MomentumSgd(net, 0.01, 0.9)
        model.loss(model.forward(Instance("A", ["a", "b"], ["b"])), 0).backward()
        opt_net.step()
        tracemalloc.start()
        try:
            opt_net.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n


class TestInPlaceGradients:
    """The fused operations compute their parameter gradients straight
    into the flat gradient buffer while none of their parameters has a
    gradient yet. Every case must give the bits of a twin model whose
    operations return their products to ``Tensor.backward`` instead
    (``claim_runs`` patched to refuse), the copy-or-add path."""

    HAND_SET = ("enc2.backward.W", "level1.arg1.w_s", "classifier.b_p")

    def gradients(self, case, by_hand):
        model, ds = tiny_setup(seed=6, k=2)
        names = [spec.name for spec in model.table]
        params = model.parameters()
        first = model.loss(model.forward(ds.instances[0]), 1, weight=1.5)
        if case == "hand-set":
            # One parameter of each operation already has a gradient.
            for name in self.HAND_SET:
                params[names.index(name)].grad = by_hand[name]
            first.backward()
        elif case == "twice":
            first.backward()
            first.backward()
            model.loss(model.forward(ds.instances[1]), 2).backward()
        elif case == "negative zero":
            model.loss(model.forward(ds.instances[0]), 1, weight=-0.0).backward()
        return {name: p.grad.copy() for name, p in zip(names, params)}

    @pytest.mark.parametrize("case", ["hand-set", "twice", "negative zero"])
    def test_same_bits_as_returned_products(self, case, monkeypatch):
        rng = np.random.default_rng(12)
        model, _ = tiny_setup(seed=6, k=2)
        shapes = {spec.name: spec.shape for spec in model.table}
        by_hand = {name: rng.uniform(-1, 1, shapes[name]) for name in self.HAND_SET}
        written = self.gradients(case, by_hand)
        for module in (recurrent, attention, model_module):
            monkeypatch.setattr(module, "claim_runs", lambda leaves: False)
        returned = self.gradients(case, by_hand)
        assert written.keys() == returned.keys()
        for name in written:
            assert same_bits(written[name], returned[name]), name
        if case == "negative zero":
            # An all-zero adjoint. Its products are sums that start from
            # +0.0, so the signs come out the same on both paths; the
            # signs of elementwise products are checked in
            # test_tensor.py::test_claimed_runs_keep_the_copy_paths_bits.
            assert not any(g.any() for g in written.values())

    def test_a_backward_pass_makes_no_per_parameter_gradient_arrays(self):
        # At the paper shape (d 50, d_m 200) and 30-word arguments the
        # network's gradients are 2.9 MB. When each parameter got a fresh
        # array for backward to copy in, a backward pass peaked at 4.02 MB
        # of new memory; written into the buffer it peaks at 1.15 MB.
        rng = Rng(9)
        vocab = Vocabulary([f"w{i}" for i in range(200)])
        model = NnmaModel.create(vocab, ["A", "B", "C", "D"], d_e=50, d=50, d_m=200, k=2,
                                 rng=rng)
        inst = Instance("B", [f"w{rng.below(200)}" for _ in range(30)],
                        [f"w{rng.below(200)}" for _ in range(28)])
        loss = model.loss(model.forward(inst), 1)
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        net = model.network_parameters()
        assert all(p._grad is p._grad_view for p in net)


class TestCompactMomentum:
    """Lookups with a compact gradient and the step that reads it (the
    used columns from their old values, one sweep over the matrix in
    blocks of rows) against lookups with a dense backward and the three
    whole-array passes of ``per_op.MomentumSgd``."""

    V = 20001  # 50 x V rows: several sweep blocks, the last one shorter

    def lookup_loss(self, select, E, lookups, dense=None):
        """Sum of each lookup weighted entrywise, plus sum(E * dense)."""
        total = None
        for idx, w in lookups:
            term = per_op.sum_all(per_op.hadamard(select(E, idx), Tensor(w)))
            total = term if total is None else per_op.add(total, term)
        if dense is not None:
            total = per_op.add(total, per_op.sum_all(per_op.hadamard(E, Tensor(dense))))
        return total

    def test_matrix_spans_several_sweep_blocks(self):
        rows_per_block = max(1, SWEEP_WORDS // self.V)
        assert 50 // rows_per_block > 2 and 50 % rows_per_block  # the last one shorter

    def test_sweep_is_the_three_pass_step_bytewise(self):
        rng = np.random.default_rng(5)
        start = rng.uniform(-0.05, 0.05, (50, self.V))
        sides = []
        for select, opt_class in ((select_columns, MomentumSgd),
                                  (per_op.select_columns, per_op.MomentumSgd)):
            E = Tensor(start, requires_grad=True)
            opt = opt_class([E], rate=0.5, momentum=0.9)
            # -0.0 minus a gradient of +0.0 stays -0.0 and minus -0.0 is
            # +0.0, so a block that kept a part's -0.0 would show here.
            opt.velocities[0][...] = -0.0
            sides.append((select, E, opt))
        for step in range(240):
            kind = step % 40
            # Mostly two lookups, as an instance's two arguments, some one
            # or three; each shares a run of words with the one before, so
            # parts overlap and the order of their sums shows.
            idxs = [rng.integers(0, self.V, n) for n in rng.integers(1, 40, size=1 + step % 3)]
            for prev, idx in zip(idxs, idxs[1:]):
                shared = rng.integers(0, min(len(prev), len(idx)) + 1)
                idx[:shared] = prev[:shared]
            lookups = []
            for idx in idxs:
                # Spread magnitudes: sums of three alike ones rarely round
                # differently in another order.
                shape = (50, len(idx))
                w = rng.uniform(-1, 1, shape) * np.exp2(rng.integers(-20, 20, shape))
                w[rng.random(shape) < 0.1] = -0.0
                w[rng.random(shape) < 0.05] = 0.0
                lookups.append((idx.tolist(), w))
            dense = rng.uniform(-1, 1, (50, self.V)) if kind == 7 else None
            by_hand = rng.uniform(-1, 1, (50, self.V)) if kind == 19 else None
            for select, E, opt in sides:
                E.zero_grad()
                if kind != 31:  # no backward: the gradient is unset
                    loss = self.lookup_loss(select, E, lookups, dense)
                    loss.backward()
                    if kind == 11:  # accumulated over two backward passes
                        loss.backward()
                    if by_hand is not None:
                        E.grad += by_hand
                    if kind == 23:  # the dense gradient read, nothing else
                        assert E.grad is not None
                opt.step()
            (_, E, opt), (_, E_ref, opt_ref) = sides
            assert same_bits(E.data, E_ref.data), step
            assert same_bits(opt.velocities[0], opt_ref.velocities[0]), step
            if dense is None and by_hand is None and kind not in (11, 23, 31):
                assert E.compact_grad[0].tolist() == sorted({c for idx, _ in lookups
                                                             for c in idx})
            else:
                assert E.compact_grad[0] is None
            if kind == 31:
                assert E.grad is None and E_ref.grad is None
            else:
                assert same_bits(E.grad, E_ref.grad), step

    def test_paper_size_step_allocates_no_dense_embedding_array(self):
        # A train step at V 20001 must not build a 50 x V array: no dense
        # gradient, no whole-matrix temporary in the optimizer.
        d_e, V = 50, self.V
        rng = Rng(7)
        model = NnmaModel.create(Vocabulary([f"w{i}" for i in range(V - 1)]), ["A", "B"],
                                 d_e=d_e, d=8, d_m=16, k=2, rng=rng)
        opt_net = MomentumSgd(model.network_parameters(), 0.01, 0.9)
        opt_emb = MomentumSgd(model.embedding_parameters(), 0.002, 0.9)
        emb = model.embeddings.weights
        words = [[f"w{rng.below(V - 1)}" for _ in range(30)] for _ in range(6)]
        before = emb.data.copy()
        tracemalloc.start()
        try:
            for n in range(3):
                inst = Instance("AB"[n % 2], words[2 * n], words[2 * n + 1])
                train_step(model, inst, n % 2, 1.0, opt_net, opt_emb,
                           dropout_mask(6 * model.d, 0.1, rng))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d_e * V * 8
        moved = np.flatnonzero(np.any(emb.data != before, axis=0))
        assert 0 < len(moved) < V
        assert len(emb.compact_grad[0]) > 0


def golden_training(steps):
    """A model and both optimizers after ``steps`` train steps with
    dropout, at V 3000. Each argument draws from a small per-instance
    pool plus a shared word and an unknown one, so words repeat within
    and across arguments."""
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
    return model, opt_net, opt_emb


def golden_training_run(steps=60):
    """sha256 over the checkpoint bytes, both optimizers' velocities and
    every ``.grad`` after ``golden_training(steps)``."""
    model, opt_net, opt_emb = golden_training(steps)
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
        # Pins the bits of today's training, checkpoint, velocities and
        # gradients alike: the compact column gradient and the blocked
        # momentum sweep, with each attention read's W_b M computed once
        # per instance. The next test holds that product close to the
        # per-word one it replaced.
        assert golden_training_run() == (
            "eaf8530af348b3c6f2ea22797e8777a98adb1e8b7148a5a72d6b67a2e965068d")

    def test_training_stays_near_the_repeated_memory_graph(self, monkeypatch):
        # 300 steps with W_b M once per instance against the same steps
        # through the per-product graph that multiplies W_b by the memory
        # repeated across every word: both parameter buffers agree within
        # 1e-13 of their largest entry.
        got = [b.copy() for b in golden_training(300)[0].buffers()]
        stacks = []

        def repeated(*args, **kwargs):
            stacks.append(args)
            return per_op.run_stack(*args, **kwargs, read=per_op.attend_repeated)

        monkeypatch.setattr(model_module, "run_stack", repeated)
        want = golden_training(300)[0].buffers()
        assert len(stacks) == 300 and len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

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
            assert col in emb.compact_grad[0]
            emb.grad[1, col] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        opt_net = MomentumSgd(model.network_parameters(), 0.1, 0.9)
        opt_emb = MomentumSgd(model.embedding_parameters(), 0.1, 0.9)
        before = emb.data.copy()
        with pytest.raises(TrainingDiverged, match="non-finite gradient in embeddings$"):
            train_step(model, inst, 0, 1.0, opt_net, opt_emb, None)
        np.testing.assert_array_equal(emb.data, before)

    @pytest.mark.parametrize("name", ["enc2.backward.b", "level1.arg1.w_b", "classifier.w_p"])
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

    @pytest.mark.parametrize("chunk_words", [MASK_CHUNK_WORDS, 9000, 256])
    @pytest.mark.parametrize("count", [1, 70])
    def test_epoch_masks_are_the_per_step_masks(self, chunk_words, count, monkeypatch):
        # 70 masks of 300 entries: one lane draw, two lane draws and a
        # scalar one, or 85 scalar draws of 256 words or less.
        monkeypatch.setattr(trainer_module, "MASK_CHUNK_WORDS", chunk_words)
        chunked, single = Rng(41), Rng(41)
        masks = list(dropout_masks(count, 300, 0.1, chunked))
        assert len(masks) == count
        for mask in masks:
            assert same_bits(mask.data, dropout_mask(300, 0.1, single).data)
        assert chunked._s == single._s

    def test_epoch_masks_reject_an_invalid_rate(self):
        with pytest.raises(ValueError):
            next(dropout_masks(3, 4, 1.0, Rng(1)))


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

    def test_model_ends_at_the_best_epochs_bytes(self):
        # The best-dev snapshot and the final restore cover both groups.
        model, ds = tiny_setup(seed=14)
        after_epoch = []
        report = fit(model, ds, ds, tiny_hp(max_epochs=6),
                     log=lambda line: after_epoch.append([b.copy() for b in model.buffers()]))
        assert report.best_epoch < len(report.epochs)
        for buffer, best in zip(model.buffers(), after_epoch[report.best_epoch - 1]):
            assert same_bits(buffer, best)
        assert not all(np.array_equal(a, b)
                       for a, b in zip(after_epoch[-1], after_epoch[report.best_epoch - 1]))

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
