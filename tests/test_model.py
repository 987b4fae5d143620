import contextlib
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnma.cli import main
from nnma import rng as R
from nnma.embeddings import EmbeddingMatrix, Vocabulary
from nnma.model import CheckpointError, NnmaModel, ParamSpec, Prediction, parameter_table
from nnma.rng import Rng
from nnma.corpus import Instance, synth_generate
from nnma.tensor import Tensor, grad_check, topo_order
from per_op import softmax

LABELS = ["Comparison", "Contingency", "Expansion", "Temporal"]


def tiny_model(seed=1, k=2, labels=None):
    vocab = Vocabulary([f"t{i}" for i in range(6)])
    return NnmaModel.create(vocab, labels or LABELS, d_e=2, d=2, d_m=3,
                            k=k, rng=Rng(seed))


def tiny_instance():
    return Instance("Expansion", ["t0", "t1", "t2"], ["t3", "t4"])


class TestForward:
    def test_zero_classifier_gives_uniform_distribution(self):
        model = tiny_model()
        model.w_p.data[:] = 0.0
        model.b_p.data[:] = 0.0
        pred = model.forward(tiny_instance())
        np.testing.assert_array_equal(pred.probabilities.data, np.full((4, 1), 0.25))

    def test_ones_mask_is_identity(self):
        model = tiny_model()
        plain = model.forward(tiny_instance())
        masked = model.forward(tiny_instance(), dropout_mask=Tensor(np.ones((12, 1))))
        np.testing.assert_array_equal(plain.probabilities.data,
                                      masked.probabilities.data)

    def test_distribution_properties(self):
        model = tiny_model(seed=3)
        pred = model.forward(tiny_instance())
        assert np.all(pred.probabilities.data >= 0.0)
        assert abs(pred.probabilities.data.sum() - 1.0) <= 1e-9

    def test_argmax_stable_under_logit_shift(self):
        model = tiny_model(seed=4)
        before = model.forward(tiny_instance()).predicted[0]
        model.b_p.data += 17.5
        after = model.forward(tiny_instance()).predicted[0]
        assert before == after

    def test_evaluation_deterministic(self):
        model = tiny_model(seed=5)
        a = model.forward(tiny_instance())
        b = model.forward(tiny_instance())
        np.testing.assert_array_equal(a.probabilities.data, b.probabilities.data)

    def test_trace_has_all_levels(self):
        model = tiny_model(seed=6, k=3)
        pred = model.forward(tiny_instance())
        assert len(pred.trace.levels) == 3
        assert pred.trace.levels[0].a1.rows == 3
        assert pred.trace.levels[0].a2.rows == 2

    def test_unknown_tokens_handled(self):
        model = tiny_model(seed=7)
        pred = model.forward(Instance("Temporal", ["zzz"], ["qqq", "t1"]))
        assert abs(pred.probabilities.data.sum() - 1.0) <= 1e-9

    def test_end_to_end_gradient_check(self):
        model = tiny_model(seed=8)
        inst = tiny_instance()

        def loss():
            return model.loss(model.forward(inst), gold=1)

        assert grad_check(loss, model.parameters()) < 1e-4


def fixed_logits_prediction(logits_data):
    """Prediction stand-in carrying hand-picked logits."""
    t = Tensor(logits_data)
    return Prediction(softmax(t), [int(np.argmax(t.data))], None, t)


class TestLoss:
    def test_certain_prediction_has_zero_loss(self):
        # A 40-logit margin puts all softmax mass on the gold class to
        # the last bit of a double, so the loss underflows to exact 0.
        model = tiny_model()
        pred = fixed_logits_prediction([[40.0], [0.0], [0.0], [0.0]])
        assert pred.probabilities.data[0, 0] == 1.0
        assert model.loss(pred, gold=0).item() == 0.0

    def test_uniform_distribution_loss_is_log_n(self):
        model = tiny_model()
        loss = model.loss(fixed_logits_prediction(np.zeros((4, 1))), gold=2)
        assert loss.item() == math.log(4.0)
        assert loss.item() == 1.3862943611198906

    def test_weight_doubles_loss_and_gradients(self):
        model = tiny_model(seed=9)
        inst = tiny_instance()

        single = model.loss(model.forward(inst), gold=1, weight=1.0)
        single.backward()
        grads_single = [p.grad.copy() for p in model.parameters()]

        model.zero_grad()
        double = model.loss(model.forward(inst), gold=1, weight=2.0)
        double.backward()

        assert double.item() == 2.0 * single.item()
        for p, g1 in zip(model.parameters(), grads_single):
            np.testing.assert_array_equal(p.grad, 2.0 * g1)

    def test_gold_out_of_range_rejected(self):
        model = tiny_model()
        pred = model.forward(tiny_instance())
        with pytest.raises(IndexError):
            model.loss(pred, gold=4)

    def test_negative_weight_rejected(self):
        model = tiny_model()
        pred = model.forward(tiny_instance())
        with pytest.raises(ValueError):
            model.loss(pred, gold=0, weight=-1.0)


class TestParameterGroups:
    def test_counts(self):
        model = tiny_model(k=2)
        assert len(model.embedding_parameters()) == 1
        # two encoders x two directions x (stacked W, b), 7 per level x 2,
        # classifier pair
        assert len(model.network_parameters()) == 8 + 14 + 2
        assert len(model.parameters()) == 25

    def test_embedding_group_is_disjoint(self):
        model = tiny_model()
        net = set(map(id, model.network_parameters()))
        emb = set(map(id, model.embedding_parameters()))
        assert not net & emb

    def test_zero_grad_clears_everything(self):
        model = tiny_model()
        model.loss(model.forward(tiny_instance()), gold=0).backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestCheckpoint:
    def test_round_trip_bitwise(self):
        model = tiny_model(seed=10, k=3)
        buf = io.BytesIO()
        model.save(buf)
        buf.seek(0)
        loaded = NnmaModel.load(buf)
        assert loaded.label_names == model.label_names
        assert loaded.vocab.tokens == model.vocab.tokens
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_loaded_model_predicts_identically(self):
        model = tiny_model(seed=11)
        model.w_p.data += 0.25  # drift away from the freshly created state
        buf = io.BytesIO()
        model.save(buf)
        buf.seek(0)
        loaded = NnmaModel.load(buf)
        a = model.forward(tiny_instance())
        b = loaded.forward(tiny_instance())
        np.testing.assert_array_equal(a.probabilities.data, b.probabilities.data)

    def test_save_is_byte_deterministic(self):
        model = tiny_model(seed=12)
        one, two = io.BytesIO(), io.BytesIO()
        model.save(one)
        model.save(two)
        assert one.getvalue() == two.getvalue()

    def test_corrupted_magic_rejected(self):
        model = tiny_model()
        buf = io.BytesIO()
        model.save(buf)
        blob = bytearray(buf.getvalue())
        blob[0:4] = b"XXXX"
        with pytest.raises(CheckpointError, match="magic"):
            NnmaModel.load(io.BytesIO(bytes(blob)))

    def test_unsupported_version_rejected(self):
        model = tiny_model()
        buf = io.BytesIO()
        model.save(buf)
        blob = bytearray(buf.getvalue())
        blob[4] = 99
        with pytest.raises(CheckpointError, match="version"):
            NnmaModel.load(io.BytesIO(bytes(blob)))

    def test_truncated_payload_rejected(self):
        model = tiny_model()
        buf = io.BytesIO()
        model.save(buf)
        blob = buf.getvalue()[:-16]
        with pytest.raises(CheckpointError, match="truncated"):
            NnmaModel.load(io.BytesIO(blob))

    def test_trailing_bytes_rejected(self):
        model = tiny_model()
        buf = io.BytesIO()
        model.save(buf)
        with pytest.raises(CheckpointError, match="trailing"):
            NnmaModel.load(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_path_round_trip(self, tmp_path):
        model = tiny_model(seed=13)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = NnmaModel.load(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)


def with_header(model, payload_cut=0, **changes):
    """A saved checkpoint whose JSON header has ``changes`` applied and
    whose payload is shortened by ``payload_cut`` bytes."""
    buf = io.BytesIO()
    model.save(buf)
    blob = buf.getvalue()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + header_len])
    header.update(changes)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = blob[16 + header_len:]
    return io.BytesIO(blob[:8] + len(text).to_bytes(8, "little") + text
                      + payload[:len(payload) - payload_cut])


class TestHeaderValidation:
    @pytest.mark.parametrize("changes, match", [
        ({"k": 0}, "header k"),
        ({"d": -1}, "header d "),
        ({"d": "1"}, "header d "),
        ({"d_m": 2.0}, "header d_m"),
        ({"v": True}, "header v"),
        ({"n": 1, "labels": ["Comparison"]}, "header n"),
        ({"labels": ["Comparison", "Comparison", "Expansion", "Temporal"]},
         "not distinct"),
        ({"labels": ["Comparison", 1, "Expansion", "Temporal"]}, "labels"),
        ({"vocab": ["<unk>", "t0", "t0", "t2", "t3", "t4", "t5"]}, "vocab"),
        ({"d": 10**9}, "truncated"),
        ({"k": 10**15}, "truncated"),  # stops at the first row past the payload
    ])
    def test_rejected_before_allocation(self, changes, match):
        with pytest.raises(CheckpointError, match=match):
            NnmaModel.load(with_header(tiny_model(), **changes))

    @pytest.mark.parametrize("header_len", [2 ** 62, 10 ** 9, 2 ** 64 - 1])
    def test_header_length_past_the_end_rejected(self, header_len):
        buf = io.BytesIO()
        tiny_model().save(buf)
        blob = buf.getvalue()
        bad = blob[:8] + header_len.to_bytes(8, "little") + blob[16:]
        with pytest.raises(CheckpointError, match="header length"):
            NnmaModel.load(io.BytesIO(bad))

    def test_non_object_header_rejected(self):
        text = b"[]"
        blob = b"NNMA" + (1).to_bytes(4, "little") + len(text).to_bytes(8, "little") + text
        with pytest.raises(CheckpointError, match="missing fields"):
            NnmaModel.load(io.BytesIO(blob))

    def test_short_payload_rejected(self):
        with pytest.raises(CheckpointError, match="truncated"):
            NnmaModel.load(with_header(tiny_model(), payload_cut=8))

    def test_unchanged_header_loads(self):
        model = tiny_model(seed=14)
        loaded = NnmaModel.load(with_header(model))
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory, the bytes of a small valid checkpoint, and a TSV whose
    words and labels the checkpoint knows."""
    root = tmp_path_factory.mktemp("fuzz")
    buf = io.BytesIO()
    tiny_model(seed=15).save(buf)
    tsv = root / "test.tsv"
    tsv.write_text("Expansion\tt0 t1 t2\tt3 t4\nTemporal\tt5 t1\tt0\n")
    return root, buf.getvalue(), tsv


class TestCheckpointFuzz:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_loads_or_exits_2(self, fuzz_inputs, data):
        # Flip, cut and extend bytes of a valid checkpoint: the reader
        # either loads it or raises CheckpointError, and ``nnma eval``
        # exits 2 with an error line for every input the reader refuses.
        root, blob, tsv = fuzz_inputs
        header_end = 16 + int.from_bytes(blob[8:16], "little")
        mutated = bytearray(blob)
        kinds = st.sampled_from(["flip", "flip in header", "cut", "extend"])
        for kind in data.draw(st.lists(kinds, min_size=1, max_size=3)):
            if kind.startswith("flip") and mutated:
                end = min(header_end if kind == "flip in header" else len(mutated), len(mutated))
                mutated[data.draw(st.integers(0, end - 1))] ^= data.draw(st.integers(1, 255))
            elif kind == "cut":
                del mutated[data.draw(st.integers(0, len(mutated))):]
            elif kind == "extend":
                mutated += data.draw(st.binary(min_size=1, max_size=16))
        try:
            NnmaModel.load(io.BytesIO(bytes(mutated)))
            refused = False
        except CheckpointError:
            refused = True
        path = root / "mutated.ckpt"
        path.write_bytes(bytes(mutated))
        err = io.StringIO()
        # A flipped payload byte can load as a huge finite weight, whose
        # forward pass overflows; numpy's warnings about it are not checked.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = main(["eval", "--model", str(path), "--data", str(tsv), "--task", "four",
                         "--out", str(root / "report.txt")])
        assert code == 2 if refused else code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error:")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", ["embeddings", "level1.arg1.w_b"])
    def test_non_finite_payload_is_refused(self, fuzz_inputs, tmp_path, row, value):
        # A NaN or infinite weight in either group is refused, naming the
        # first row that holds one (``classifier.b_p`` comes later), and
        # ``nnma eval`` exits 2 with an error line instead of scoring.
        root, _, tsv = fuzz_inputs
        model = tiny_model(seed=15)
        named = dict(zip((spec.name for spec in model.table), model.parameters()))
        named[row].data[-1, -1] = value
        named["classifier.b_p"].data[0, 0] = value
        path = tmp_path / "bad.ckpt"
        model.save(path)
        with pytest.raises(CheckpointError,
                           match=f"non-finite value in parameter {re.escape(row)}$"):
            NnmaModel.load(path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--model", str(path), "--data", str(tsv), "--task", "four",
                         "--out", str(tmp_path / "report.txt")])
        assert code == 2
        assert err.getvalue().startswith("error:") and row in err.getvalue()
        assert not (tmp_path / "report.txt").exists()


def test_golden_checkpoint_bytes():
    # Pins parameter init order and the payload byte layout: the digest
    # was taken from the code before the sequence LSTM was fused.
    vocab = Vocabulary([f"w{i}" for i in range(5)])
    model = NnmaModel.create(vocab, LABELS, d_e=3, d=3, d_m=4, k=2, rng=Rng(7))
    buf = io.BytesIO()
    model.save(buf)
    assert len(buf.getvalue()) == 6993
    assert hashlib.sha256(buf.getvalue()).hexdigest() == (
        "91c6492e95610588db308aa10428c99d26a949c32d5095d81b9a3b1a885dc88b")


@pytest.mark.parametrize("k, size, digest", [
    (1, 5233, "8e53c10160ac90cd3b498639cf3fa7021d8d07ab81bff5764a8baf1951aba487"),
    (3, 8753, "787ee029e131ffecd3aaad29ec8a620afe469a49e2e2412ba424978dc61e838b"),
])
def test_golden_checkpoint_bytes_at_other_depths(k, size, digest):
    # The same pin at one and three attention levels; the digests were
    # taken from the code before the parameter table existed, so they
    # prove its draw order at every depth.
    vocab = Vocabulary([f"w{i}" for i in range(5)])
    model = NnmaModel.create(vocab, LABELS, d_e=3, d=3, d_m=4, k=k, rng=Rng(7))
    buf = io.BytesIO()
    model.save(buf)
    assert len(buf.getvalue()) == size
    assert hashlib.sha256(buf.getvalue()).hexdigest() == digest


def per_row_values(table, rng):
    """Reference init of the network rows: one ``uniform_matrix`` per
    xavier or gates row in table order, each with its own bound."""
    values = []
    for spec in table[1:]:
        rows, cols = spec.shape
        if spec.init == "zeros":
            values.append(np.zeros(spec.shape))
            continue
        fan_out = rows // 4 if spec.init == "gates" else rows
        r = math.sqrt(6.0 / (fan_out + cols))
        values.append(rng.uniform_matrix(rows, cols, -r, r))
    return values


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d, d_m, d_e", [(2, 3, 4), (16, 32, 50)])
@pytest.mark.parametrize("own_embeddings", [False, True])
def test_create_equals_one_draw_per_row(k, d, d_m, d_e, own_embeddings):
    # (2, 3, 4) draws a network below the lane threshold, (16, 32, 50) one
    # above it; with ``own_embeddings`` the embedding matrix is passed in,
    # not drawn.
    network_words = sum(math.prod(spec.shape)
                        for spec in list(parameter_table(d_e, d, d_m, k, 4, 9))[1:]
                        if spec.init != "zeros")
    assert (network_words < R._LANE_MIN_WORDS) == (d == 2)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    rng, twin = Rng(41 + k), Rng(41 + k)
    embeddings = EmbeddingMatrix.random(vocab, d_e, Rng(5)) if own_embeddings else None
    model = NnmaModel.create(vocab, LABELS, d_e=d_e, d=d, d_m=d_m, k=k, rng=rng,
                             embeddings=embeddings)
    if embeddings is None:
        embeddings = EmbeddingMatrix.random(vocab, d_e, twin)
    want = [embeddings.weights.data] + per_row_values(model.table, twin)
    got = [p.data for p in model.parameters()]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert rng.next_u64() == twin.next_u64()


class TestParameterTable:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_table_drives_parameters_and_payload(self, k):
        model = tiny_model(seed=15, k=k)
        table = model.table
        assert table == list(parameter_table(d_e=2, d=2, d_m=3, k=k, n=4, v=7))
        names = [spec.name for spec in table]
        assert len(set(names)) == len(names) == 1 + 8 + 7 * k + 2
        params = model.parameters()
        assert [p.shape for p in params] == [spec.shape for spec in table]
        assert [spec for spec in table if spec.group == "embeddings"] == [
            ParamSpec("embeddings", (2, 7), "embedding")]
        assert model.embedding_parameters() == [model.embeddings.weights] == params[:1]
        assert [id(p) for p in model.network_parameters()] == [id(p) for p in params[1:]]
        buf = io.BytesIO()
        model.save(buf)
        header_len = int.from_bytes(buf.getvalue()[8:16], "little")
        payload = len(buf.getvalue()) - 16 - header_len
        assert payload == 8 * sum(rows * cols for rows, cols in (s.shape for s in table))

    def test_names_reach_the_model_fields(self):
        # Every encoder and level row is reached by its dotted name as an
        # attribute path, and every group on such a path (``enc1``,
        # ``enc1.forward``, ``level2.arg1``, ...) lists exactly its rows.
        for k in (1, 2, 3):
            model = tiny_model(k=k)
            tops = {"enc1": model.enc1, "enc2": model.enc2}
            tops.update((f"level{i}", level) for i, level in enumerate(model.levels, 1))
            rows = list(zip(model.table, model.parameters()))
            resolved = 0
            for spec, p in rows:
                parts = spec.name.split(".")
                if parts[0] not in tops:
                    continue
                node = tops[parts[0]]
                for j, part in enumerate(parts[1:], start=1):
                    prefix = ".".join(parts[:j]) + "."
                    assert [id(t) for t in node.tensors()] == [
                        id(q) for s, q in rows if s.name.startswith(prefix)], prefix
                    node = getattr(node, part)
                assert node is p, spec.name
                resolved += 1
            assert resolved == 8 + 7 * k
            assert model.embeddings.weights is rows[0][1]
            assert (model.w_p, model.b_p) == tuple(p for _, p in rows[-2:])

    def test_gradcheck_prints_the_table_groups(self, capsys):
        assert main(["gradcheck", "--dims", "d=2,d_m=2,d_e=2,k=3,len=2,vocab=5"]) == 0
        printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        groups = list(dict.fromkeys(spec.group for spec in
                                    parameter_table(d_e=2, d=2, d_m=2, k=3, n=4, v=5)))
        assert groups == ["embeddings", "enc1", "enc2", "level1", "level2", "level3",
                          "classifier"]
        assert printed == groups + ["max"]


def test_training_tape_size_at_overfit_shape():
    # Deterministic guard on per-instance autodiff overhead: one node
    # per encoder direction, not one graph per word.
    data = synth_generate(42, 20)
    inst = data.instances[0]
    model = NnmaModel.create(Vocabulary.from_instances(data.instances),
                             data.label_inventory(), d_e=50, d=16, d_m=32,
                             k=2, rng=Rng(42))
    loss = model.loss(model.forward(inst, Tensor(np.ones((96, 1)))),
                      model.label_index(inst.label))
    assert len(inst.arg1) >= 10
    assert len(topo_order(loss)) < 120


@pytest.mark.parametrize("k", [1, 2, 3])
def test_training_tape_is_eight_operations_and_the_parameters(k):
    # Each LSTM direction is two rows (stacked gate weights, stacked
    # biases) and the weighted loss is one operation, at every depth.
    data = synth_generate(42, 20)
    inst = data.instances[1]
    model = NnmaModel.create(Vocabulary.from_instances(data.instances),
                             data.label_inventory(), d_e=6, d=4, d_m=5, k=k, rng=Rng(k))
    assert len(model.parameters()) == 1 + 8 + 7 * k + 2
    loss = model.loss(model.forward(inst, Tensor(np.ones((24, 1)))),
                      model.label_index(inst.label), 0.5)
    assert len(topo_order(loss)) == 8 + len(model.parameters())


def test_training_tape_exact_at_overfit_shape():
    # Exact guard on the same instance: the four LSTM directions are one
    # recorded operation, read through two column blocks; the attention
    # stack is one operation over both levels and the classifier another.
    # 8 operations (two lookups, encoder, two blocks, stack, classifier,
    # weighted loss) and 25 parameters.
    data = synth_generate(42, 20)
    inst = data.instances[0]
    model = NnmaModel.create(Vocabulary.from_instances(data.instances),
                             data.label_inventory(), d_e=50, d=16, d_m=32,
                             k=2, rng=Rng(42))
    loss = model.loss(model.forward(inst, Tensor(np.ones((96, 1)))),
                      model.label_index(inst.label))
    tape = topo_order(loss)
    assert (len(inst.arg1), len(inst.arg2)) == (14, 15)
    assert len(tape) == 33
    groups = [model.enc1.tensors() + model.enc2.tensors(),
              [t for level in model.levels for t in level.tensors()],
              [model.w_p, model.b_p]]
    for params in groups:
        ids = {id(t) for t in params}
        readers = [n for n in tape if any(id(p) in ids for p in n._parents)]
        assert len(readers) == 1
        assert {id(p) for p in readers[0]._parents} >= ids
