"""Batched forward passes (``NnmaModel.forward_batch``/``forward_chunks``)
against one instance at a time, and the structure of forward-only work."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nnma import model as model_module
from nnma.cli import main
from nnma.corpus import Dataset, Instance, write_tsv
from nnma.embeddings import Vocabulary
from nnma.metrics import attention_kl_report, evaluate
from nnma.model import CHUNK, NnmaModel
from nnma.recurrent import encode_pair
from nnma.rng import Rng
from nnma.tensor import Tensor, grad_check, no_grad, spans, topo_order
from nnma.trainer import Hyperparams, MomentumSgd, train_step
from per_op import add, hadamard, sum_all
from table_params import drawn

LABELS = ["Comparison", "Contingency", "Expansion", "Temporal"]
WORDS = [f"w{i}" for i in range(12)]


def make_model(k, seed, d_e=4, d=3, d_m=5):
    """A small model whose word size differs from its hidden size."""
    return NnmaModel.create(Vocabulary(WORDS), LABELS, d_e=d_e, d=d, d_m=d_m, k=k,
                            rng=Rng(seed))


def make_instances(pairs, seed):
    """One instance per (arg1 length, arg2 length); tokens w12 and w13
    are unknown to the vocabulary."""
    rng = np.random.default_rng(seed)

    def words(n):
        return [f"w{i}" for i in rng.integers(0, 14, n)]

    return [Instance(LABELS[i % len(LABELS)], words(n1), words(n2))
            for i, (n1, n2) in enumerate(pairs)]


@st.composite
def batches(draw):
    """1 to 2 * CHUNK argument-length pairs, each length 1-40; often a
    one-word argument beside a 40-word one, so that it shares the last
    chunk with the longest instances."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                          min_size=1, max_size=2 * CHUNK))
    if draw(st.booleans()):
        pairs[0] = (1, 40)
        pairs[-1] = (40, 1)
    return pairs


PROPERTY = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(pairs=batches(), k=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 16))
def test_batched_equals_one_at_a_time(pairs, k, seed):
    model = make_model(k, seed)
    instances = make_instances(pairs, seed)
    with no_grad():
        alone = [model.forward(inst) for inst in instances]
    seen = []
    for positions, prediction in model.forward_chunks(instances):
        assert 1 <= len(positions) <= CHUNK
        assert prediction.probabilities.shape == (len(LABELS), len(positions))
        for j, (i, trace) in enumerate(zip(positions, prediction.trace.split())):
            ref = alone[i]
            np.testing.assert_allclose(prediction.probabilities.data[:, j:j + 1],
                                       ref.probabilities.data, rtol=0, atol=1e-12)
            assert prediction.predicted[j] == ref.predicted_label
            assert len(trace.levels) == k
            for got, want in zip(trace.levels, ref.trace.levels):
                assert got.a1.shape == want.a1.shape and got.a2.shape == want.a2.shape
                np.testing.assert_allclose(got.a1.data, want.a1.data, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got.a2.data, want.a2.data, rtol=0, atol=1e-12)
        seen += positions
    assert sorted(seen) == list(range(len(instances)))


@PROPERTY
@given(pairs=batches(), k=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 16))
def test_zero_scores_reduce_batched_levels_to_pooled_means_bitwise(pairs, k, seed):
    # Criterion 3 on the batched path: uniform distributions, and every
    # level's read-out is the pass-0 mean, bit for bit.
    model = make_model(k, seed)
    for level in model.levels:
        level.arg1.w_s.data[:] = 0.0
        level.arg2.w_s.data[:] = 0.0
    for _, prediction in model.forward_chunks(make_instances(pairs, seed)):
        trace = prediction.trace
        for lv in trace.levels:
            assert lv.R1.data.tobytes() == trace.general.R0_1.data.tobytes()
            assert lv.R2.data.tobytes() == trace.general.R0_2.data.tobytes()
            for a, lengths in ((lv.a1, trace.lengths1), (lv.a2, trace.lengths2)):
                for (s, t), n in zip(spans(lengths), lengths):
                    assert np.array_equal(a.data[s:t], np.full((n, 1), 1.0 / n))


def test_one_word_arguments_in_a_chunk_of_long_ones():
    model = make_model(2, seed=3)
    instances = make_instances([(1, 40), (40, 1), (40, 40), (1, 1), (39, 2)], seed=3)
    (positions, prediction), = model.forward_chunks(instances)
    traces = prediction.trace.split()
    for j, i in enumerate(positions):
        with no_grad():
            ref = model.forward(instances[i])
        np.testing.assert_allclose(prediction.probabilities.data[:, j:j + 1],
                                   ref.probabilities.data, rtol=0, atol=1e-12)
        for got, want in zip(traces[j].levels, ref.trace.levels):
            np.testing.assert_allclose(got.a1.data, want.a1.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.a2.data, want.a2.data, rtol=0, atol=1e-12)


def test_batch_gradient_is_the_sum_of_instance_gradients():
    # The batched operations' backward passes, which training (B = 1)
    # does not exercise beyond one segment.
    model = make_model(2, seed=4)
    instances = make_instances([(3, 5), (1, 4), (6, 1), (2, 2)], seed=4)
    probe = np.random.default_rng(4).uniform(-1, 1, (len(LABELS), len(instances)))
    params = model.parameters()

    def grads(loss):
        model.zero_grad()
        loss.backward()
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    batch = model.forward_batch(instances)
    got = grads(sum_all(hadamard(batch.probabilities, Tensor(probe))))
    want = [np.zeros_like(p.data) for p in params]
    for j, inst in enumerate(instances):
        one = model.forward(inst)
        for total, g in zip(want, grads(sum_all(hadamard(one.probabilities,
                                                         Tensor(probe[:, j]))))):
            total += g
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)


def test_batched_encoder_gradient_check():
    rng = Rng(5)
    p1, p2 = drawn("enc1", rng, d_e=3, d=2), drawn("enc1", rng, d_e=3, d=2)
    lengths1, lengths2 = [2, 1, 3], [1, 3, 2]
    x1 = Tensor(rng.uniform_matrix(3, sum(lengths1), -1.0, 1.0), requires_grad=True)
    x2 = Tensor(rng.uniform_matrix(3, sum(lengths2), -1.0, 1.0), requires_grad=True)
    w1 = Tensor(rng.uniform_matrix(4, sum(lengths1), -1.0, 1.0))
    w2 = Tensor(rng.uniform_matrix(4, sum(lengths2), -1.0, 1.0))

    def loss():
        h1, h2 = encode_pair(x1, x2, p1, p2, lengths1, lengths2)
        return add(sum_all(hadamard(h1, w1)), sum_all(hadamard(h2, w2)))

    assert grad_check(loss, [x1, x2] + p1.tensors() + p2.tensors()) < 1e-6


def test_batched_encoder_reads_each_instance_alone():
    rng = Rng(6)
    p1, p2 = drawn("enc1", rng, d_e=3, d=2), drawn("enc1", rng, d_e=3, d=2)
    lengths1, lengths2 = [2, 5, 1], [4, 1, 3]
    x1 = Tensor(rng.uniform_matrix(3, sum(lengths1), -1.0, 1.0))
    x2 = Tensor(rng.uniform_matrix(3, sum(lengths2), -1.0, 1.0))
    h1, h2 = encode_pair(x1, x2, p1, p2, lengths1, lengths2)
    for (s1, t1), (s2, t2) in zip(spans(lengths1), spans(lengths2)):
        a1, a2 = encode_pair(Tensor(x1.data[:, s1:t1]), Tensor(x2.data[:, s2:t2]), p1, p2)
        np.testing.assert_allclose(h1.data[:, s1:t1], a1.data, rtol=0, atol=1e-14)
        np.testing.assert_allclose(h2.data[:, s2:t2], a2.data, rtol=0, atol=1e-14)


# -- one encoder operation per chunk of forward-only work ------------------------

N = 2 * CHUNK + 5


def count_calls(monkeypatch, name):
    """Counts the model's calls of the operation ``name``."""
    calls = []
    real = getattr(model_module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_module, name, counting)
    return calls


@pytest.fixture
def encoder_ops(monkeypatch):
    return count_calls(monkeypatch, "encode_pair")


@pytest.fixture
def stack_ops(monkeypatch):
    return count_calls(monkeypatch, "run_stack")


def large_dataset():
    rng = np.random.default_rng(7)
    pairs = [tuple(int(n) for n in rng.integers(1, 12, 2)) for _ in range(N)]
    return Dataset(make_instances(pairs, seed=7), "test")


def test_evaluate_records_one_encoder_op_per_chunk(encoder_ops):
    evaluate(make_model(2, seed=8), large_dataset())
    assert len(encoder_ops) == math.ceil(N / CHUNK)


def test_evaluate_records_one_stack_op_per_chunk(stack_ops):
    evaluate(make_model(2, seed=8), large_dataset())
    assert len(stack_ops) == math.ceil(N / CHUNK)


def test_kl_report_records_one_encoder_op_per_chunk(encoder_ops):
    attention_kl_report(make_model(2, seed=9), large_dataset())
    assert len(encoder_ops) == math.ceil(N / CHUNK)


def test_analyze_records_one_encoder_op_per_chunk(encoder_ops, tmp_path):
    make_model(2, seed=10).save(tmp_path / "model.ckpt")
    with open(tmp_path / "data.tsv", "w", encoding="utf-8") as fh:
        write_tsv(large_dataset(), fh)
    assert main(["analyze", "--model", str(tmp_path / "model.ckpt"),
                 "--data", str(tmp_path / "data.tsv"), "--ids", f"0,5,{N - 1}",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(encoder_ops) == math.ceil(N / CHUNK)
    assert (tmp_path / "out" / f"heatmap_{N - 1}.csv").is_file()


def test_analyze_heatmaps_match_one_at_a_time(tmp_path):
    model = make_model(2, seed=11)
    ds = large_dataset()
    model.save(tmp_path / "model.ckpt")
    with open(tmp_path / "data.tsv", "w", encoding="utf-8") as fh:
        write_tsv(ds, fh)
    assert main(["analyze", "--model", str(tmp_path / "model.ckpt"),
                 "--data", str(tmp_path / "data.tsv"), "--ids", f"3,{N - 4}",
                 "--out", str(tmp_path / "out")]) == 0
    for idx in (3, N - 4):
        inst = ds.instances[idx]
        with no_grad():
            levels = model.forward(inst).trace.levels
        rows = (tmp_path / "out" / f"heatmap_{idx}.csv").read_text().splitlines()
        want = [lv.a1 if name == "arg1" else lv.a2 for lv in levels for name in ("arg1", "arg2")]
        assert len(rows) == len(want)
        for row, a in zip(rows, want):
            weights = [float(cell.rsplit(":", 1)[1]) for cell in row.split(",")[2:]]
            np.testing.assert_allclose(weights, a.data.reshape(-1), rtol=0, atol=1e-12)


# -- no recorded result aliases another tensor ----------------------------------


def assert_no_aliasing(tape, params):
    """No recorded result shares memory with any other tensor of the
    graph or with a parameter, so an in-place update of one can never
    change another."""
    everything = list({id(t): t for t in list(tape) + list(params)}.values())
    for node in tape:
        if node._vjp is None:
            continue
        for other in everything:
            if other is not node:
                assert not np.shares_memory(node.data, other.data)


def test_train_step_results_alias_nothing():
    model = make_model(2, seed=12)
    inst = make_instances([(5, 7)], seed=12)[0]
    hp = Hyperparams()
    opt_net = MomentumSgd(model.network_parameters(), hp.rate, hp.momentum)
    opt_emb = MomentumSgd(model.embedding_parameters(), hp.embedding_rate, hp.momentum)
    losses = []
    real_loss = model.loss

    def keeping_loss(*args, **kwargs):
        losses.append(real_loss(*args, **kwargs))
        return losses[-1]

    model.loss = keeping_loss
    train_step(model, inst, 1, 1.0, opt_net, opt_emb, Tensor(np.ones((18, 1))))
    tape = topo_order(losses[0])
    # Two lookups, the encoder operation and its two column blocks, the
    # attention stack, the classifier, the loss and its weight.
    assert sum(node._vjp is not None for node in tape) == 9
    assert_no_aliasing(tape, model.parameters())


def test_batched_forward_results_alias_nothing():
    model = make_model(3, seed=13)
    prediction = model.forward_batch(make_instances([(3, 1), (6, 4), (1, 2)], seed=13))
    assert_no_aliasing(topo_order(prediction.probabilities), model.parameters())
