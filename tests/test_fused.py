"""The attention stack and the classifier, each one recorded operation,
against the per-product graph they replaced (``per_op``): every value
and every gradient byte for byte, one instance or a batch. The stack's
W_b M, computed once per instance, is also held close to the graph that
multiplies W_b by the memory repeated across every word
(``per_op.attend_repeated``), and its whole-batch softmax, read-outs and
pass-0 means close to the graph that computes each instance's on its
own (``per_op.attend_looped``, ``per_op.mean_cols_looped``)."""

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import per_op
from nnma.attention import run_stack
from nnma.corpus import Instance
from nnma.embeddings import Vocabulary
from nnma.model import CHUNK, NnmaModel, classify
from nnma.rng import Rng
from nnma.tensor import FlatParams, ShapeError, Tensor, grad_check, nll_from_logits, no_grad
from nnma.trainer import dropout_mask
from table_params import drawn

D, D_M, LABELS = 3, 4, ["Comparison", "Contingency", "Expansion", "Temporal"]


def setup(K, lengths1, lengths2, seed, zero_scores=False, masked=True):
    """Random encodings of a batch, K levels, a classifier, a dropout mask
    with zeros in it and a probe that turns the logits into a scalar."""
    rng = Rng(seed)
    params = [drawn(f"level{k}", rng, d=D, d_m=D_M, k=k) for k in range(1, K + 1)]
    if zero_scores:
        for p in params:
            p.arg1.w_s.data[:] = 0.0
            p.arg2.w_s.data[:] = 0.0
    batch = len(lengths1)
    h1 = Tensor(rng.uniform_matrix(2 * D, sum(lengths1), -1.0, 1.0), requires_grad=True)
    h2 = Tensor(rng.uniform_matrix(2 * D, sum(lengths2), -1.0, 1.0), requires_grad=True)
    # W_p and b_p laid out in one buffer, as a model's are, so classify
    # writes their gradients into it.
    head = [rng.uniform_matrix(len(LABELS), 6 * D, -1.0, 1.0),
            rng.uniform_matrix(len(LABELS), 1, -1.0, 1.0)]
    w_p, b_p = FlatParams(np.concatenate([a.ravel() for a in head]),
                          [a.shape for a in head]).leaves
    mask = None
    if masked:
        mask = Tensor(np.hstack([dropout_mask(6 * D, 0.3, rng).data for _ in range(batch)]))
    probe = Tensor(rng.uniform_matrix(len(LABELS), batch, -1.0, 1.0))
    return params, h1, h2, w_p, b_p, mask, probe


def run(stack, head, case, lengths1, lengths2):
    """Values and gradients of one forward and backward pass."""
    params, h1, h2, w_p, b_p, mask, probe = case
    leaves = [h1, h2, w_p, b_p] + [t for p in params for t in p.tensors()]
    for t in leaves:
        t.zero_grad()
    trace = stack(h1, h2, params, lengths1=lengths1, lengths2=lengths2)
    logits = head(trace, w_p, b_p, mask)
    per_op.sum_all(per_op.hadamard(logits, probe)).backward()
    values = [trace.general.R0_1, trace.general.R0_2, trace.final, logits]
    for lv in trace.levels:
        values += [lv.M, lv.a1, lv.a2, lv.R1, lv.R2]
    return [t.data for t in values], [t.grad.copy() for t in leaves]


def fused_head(trace, w_p, b_p, mask):
    return classify(trace.final, w_p, b_p, mask)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@st.composite
def batches(draw):
    """1 to 2 * CHUNK argument-length pairs, each length 1-40, often with a
    one-word argument beside a 40-word one."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                          min_size=1, max_size=2 * CHUNK))
    if draw(st.booleans()):
        pairs[0] = (1, 40)
        pairs[-1] = (40, 1)
    return [n for n, _ in pairs], [n for _, n in pairs]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lengths=batches(), K=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 16),
       zero_scores=st.booleans(), masked=st.booleans())
def test_stack_and_head_are_the_per_op_graph_bytewise(lengths, K, seed, zero_scores, masked):
    lengths1, lengths2 = lengths
    case = setup(K, lengths1, lengths2, seed, zero_scores, masked)
    got = run(run_stack, fused_head, case, lengths1, lengths2)
    want = run(per_op.run_stack, per_op.classify, case, lengths1, lengths2)
    assert_same_bytes(got[0], want[0])
    assert_same_bytes(got[1], want[1])


REPEATED = partial(per_op.run_stack, read=per_op.attend_repeated)
LOOPED = partial(per_op.run_stack, read=per_op.attend_looped, mean=per_op.mean_cols_looped)


def assert_near(reference, K, lengths1, lengths2, seed, scaled=False):
    # W_b M once per instance rounds differently from W_b times the
    # memory repeated per word, and a whole-batch sum groups its terms
    # differently from one segment's; each pair computes the same function.
    # ``scaled``: values within 1e-12 of each tensor's largest entry, not
    # of each entry. A regrouped sum that cancels to a tiny read-out
    # entry keeps the rounding of its large terms (e.g. 2.0e-7 off by
    # 1.7e-16, 8e-10 relative), so only that bound is met there.
    case = setup(K, lengths1, lengths2, seed)
    got = run(run_stack, fused_head, case, lengths1, lengths2)
    want = run(reference, per_op.classify, case, lengths1, lengths2)
    for g, w in zip(got[0], want[0]):
        np.testing.assert_allclose(g, w, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(w)) if scaled else 0)
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w))


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("n1, n2", [(1, 40), (40, 1), (1, 1), (7, 12)])
def test_one_instance_is_near_the_repeated_memory_graph(K, n1, n2):
    assert_near(REPEATED, K, [n1], [n2], seed=K * 100 + n1 + n2)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lengths=batches(), K=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 16))
def test_a_batch_is_near_the_repeated_memory_graph(lengths, K, seed):
    assert_near(REPEATED, K, *lengths, seed)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("n1, n2", [(1, 40), (40, 1), (7, 12)])
def test_one_instance_is_the_per_instance_graph_bytewise(K, n1, n2):
    # At B = 1 the padded score matrix and the block-diagonal read-out
    # and mean matrices hold just the one instance's row and column.
    case = setup(K, [n1], [n2], seed=K * 100 + n1 + n2)
    got = run(run_stack, fused_head, case, [n1], [n2])
    want = run(LOOPED, per_op.classify, case, [n1], [n2])
    assert_same_bytes(got[0], want[0])
    assert_same_bytes(got[1], want[1])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lengths=batches(), K=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 16))
def test_a_batch_is_near_the_per_instance_graph(lengths, K, seed):
    assert_near(LOOPED, K, *lengths, seed, scaled=True)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("n1, n2", [(1, 40), (40, 1), (1, 1), (7, 12)])
def test_training_step_gradients_are_the_per_op_graph_bytewise(K, n1, n2):
    # The whole model at B = 1 with dropout, as training runs it: every
    # parameter's gradient, the embeddings' included, through the loss.
    words = [f"w{i}" for i in range(9)]
    model = NnmaModel.create(Vocabulary(words), LABELS, d_e=4, d=D, d_m=D_M, k=K,
                             rng=Rng(K * 100 + n1))
    rng = np.random.default_rng(n2)
    inst = Instance(LABELS[1], list(rng.choice(words + ["unk"], n1)),
                    list(rng.choice(words, n2)))
    mask = dropout_mask(6 * D, 0.3, Rng(n1 + n2))

    def grads(forward):
        model.zero_grad()
        logits = forward([inst], mask).logits
        nll_from_logits(logits, 2, 0.75).backward()
        return logits.data, [p.grad.copy() for p in model.parameters()]

    got = grads(model.forward_batch)
    want = grads(lambda instances, m: per_op.forward_batch(model, instances, m))
    assert_same_bytes([got[0]], [want[0]])
    assert_same_bytes(got[1], want[1])


def test_stack_gradient_check():
    lengths1, lengths2 = [1, 4, 2], [3, 1, 2]
    params, h1, h2, *_ = setup(2, lengths1, lengths2, seed=5)
    probe = Tensor(Rng(6).uniform_matrix(4 * D, 3, -1.0, 1.0))

    def loss():
        trace = run_stack(h1, h2, params, lengths1=lengths1, lengths2=lengths2)
        return per_op.sum_all(per_op.hadamard(trace.final, probe))

    assert grad_check(loss, [h1, h2] + [t for p in params for t in p.tensors()]) < 1e-6


@pytest.mark.parametrize("masked", [False, True])
def test_head_gradient_check(masked):
    *_, w_p, b_p, mask, probe = setup(1, [2, 3], [1, 2], seed=7, masked=masked)
    final = Tensor(Rng(8).uniform_matrix(4 * D, 2, -1.0, 1.0), requires_grad=True)

    def loss():
        return per_op.sum_all(per_op.hadamard(classify(final, w_p, b_p, mask), probe))

    assert grad_check(loss, [final, w_p, b_p]) < 1e-6


def test_nothing_is_recorded_under_no_grad():
    params, h1, h2, w_p, b_p, mask, _ = setup(2, [3, 1], [2, 2], seed=9)
    with no_grad():
        trace = run_stack(h1, h2, params, lengths1=[3, 1], lengths2=[2, 2])
        logits = classify(trace.final, w_p, b_p, mask)
    for t in (trace.final, logits):
        assert not t.requires_grad and t._vjp is None and t._parents == ()


def test_trace_values_are_plain_and_share_no_memory():
    params, h1, h2, *_ = setup(3, [3, 1], [2, 2], seed=10)
    trace = run_stack(h1, h2, params, lengths1=[3, 1], lengths2=[2, 2])
    values = [trace.general.R0_1, trace.general.R0_2]
    for lv in trace.levels:
        values += [lv.M, lv.a1, lv.a2, lv.R1, lv.R2]
    assert all(t._vjp is None and not t.requires_grad for t in values)
    arrays = [t.data for t in values + [trace.final, h1, h2]]
    arrays += [t.data for p in params for t in p.tensors()]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_a_level_given_twice_gets_both_its_gradients():
    # Levels 2 and 3 have the same shapes, so one group can be both. Its
    # gradient runs then take two products, which must be added, not
    # each written over the other.
    params, *rest = setup(3, [3, 1], [2, 2], seed=12)
    case = ([params[0], params[1], params[1]], *rest)
    got = run(run_stack, fused_head, case, [3, 1], [2, 2])
    want = run(per_op.run_stack, per_op.classify, case, [3, 1], [2, 2])
    assert_same_bytes(got[0], want[0])
    assert_same_bytes(got[1], want[1])


def test_shape_mismatches_rejected():
    params, h1, h2, w_p, b_p, mask, _ = setup(2, [3], [2], seed=11)
    with pytest.raises(ShapeError):
        run_stack(h1, h2, params[::-1])
    with pytest.raises(ShapeError):
        run_stack(h1, Tensor(np.zeros((2 * D + 1, 2))), params)
    final = run_stack(h1, h2, params).final
    with pytest.raises(ShapeError):
        classify(final, w_p, b_p, Tensor(np.ones((6 * D, 2))))
    with pytest.raises(ShapeError):
        classify(final, w_p, Tensor(np.zeros((len(LABELS) + 1, 1))))
