"""Tensor-engine tests: value oracles, gradient exactness, tape behavior.

The one-node-per-product primitives (``ops``) live in ``per_op``, the
reference graph of the fused attention stack and classifier; they are
tested here with the engine they are built on."""

import math

import numpy as np
import pytest

import per_op as ops
from nnma import tensor as T
from nnma.tensor import Tensor


def rand(rows, cols, rng, lo=-1.0, hi=1.0, grad=True):
    data = rng.uniform(lo, hi, size=(rows, cols))
    return Tensor(data, requires_grad=grad)


def numeric_grad(f, t, h=1e-4):
    """Central-difference gradient of scalar-valued f w.r.t. tensor t."""
    g = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f().item()
        flat[i] = orig - h
        fm = f().item()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def analytic_grad(f, t):
    t.zero_grad()
    f().backward()
    return t.grad.copy()


def max_err(a, n):
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))))


# -- matmul --------------------------------------------------------------------


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    v = Tensor([[1.0], [2.0]])
    out = ops.matmul(eye, v)
    assert np.array_equal(out.data, [[1.0], [2.0]])


def test_matmul_scalar_case():
    assert ops.matmul(Tensor([[2.0]]), Tensor([[3.0]])).item() == 6.0


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 2))
    # independent reference product
    ref = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = 0.0
            for k in range(4):
                acc += a[i, k] * b[k, j]
            ref[i, j] = acc
    out = ops.matmul(Tensor(a), Tensor(b))
    assert np.max(np.abs(out.data - ref)) < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradients():
    rng = np.random.default_rng(11)
    a = rand(3, 4, rng)
    b = rand(4, 2, rng)
    f = lambda: ops.sum_all(ops.matmul(a, b))
    ga = analytic_grad(f, a)
    b.zero_grad()
    a.zero_grad()
    f().backward()
    assert max_err(ga, numeric_grad(f, a)) < 1e-6
    assert max_err(b.grad, numeric_grad(f, b)) < 1e-6


# -- concat / hstack -----------------------------------------------------------


def test_concat_values():
    out = ops.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
    assert np.array_equal(out.data, [[1.0], [2.0], [3.0]])


def test_concat_single_part_is_identity():
    x = Tensor([[1.0], [5.0]])
    assert np.array_equal(ops.concat([x]).data, x.data)


def test_concat_gradient_is_ones():
    a = Tensor([[1.0], [2.0]], requires_grad=True)
    b = Tensor([[3.0]], requires_grad=True)
    ops.sum_all(ops.concat([a, b])).backward()
    assert np.array_equal(a.grad, np.ones((2, 1)))
    assert np.array_equal(b.grad, np.ones((1, 1)))


def test_concat_errors():
    with pytest.raises(T.ShapeError):
        ops.concat([])
    with pytest.raises(T.ShapeError):
        ops.concat([Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 2)))])


def test_hstack_values_and_gradient():
    a = Tensor([[1.0], [2.0]], requires_grad=True)
    b = Tensor([[3.0], [4.0]], requires_grad=True)
    out = ops.hstack([a, b])
    assert np.array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])
    ops.sum_all(out).backward()
    assert np.array_equal(a.grad, np.ones((2, 1)))


# -- elementwise maps ----------------------------------------------------------


def test_sigmoid_tanh_at_zero():
    assert ops.sigmoid(Tensor([[0.0]])).item() == 0.5
    assert ops.tanh(Tensor([[0.0]])).item() == 0.0


def test_tanh_gradient_central_difference():
    x = Tensor([[0.3]], requires_grad=True)
    ops.tanh(x).backward()
    h = 1e-6
    numeric = (math.tanh(0.3 + h) - math.tanh(0.3 - h)) / (2 * h)
    assert abs(x.grad[0, 0] - numeric) / abs(numeric) < 1e-7


def test_zip_binary_values():
    assert np.array_equal(
        ops.hadamard(Tensor([2.0, 3.0]), Tensor([4.0, 5.0])).data,
        [[8.0], [15.0]],
    )
    x = Tensor([0.4, -1.2])
    assert np.array_equal(ops.sub(x, x).data, np.zeros((2, 1)))


def test_add_gradient_is_ones():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([5.0, 6.0], requires_grad=True)
    ops.sum_all(ops.add(x, y)).backward()
    assert np.array_equal(x.grad, np.ones((2, 1)))
    assert np.array_equal(y.grad, np.ones((2, 1)))


def test_zip_binary_shape_mismatch():
    with pytest.raises(T.ShapeError):
        ops.add(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))


# -- softmax ---------------------------------------------------------------------


def test_softmax_uniform():
    out = ops.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.array_equal(out.data, np.full((3, 1), 1.0 / 3.0))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-5, 5, (6, 1))
        c = rng.uniform(-100, 100)
        a = ops.softmax(Tensor(x)).data
        b = ops.softmax(Tensor(x + c)).data
        assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_hand_values():
    out = ops.softmax(Tensor([1.0, 2.0])).data
    # e^1/(e^1+e^2), e^2/(e^1+e^2) evaluated independently
    assert abs(out[0, 0] - 0.2689414213699951) < 1e-12
    assert abs(out[1, 0] - 0.7310585786300049) < 1e-12


def test_softmax_positive_and_normalized_for_large_inputs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-50, 50, (8, 1))
        p = ops.softmax(Tensor(x)).data
        assert (p > 0).all()
        assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_gradient():
    rng = np.random.default_rng(9)
    x = rand(5, 1, rng)
    w = Tensor(rng.uniform(-1, 1, (5, 1)))  # fixed projection to scalar
    f = lambda: ops.sum_all(ops.hadamard(ops.softmax(x), w))
    assert max_err(analytic_grad(f, x), numeric_grad(f, x)) < 1e-6


# -- mean / repeat ---------------------------------------------------------------


def test_mean_cols_identical_columns():
    v = np.array([[0.7], [-0.3], [2.5]])
    m = Tensor(np.repeat(v, 4, axis=1))
    assert np.max(np.abs(ops.mean_cols(m).data - v)) < 1e-15


def test_mean_cols_simple():
    assert ops.mean_cols(Tensor([[1.0, 3.0]])).item() == 2.0


def test_mean_cols_gradient():
    rng = np.random.default_rng(13)
    m = rand(3, 4, rng)
    f = lambda: ops.sum_all(ops.hadamard(ops.mean_cols(m), Tensor([[1.0], [2.0], [-0.5]])))
    assert max_err(analytic_grad(f, m), numeric_grad(f, m)) < 1e-7


def test_broadcast_repeat_values():
    out = ops.broadcast_repeat(Tensor([1.0, 2.0]), 3)
    assert np.array_equal(out.data, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    v = Tensor([0.5, -1.0])
    assert np.array_equal(ops.broadcast_repeat(v, 1).data, v.data)


def test_broadcast_repeat_gradient_is_count():
    v = Tensor([1.0, 2.0], requires_grad=True)
    ops.sum_all(ops.broadcast_repeat(v, 5)).backward()
    assert np.array_equal(v.grad, np.full((2, 1), 5.0))


def test_broadcast_repeat_zero_count():
    with pytest.raises(T.ShapeError):
        ops.broadcast_repeat(Tensor([1.0]), 0)


# -- segments: a batch side by side ------------------------------------------------


@pytest.mark.parametrize("lengths", [None, [4], [1, 3], [2, 0, 2], [5], []])
def test_segments_checked(lengths):
    if lengths in (None, [4], [1, 3]):
        assert T.segments(4, lengths) == (lengths or [4])
        assert T.spans(T.segments(4, lengths))[-1][1] == 4
    else:
        with pytest.raises(T.ShapeError):
            T.segments(4, lengths)


def test_softmax_is_per_column_and_bitwise_per_column():
    rng = np.random.default_rng(21)
    x = rand(4, 3, rng, -5, 5)
    out = ops.softmax(x).data
    for j in range(3):
        alone = ops.softmax(Tensor(x.data[:, j].copy())).data
        assert out[:, j:j + 1].tobytes() == alone.tobytes()
    w = Tensor(rng.uniform(-1, 1, (4, 3)))
    f = lambda: ops.sum_all(ops.hadamard(ops.softmax(x), w))
    assert max_err(analytic_grad(f, x), numeric_grad(f, x)) < 1e-6


SEGMENTS = [1, 4, 2, 7]


def test_segment_softmax_is_each_segment_alone_bitwise():
    rng = np.random.default_rng(22)
    row = rand(1, sum(SEGMENTS), rng, -4, 4)
    out = ops.segment_softmax_looped(row, SEGMENTS)
    assert out.shape == (sum(SEGMENTS), 1)
    for s, t in T.spans(SEGMENTS):
        alone = ops.softmax(Tensor(row.data[0, s:t].copy())).data
        assert out.data[s:t].tobytes() == alone.tobytes()
    for op in (ops.segment_softmax, ops.segment_softmax_looped):
        assert op(row).data.tobytes() == ops.softmax(Tensor(row.data[0].copy())).data.tobytes()


def test_segment_softmax_of_zero_scores_is_exactly_uniform():
    for op in (ops.segment_softmax, ops.segment_softmax_looped):
        out = op(Tensor(np.zeros((1, sum(SEGMENTS)))), SEGMENTS).data
        for (s, t), n in zip(T.spans(SEGMENTS), SEGMENTS):
            assert np.array_equal(out[s:t], np.full((n, 1), 1.0 / n))


def test_segment_softmax_gradient_and_errors():
    rng = np.random.default_rng(23)
    row = rand(1, sum(SEGMENTS), rng)
    w = Tensor(rng.uniform(-1, 1, (sum(SEGMENTS), 1)))
    f = lambda: ops.sum_all(ops.hadamard(ops.segment_softmax(row, SEGMENTS), w))
    assert max_err(analytic_grad(f, row), numeric_grad(f, row)) < 1e-6
    with pytest.raises(T.ShapeError):
        ops.segment_softmax(Tensor(np.zeros((2, 1))))
    with pytest.raises(T.ShapeError):
        ops.segment_softmax(row, [1, 2])


def test_segment_matvec_is_each_segment_alone_bitwise_with_gradients():
    rng = np.random.default_rng(24)
    m = rand(3, sum(SEGMENTS), rng)
    w = rand(sum(SEGMENTS), 1, rng)
    out = ops.segment_matvec_looped(m, w, SEGMENTS)
    assert out.shape == (3, len(SEGMENTS))
    for j, (s, t) in enumerate(T.spans(SEGMENTS)):
        assert out.data[:, j:j + 1].tobytes() == (m.data[:, s:t] @ w.data[s:t]).tobytes()
    probe = Tensor(rng.uniform(-1, 1, (3, len(SEGMENTS))))
    for op in (ops.segment_matvec, ops.segment_matvec_looped):
        f = lambda: ops.sum_all(ops.hadamard(op(m, w, SEGMENTS), probe))
        for t in (m, w):
            assert max_err(analytic_grad(f, t), numeric_grad(f, t)) < 1e-7
    with pytest.raises(T.ShapeError):
        ops.segment_matvec(m, rand(3, 1, rng), SEGMENTS)


def test_mean_cols_per_segment_is_each_segment_alone_bitwise():
    rng = np.random.default_rng(25)
    m = rand(3, sum(SEGMENTS), rng)
    out = ops.mean_cols_looped(m, SEGMENTS)
    for j, (s, t) in enumerate(T.spans(SEGMENTS)):
        alone = ops.mean_cols(Tensor(m.data[:, s:t].copy())).data
        assert out.data[:, j:j + 1].tobytes() == alone.tobytes()
    probe = Tensor(rng.uniform(-1, 1, (3, len(SEGMENTS))))
    for op in (ops.mean_cols, ops.mean_cols_looped):
        f = lambda: ops.sum_all(ops.hadamard(op(m, SEGMENTS), probe))
        assert max_err(analytic_grad(f, m), numeric_grad(f, m)) < 1e-7


@pytest.mark.parametrize("sizes", [[12], [1, 9, 17, 40, 3], SEGMENTS])
def test_whole_batch_segment_ops_are_near_the_looped_forms(sizes):
    # One product with a block-diagonal matrix and one softmax over rows
    # padded with -inf group their sums differently from one segment's
    # own operations once there are several segments: values within
    # 1e-12 of the largest, and at one segment the same bits.
    rng = np.random.default_rng(26)
    m = rand(5, sum(sizes), rng)
    w = rand(sum(sizes), 1, rng, 0, 1)
    row = rand(1, sum(sizes), rng, -4, 4)
    pairs = [(ops.mean_cols(m, sizes), ops.mean_cols_looped(m, sizes)),
             (ops.segment_matvec(m, w, sizes), ops.segment_matvec_looped(m, w, sizes)),
             (ops.segment_softmax(row, sizes), ops.segment_softmax_looped(row, sizes))]
    for got, want in pairs:
        assert got.shape == want.shape
        if len(sizes) == 1:
            assert got.data.tobytes() == want.data.tobytes()
        assert np.max(np.abs(got.data - want.data)) <= 1e-12 * np.max(np.abs(want.data))


def test_broadcast_repeat_per_column_counts():
    v = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
    out = ops.broadcast_repeat(v, [3, 1])
    assert np.array_equal(out.data, [[1.0, 1.0, 1.0, -2.0], [3.0, 3.0, 3.0, 0.5]])
    probe = Tensor([[1.0, 2.0, 4.0, 8.0], [-1.0, 0.0, 1.0, 3.0]])
    ops.sum_all(ops.hadamard(out, probe)).backward()
    assert np.array_equal(v.grad, [[7.0, 8.0], [0.0, 3.0]])
    for counts in ([3], [3, 0], 2):
        with pytest.raises(T.ShapeError):
            ops.broadcast_repeat(v, counts)


def test_add_bias_values_and_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor([10.0, -1.0], requires_grad=True)
    out = ops.add_bias(x, b)
    assert np.array_equal(out.data, [[10.0, 11.0, 12.0], [2.0, 3.0, 4.0]])
    ops.sum_all(ops.hadamard(out, Tensor([[1.0, 2.0, 3.0], [0.5, 0.5, -1.0]]))).backward()
    assert np.array_equal(b.grad, [[6.0], [0.0]])
    assert np.array_equal(x.grad, [[1.0, 2.0, 3.0], [0.5, 0.5, -1.0]])
    with pytest.raises(T.ShapeError):
        ops.add_bias(x, Tensor([1.0, 2.0, 3.0]))


# -- select_columns ----------------------------------------------------------------


def test_select_columns_values_and_scatter():
    m = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), requires_grad=True)
    out = T.select_columns(m, [2, 0, 2])
    assert np.array_equal(out.data, [[3.0, 1.0, 3.0], [6.0, 4.0, 6.0]])
    ops.sum_all(out).backward()
    # column 2 selected twice accumulates both contributions
    assert np.array_equal(m.grad, [[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])


@pytest.mark.parametrize("idx", [[4, 0, 7, 2], [4, 0, 4, 2, 0]])
def test_select_columns_block_is_the_add_at_scatter(idx):
    # Distinct indices take the block straight from g; repeated ones keep
    # np.add.at. Either way the block and its dense form match the scatter
    # into zeros; a -0.0 in g becomes +0.0 once added to zeros.
    rng = np.random.default_rng(14)
    m = rand(3, 8, rng)
    g = rng.uniform(-1, 1, (3, len(idx)))
    g[1, 1] = -0.0
    (grad,) = T.select_columns(m, idx)._vjp(g)
    cols = sorted(set(idx))
    want = np.zeros((3, len(cols)))
    np.add.at(want, (slice(None), [cols.index(i) for i in idx]), g)
    [(got_cols, block)] = grad.parts
    assert got_cols == cols
    assert np.array_equal(block, want)
    dense = np.zeros((3, 8))
    dense[:, cols] += want
    assert grad.dense().tobytes() == dense.tobytes()


def test_select_columns_out_of_range():
    with pytest.raises(T.ShapeError):
        T.select_columns(Tensor(np.zeros((2, 2))), [2])


def test_column_block_values_layout_and_gradient():
    m = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    left, right = T.column_block(m, 0, 1), T.column_block(m, 1, 4)
    assert np.array_equal(right.data, m.data[:, 1:])
    assert right.data.flags.c_contiguous and left.data.flags.c_contiguous
    w = Tensor(np.arange(9.0).reshape(3, 3))
    ops.add(ops.sum_all(left), ops.sum_all(ops.hadamard(right, w))).backward()
    assert np.array_equal(m.grad, np.hstack([np.ones((3, 1)), w.data]))


@pytest.mark.parametrize("start, stop", [(-1, 2), (2, 2), (0, 5)])
def test_column_block_out_of_range(start, stop):
    with pytest.raises(T.ShapeError):
        T.column_block(Tensor(np.zeros((2, 4))), start, stop)


# Columns repeat within a lookup and are shared across lookups.
LOOKUPS = [[5, 1, 5, 5, 0], [1, 7, 7, 2, 5], [9, 0]]


def lookup_loss(select, m, weights, dense_first=None):
    """Weighted tanh of each lookup of ``m``, summed; optionally plus a
    dense use of ``m`` before or after the lookups."""
    terms = [ops.sum_all(ops.hadamard(ops.tanh(select(m, idx)), w))
             for idx, w in zip(LOOKUPS, weights)]
    if dense_first is not None:
        dense = ops.sum_all(ops.hadamard(m, m))
        terms = [dense] + terms if dense_first else terms + [dense]
    total = terms[0]
    for term in terms[1:]:
        total = ops.add(total, term)
    return total


def lookup_grads(source, count, dense_first=None):
    """``.grad`` of a 3x10 matrix (or of the leaf under a computed one)
    through the first ``count`` lookups, compact path then dense path."""
    rng = np.random.default_rng(11)
    m = rand(3, 10, rng)
    weights = [Tensor(rng.uniform(-1, 1, (3, len(idx)))) for idx in LOOKUPS[:count]]
    out = []
    for select in (T.select_columns, ops.select_columns):
        m.zero_grad()
        lookup_loss(select, source(m), weights, dense_first).backward()
        cols = m.compact_grad[0]  # read before ``.grad`` makes it dense
        out.append((m.grad.tobytes(), None if cols is None else cols.tolist()))
    return out


@pytest.mark.parametrize("count", [1, 2, 3])
def test_compact_lookup_grad_is_the_dense_scatter_bitwise(count):
    (compact, cols), (dense, _) = lookup_grads(lambda m: m, count)
    assert compact == dense
    assert cols == sorted({c for idx in LOOKUPS[:count] for c in idx})


@pytest.mark.parametrize("dense_first", [True, False])
def test_compact_lookup_grad_mixed_with_dense_use(dense_first):
    # A dense adjoint and compact ones meet in either order; the leaf's
    # gradient is then dense and names no columns.
    (compact, cols), (dense, _) = lookup_grads(lambda m: m, 3, dense_first)
    assert compact == dense
    assert cols is None


@pytest.mark.parametrize("dense_first", [None, True, False])
def test_compact_lookup_grad_through_computed_matrix(dense_first):
    # Lookups of tanh(m): the compact adjoint reaches a non-leaf node,
    # which densifies it before its own backward.
    (compact, cols), (dense, _) = lookup_grads(ops.tanh, 3, dense_first)
    assert compact == dense
    assert cols is None


def test_compact_lookup_grad_accumulates_over_backward_calls():
    rng = np.random.default_rng(12)
    m = rand(3, 10, rng)
    weights = [Tensor(rng.uniform(-1, 1, (3, len(idx)))) for idx in LOOKUPS]
    loss = lookup_loss(T.select_columns, m, weights)
    loss.backward()
    assert m.compact_grad[0].tolist() == [0, 1, 2, 5, 7, 9]
    first = m.grad.copy()
    loss.backward()
    assert np.array_equal(m.grad, 2 * first)
    assert m.compact_grad[0] is None  # accumulated: any column
    m.zero_grad()
    assert m.grad is None and m.compact_grad == (None, None)


def test_compact_grad_is_the_dense_grad_in_the_used_columns():
    # After lookups alone the leaf keeps one block; ``compact_grad`` hands
    # it out, and the dense ``grad``, built on the first read, holds the
    # same bits in those columns and zeros elsewhere.
    rng = np.random.default_rng(14)
    m = rand(3, 10, rng)
    weights = [Tensor(rng.uniform(-1, 1, (3, len(idx)))) for idx in LOOKUPS]
    lookup_loss(T.select_columns, m, weights).backward()
    cols, block = m.compact_grad
    assert cols.dtype == np.intp and list(cols) == [0, 1, 2, 5, 7, 9]
    assert m.compact_grad[1] is block  # kept, not rebuilt
    dense = m.grad
    assert dense.shape == m.shape and m.grad is dense
    assert dense[:, cols].tobytes() == block.tobytes()
    rest = [c for c in range(10) if c not in cols]
    assert not np.any(dense[:, rest])
    assert m.compact_grad[0] is None and m.compact_grad[1] is dense  # dense from now on
    m.grad = dense.copy()
    assert m.compact_grad[0] is None and m.compact_grad[1] is m.grad
    m.zero_grad()
    assert m.compact_grad == (None, None)


def test_flat_leaves_keep_a_plain_leafs_gradient_bits():
    # Leaves of one FlatParams layout against plain leaves of the same
    # values: the first write copies the adjoint (its -0.0 entries too),
    # a second backward adds, a dropped gradient reads as zeros in the
    # layout's gradient buffer (also one set by hand and then dropped,
    # and on a second read), and lookups of a flat leaf land dense.
    rng = np.random.default_rng(15)
    x0, m0 = rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (3, 10))
    w = rng.uniform(-1, 1, (2, 3))
    w[0, :] = -0.0
    weights = [Tensor(rng.uniform(-1, 1, (3, len(idx)))) for idx in LOOKUPS]
    flat = T.FlatParams(np.concatenate([x0.ravel(), m0.ravel()]), [(2, 3), (3, 10)])
    plain = [Tensor(x0, requires_grad=True), Tensor(m0, requires_grad=True)]
    assert [t.data.base is flat.values for t in flat.leaves] == [True, True]

    def loss(x, m):
        return ops.add(ops.sum_all(ops.hadamard(x, Tensor(w))),
                       lookup_loss(T.select_columns, m, weights))

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    actions = ("backward", "backward", "drop x", "backward", "drop both", "set and drop x",
               "backward", "set and drop x")
    for action in actions:
        for x, m in (flat.leaves, plain):
            if action == "backward":
                loss(x, m).backward()
            elif action == "drop x":
                x.zero_grad()
            elif action == "drop both":
                x.grad = None
                m.zero_grad()
            else:
                x.grad = np.full(x.shape, 5.0)
                x.grad = None
        expected = [np.zeros(t.shape) if t.grad is None else t.grad for t in plain]
        for _ in range(2):
            buffer = flat.gradient()
            assert same(buffer, np.concatenate([e.ravel() for e in expected])), action
        for t, ref in zip(flat.leaves, plain):
            assert (t.grad is None) == (ref.grad is None), action
            if t.grad is not None:
                assert same(t.grad, ref.grad) and t.grad.base is flat.grads
        if action == "backward":
            assert np.signbit(flat.leaves[0].grad[0]).all()  # the -0.0 entries kept


def weigh(leaves, weights, factor):
    """factor * sum_i sum(leaves[i] * weights[i]) as one operation whose
    backward pass computes each leaf's product straight into its run
    when ``T.claim_runs`` allows, and returns the products otherwise."""
    total = sum(float(np.sum(t.data * w)) for t, w in zip(leaves, weights))

    def vjp(g):
        scale = g[0, 0] * factor
        if T.claim_runs(leaves):
            for t, w in zip(leaves, weights):
                np.multiply(w, scale, out=t._grad_view)
            return (None,) * len(leaves)
        return tuple(w * scale for w in weights)

    return T._make(np.array([[factor * total]]), tuple(leaves), vjp)


def test_group_span_is_its_run_of_the_layout():
    shapes = [(2, 3), (3, 1), (1, 4), (2, 2)]
    flat = T.FlatParams(np.zeros(sum(r * c for r, c in shapes)), shapes)
    a, b, c, d = flat.leaves
    assert flat.starts == [0, 6, 9, 13, 17]
    assert T.FlatParams.span([b, c]) == (flat, 6, 13)
    assert T.FlatParams.span([c, b]) is None and T.FlatParams.span([a, c]) is None
    assert T.FlatParams.span([d, a]) is None
    assert T.FlatParams.span([Tensor(np.zeros((1, 1)))]) is None
    assert T.FlatParams.of([a, b, c, d]) is flat and T.FlatParams.of([a, b, c]) is None
    group = T.ParamGroup("g", {"g.x.u": b, "g.x.v": c, "g.y": d, "h": a})
    assert group.span == (flat, 6, 17) and group.x.span == (flat, 6, 13)
    assert T.ParamGroup("g", {"g.y": d, "g.u": b}).span is None


def test_claimed_runs_keep_the_copy_paths_bits():
    # The same operation on the leaves of one layout, whose runs it claims
    # while no leaf has a gradient, and on plain leaves, whose products
    # backward copies or adds in. The weights hold -0.0 and a zero factor
    # makes every product a signed zero, so a claimed run that added
    # into zeros instead of taking the product would lose signs.
    rng = np.random.default_rng(16)
    shapes = [(2, 3), (3, 1), (1, 4)]
    weights = [rng.uniform(-1, 1, shape) for shape in shapes]
    weights[0][1] = -0.0
    values = [rng.uniform(-1, 1, shape) for shape in shapes]
    flat = T.FlatParams(np.concatenate([v.ravel() for v in values]), shapes)
    plain = [Tensor(v, requires_grad=True) for v in values]
    hand = rng.uniform(-1, 1, shapes[1])
    plan = [("fresh", 1.0), ("again", 0.5), ("fresh", 0.0), ("again", 0.0),
            ("one set by hand", 2.0), ("one set by hand", 0.0), ("fresh", -0.0)]
    for before, factor in plan:
        for leaves in (flat.leaves, plain):
            if before != "again":
                for t in leaves:
                    t.zero_grad()
            if before == "one set by hand":
                leaves[1].grad = hand
            weigh(leaves, weights, factor).backward()
        for t, ref in zip(flat.leaves, plain):
            assert t.grad.tobytes() == ref.grad.tobytes(), (before, factor)
            assert t.grad.base is flat.grads
        if before == "fresh" and factor == 0.0:
            signs = np.signbit(flat.leaves[0].grad)
            assert signs.any() and np.array_equal(signs, np.signbit(weights[0] * factor))


def test_owning_wraps_without_a_copy():
    data = np.zeros((2, 3))
    t = Tensor.owning(data, requires_grad=True)
    assert t.data is data and t.requires_grad and t.grad is None


def test_column_grad_sums_with_arrays_from_either_side():
    rng = np.random.default_rng(13)
    a = T.ColumnGrad((2, 4), [([0, 3], rng.uniform(-1, 1, (2, 2)))])
    b = T.ColumnGrad((2, 4), [([1, 3], rng.uniform(-1, 1, (2, 2)))])
    arr = rng.uniform(-1, 1, (2, 4))
    both = a + b
    assert isinstance(both, T.ColumnGrad)
    assert np.array_equal(both.dense(), a.dense() + b.dense())
    assert np.array_equal(arr + a, arr + a.dense())
    assert np.array_equal(a + arr, a.dense() + arr)
    assert np.array_equal(a.dense()[:, [1, 2]], np.zeros((2, 2)))
    one = both.merged()
    assert len(one.parts) == 1 and list(one.parts[0][0]) == [0, 1, 3]
    assert one.dense().tobytes() == both.dense().tobytes()


# -- backward semantics --------------------------------------------------------------


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ops.sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_square_is_2x():
    x = Tensor([[1.5], [-2.0]], requires_grad=True)
    ops.sum_all(ops.hadamard(x, x)).backward()
    assert np.array_equal(x.grad, 2 * x.data)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 1)), requires_grad=True)
    with pytest.raises(T.ShapeError):
        x.backward()


def test_repeated_backward_accumulates():
    x = Tensor([[2.0]], requires_grad=True)
    loss = ops.sum_all(ops.hadamard(x, x))
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, 2 * first)


def test_tape_determinism_bitwise():
    rng = np.random.default_rng(23)
    a_data = rng.uniform(-1, 1, (4, 3))
    b_data = rng.uniform(-1, 1, (3, 2))
    grads = []
    for _ in range(2):
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        ops.sum_all(ops.tanh(ops.matmul(a, b))).backward()
        grads.append((a.grad.copy(), b.grad.copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_tape_inputs_precede_operations():
    x = Tensor([[1.0]], requires_grad=True)
    y = ops.tanh(x)
    z = ops.sum_all(y)
    tape = T.topo_order(z)
    assert tape.index(x) < tape.index(y) < tape.index(z)


def test_linear_ops_gradient_is_value_independent():
    # backward through concat/add/mean is the same linear map for any values
    rng = np.random.default_rng(29)
    grads = []
    for _ in range(2):
        a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        ops.sum_all(ops.mean_cols(ops.concat([ops.add(a, b), a]))).backward()
        grads.append((a.grad.copy(), b.grad.copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_detached_tensor_gets_no_grad():
    x = Tensor([[1.0]], requires_grad=True)
    with T.no_grad():
        frozen = ops.scale(x, 1.0)
    out = ops.sum_all(ops.hadamard(frozen, frozen))
    assert out.requires_grad is False
    assert frozen.grad is None


def test_no_grad_records_nothing_and_keeps_values():
    rng = np.random.default_rng(5)
    a, b = rand(3, 2, rng), rand(2, 1, rng)
    recorded = ops.tanh(ops.matmul(a, b))
    with T.no_grad():
        plain = ops.tanh(ops.matmul(a, b))
    assert np.array_equal(plain.data, recorded.data)
    assert plain._parents == () and plain._vjp is None
    assert plain.requires_grad is False
    assert recorded._parents != ()


def test_no_grad_nests_and_restores_on_exception():
    x = Tensor([[2.0]], requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            with T.no_grad():
                pass
            assert ops.scale(x, 3.0).requires_grad is False
            raise RuntimeError("inside")
    out = ops.scale(x, 3.0)
    assert out.requires_grad is True
    out.backward()
    assert x.grad[0, 0] == 3.0


# -- per-op gradient exactness on random inputs -----------------------------------


def test_gradient_exactness_sweep():
    rng = np.random.default_rng(31)
    cases = []
    x = rand(4, 3, rng)
    y = rand(4, 3, rng)
    cases.append((lambda: ops.sum_all(ops.sigmoid(x)), [x]))
    cases.append((lambda: ops.sum_all(ops.tanh(x)), [x]))
    cases.append((lambda: ops.sum_all(ops.hadamard(x, y)), [x, y]))
    cases.append((lambda: ops.sum_all(ops.sub(x, y)), [x, y]))
    w = rand(2, 4, rng)
    cases.append((lambda: ops.sum_all(ops.matmul(w, x)), [w, x]))
    v = rand(5, 1, rng)
    p = Tensor(rng.uniform(-1, 1, (5, 1)))
    cases.append((lambda: ops.sum_all(ops.hadamard(ops.softmax(v), p)), [v]))
    cases.append((lambda: ops.sum_all(ops.broadcast_repeat(ops.mean_cols(x), 4)), [x]))
    for f, params in cases:
        assert T.grad_check(f, params) < 1e-6


# -- nll / scale --------------------------------------------------------------------


def test_nll_from_logits_matches_direct_form():
    rng = np.random.default_rng(37)
    z = Tensor(rng.uniform(-3, 3, (4, 1)))
    p = ops.softmax(z).data
    for gold in range(4):
        direct = -math.log(p[gold, 0])
        assert abs(T.nll_from_logits(z, gold).item() - direct) < 1e-12


def test_nll_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(41)
    z = rand(3, 1, rng)
    T.nll_from_logits(z, 1).backward()
    p = ops.softmax(Tensor(z.data)).data
    p[1, 0] -= 1.0
    assert np.max(np.abs(z.grad - p)) < 1e-12


def test_nll_target_out_of_range():
    with pytest.raises(IndexError):
        T.nll_from_logits(Tensor([0.0, 0.0]), 2)


def test_scale_doubles_value_and_gradient():
    x = Tensor([[1.0], [2.0]], requires_grad=True)
    ops.scale(ops.sum_all(ops.hadamard(x, x)), 2.0).backward()
    doubled = x.grad.copy()
    x.zero_grad()
    ops.sum_all(ops.hadamard(x, x)).backward()
    assert np.array_equal(doubled, 2 * x.grad)


# -- grad_check itself ---------------------------------------------------------------


def test_grad_check_exact_on_sum():
    # at x = 0 the central difference (h - (-h)) / 2h is exact in floating point
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    assert T.grad_check(lambda: ops.sum_all(x), [x]) == 0.0
    y = Tensor(np.random.default_rng(43).uniform(-1, 1, (3, 2)), requires_grad=True)
    assert T.grad_check(lambda: ops.sum_all(y), [y]) < 1e-10


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(47)
    z = rand(3, 1, rng)
    assert T.grad_check(lambda: T.nll_from_logits(z, 2), [z]) < 1e-6


def test_grad_check_rejects_non_finite():
    x = Tensor([[np.inf]], requires_grad=True)
    with pytest.raises(FloatingPointError):
        T.grad_check(lambda: ops.sum_all(x), [x])


def test_grad_check_flags_broken_gradient():
    # a wrong analytic gradient must be reported, not masked
    x = Tensor([[0.5]], requires_grad=True)

    def broken():
        out = ops.tanh(x)
        out._vjp = lambda g: (g * 0.123,)
        return ops.sum_all(out)

    assert T.grad_check(broken, [x]) > 1e-2
