"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every value is a double-precision matrix; vectors are single-column
matrices. The model's layers are a few large operations, each made by
``_make`` from a numpy forward pass and a hand-written backward pass
(the encoders, the attention stack, the classifier); this module holds
the engine and the small operations around them (lookup, softmax, loss).
Each operation records its inputs and a
vector-Jacobian product (except inside ``no_grad()``, for forward
passes that no backward pass will use), and ``backward()`` on a 1x1
result walks the recorded graph once in reverse topological order,
accumulating exact partial derivatives into ``.grad`` of every leaf
that requires them. A leaf is a tensor no recorded operation produced,
such as a parameter or an input; intermediate results pass their
adjoint on and keep no ``.grad``. A column lookup's backward yields a
compact ``ColumnGrad`` (the touched columns only), so a parameter read
a few columns at a time never sees a dense adjoint; its ``.grad`` is
still a dense array, and ``grad_columns`` names the columns that can be
nonzero.

``grad_check`` compares those partials against central finite
differences and is the verification oracle for everything built on top.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class Tensor:
    """A 2-D float64 array plus the bookkeeping needed for backward.

    Attributes:
        data: the (rows, cols) float64 array. 1-D input is treated as a
            column vector, scalars as 1x1.
        requires_grad: whether backward should deliver a gradient here.
        grad: accumulated partial derivatives, same shape as ``data``;
            ``None`` until a backward pass reaches this tensor, and always
            ``None`` on the result of a recorded operation: only leaves
            (parameters and inputs) receive one. Repeated backward calls
            keep adding; call ``zero_grad`` between steps.
        grad_columns: sorted columns outside which ``grad`` is zero, set
            when one backward pass reached this leaf only through column
            lookups; ``None`` means any column. Setting ``grad`` (also
            ``+=`` on it) or accumulating a second backward pass resets it
            to ``None``, so it never restricts a gradient it did not see.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_grad_columns", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D at most, got ndim={arr.ndim}")
        self._adopt(arr, requires_grad)

    def _adopt(self, arr: np.ndarray, requires_grad: bool) -> None:
        self.data = arr
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None
        self._grad_columns: list[int] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros((rows, cols)), requires_grad=requires_grad)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value
        self._grad_columns = None

    @property
    def grad_columns(self) -> list[int] | None:
        return self._grad_columns

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- backward --------------------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from this scalar.

        Gradients are *added* into ``.grad`` of each leaf that requires
        one; a recorded operation's result only passes its adjoint on to
        its inputs and gets no ``.grad`` (shared parameters may be
        reached along several paths, and a second backward call without
        ``zero_grad`` doubles them, by contract). Each recorded operation
        is visited exactly once, in reverse topological order; the order
        is a pure function of graph construction, so repeated runs are
        bitwise identical.
        """
        if self.data.shape != (1, 1):
            raise ShapeError(f"backward() starts from a 1x1 scalar, got {self.data.shape}")
        tape = topo_order(self)
        adjoint: dict[int, np.ndarray | ColumnGrad] = {id(self): np.ones((1, 1))}
        for node in reversed(tape):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is not None:
                if type(g) is ColumnGrad:
                    g = g.dense()
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    prev = adjoint.get(key)
                    adjoint[key] = pg if prev is None else prev + pg
                continue
            if not node.requires_grad:
                continue
            if type(g) is ColumnGrad:
                if node._grad is None:
                    node._grad = g.dense()
                    node._grad_columns = g.columns()
                    continue
                g = g.dense()
            if node._grad is None:
                node._grad = g.copy()
            else:
                node._grad += g
            node._grad_columns = None


class ColumnGrad:
    """Adjoint of a matrix that is zero outside a few columns.

    ``parts`` lists ``(cols, block)`` pairs, each from one column lookup
    in the order the backward pass produced them: ``cols`` are sorted,
    distinct column indices and ``block`` is the (rows x len(cols))
    adjoint for them. ``dense()`` starts from zeros and adds the parts
    in that order, the same float additions as summing each lookup's
    dense scatter left to right, so the two paths agree bitwise.
    Adding a dense array from either side densifies first.
    """

    __slots__ = ("shape", "parts")
    __array_ufunc__ = None  # ndarray + ColumnGrad falls through to __radd__

    def __init__(self, shape: tuple[int, int], parts: list[tuple[list[int], np.ndarray]]):
        self.shape = shape
        self.parts = parts

    def columns(self) -> list[int]:
        return sorted({c for cols, _ in self.parts for c in cols})

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for cols, block in self.parts:
            out[:, cols] += block
        return out

    def __add__(self, other):
        if type(other) is ColumnGrad:
            return ColumnGrad(self.shape, self.parts + other.parts)
        return self.dense() + other

    def __radd__(self, other):
        return other + self.dense()


class ParamGroup:
    """The tensors of ``named`` (a mapping from ``model.parameter_table``
    names, in the table's order) whose names start with ``prefix`` and a
    dot. Each next name component is an attribute: the tensor itself, or
    the group one level down, so ``ParamGroup("enc1", named).forward.W_i``
    is ``named["enc1.forward.W_i"]``."""

    def __init__(self, prefix: str, named: Mapping[str, Tensor]):
        start = prefix + "."
        self._tensors = []
        for name, t in named.items():
            if name.startswith(start):
                self._tensors.append(t)
                head, dot, _ = name[len(start):].partition(".")
                if not dot:
                    setattr(self, head, t)
                elif head not in vars(self):
                    setattr(self, head, ParamGroup(start + head, named))

    def tensors(self) -> list[Tensor]:
        """Every tensor of the group, in the table's order."""
        return list(self._tensors)


def topo_order(root: Tensor) -> list[Tensor]:
    """Tape for the reverse sweep: every tensor reachable from ``root``
    through grad-requiring edges, with inputs preceding the operations
    that consume them. Iterative so sequence length never hits the
    recursion limit."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    push, pop = stack.append, stack.pop
    while stack:
        node, expanded = pop()
        if expanded:
            order.append(node)
            continue
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        push((node, True))
        if node._vjp is not None:
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    push((parent, False))
    return order


_recording = True


@contextmanager
def no_grad():
    """Within the block, operations record no parents and no vjp: their
    results are plain values, as if no input required a gradient. For
    forward passes whose graph no backward pass will use. Nests, and the
    previous state comes back on exit, also on an exception."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def recording(parents: Sequence[Tensor]) -> bool:
    """Whether an operation on ``parents`` is recorded: some parent
    requires a gradient and ``no_grad`` is not active. An operation that
    keeps values only its backward pass reads can skip them otherwise."""
    return _recording and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Result of one operation: ``vjp`` maps the result's adjoint to one
    adjoint per parent (``None`` for none). Recorded only when
    ``recording(parents)``. ``data`` is kept as it is, not copied, so it
    must be a 2-D float64 array the operation made itself, never a view
    of an input."""
    out = Tensor.__new__(Tensor)
    out._adopt(data, False)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# -- primitive operations -----------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Softmax of each column, stabilized by subtracting the column's
    maximum: one distribution per column, as the classifier gives one
    per instance of a batch."""
    shifted = x.data - x.data.max(axis=0)
    e = np.exp(shifted)
    out = e / e.sum(axis=0)

    def vjp(g: np.ndarray):
        return (out * (g - (g * out).sum(axis=0)),)

    return _make(out, (x,), vjp)


# -- segments: a batch of instances side by side ------------------------------
#
# A batch of B instances is carried by the same 2-D tensors as one
# instance: each instance owns a run of consecutive columns (a word
# matrix) or rows (an attention column), its segment, and a per-instance
# vector is one column of a B-column matrix. ``lengths`` lists the
# segment sizes in order; None is a single segment, one instance.


def segments(total: int, lengths: Sequence[int] | None) -> list[int]:
    """Segment sizes that split ``total`` columns (or rows), checked:
    each at least 1, adding up to ``total``. None gives ``[total]``."""
    sizes = [total] if lengths is None else [int(n) for n in lengths]
    if not sizes or min(sizes) < 1 or sum(sizes) != total:
        raise ShapeError(f"segments {sizes} do not split {total} into non-empty parts")
    return sizes


def spans(lengths: Sequence[int]) -> list[tuple[int, int]]:
    """``(start, stop)`` of each segment, for slicing."""
    bounds, start = [], 0
    for n in lengths:
        bounds.append((start, start + n))
        start += n
    return bounds


# -- lookups and the loss -------------------------------------------------------


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a plain float constant."""
    factor = float(factor)

    def vjp(g: np.ndarray):
        return (g * factor,)

    return _make(x.data * factor, (x,), vjp)


def select_columns(m: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather columns by index; backward scatter-adds into a compact
    ``ColumnGrad`` over the distinct columns, so a column selected twice
    accumulates both contributions and no dense adjoint is built. When no
    column repeats, the block is ``g``'s columns in sorted index order,
    taken without the scatter-add."""
    idx = list(indices)
    if len(idx) == 0:
        raise ShapeError("select_columns with no indices")
    for i in (min(idx), max(idx)):
        if not 0 <= i < m.cols:
            raise ShapeError(f"column index {i} out of range for {m.shape}")
    out = m.data[:, idx]

    def vjp(g: np.ndarray):
        cols = sorted(set(idx))
        if len(cols) == len(idx):
            block = g[:, np.argsort(idx)]
        else:
            where = {c: j for j, c in enumerate(cols)}
            block = np.zeros((m.rows, len(cols)))
            np.add.at(block, (slice(None), [where[i] for i in idx]), g)
        return (ColumnGrad(m.shape, [(cols, block)]),)

    return _make(out, (m,), vjp)


def column_block(m: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start`` to ``stop - 1``, copied in the memory order of
    ``m`` (C-contiguous from a C-contiguous ``m``); backward places the
    adjoint in a dense zero matrix. For a block of a small matrix, where a
    dense adjoint costs less than ``select_columns``' compact scatter."""
    if not 0 <= start < stop <= m.cols:
        raise ShapeError(f"column block {start}:{stop} out of range for {m.shape}")
    out = m.data[:, start:stop].copy()

    def vjp(g: np.ndarray):
        full = np.zeros(m.shape)
        full[:, start:stop] = g
        return (full,)

    return _make(out, (m,), vjp)


def nll_from_logits(logits: Tensor, target: int) -> Tensor:
    """Negative log of softmax(logits)[target], computed as
    ``logsumexp(logits) - logits[target]`` for stability."""
    if logits.cols != 1:
        raise ShapeError(f"nll_from_logits expects a column vector, got {logits.shape}")
    if not 0 <= target < logits.rows:
        raise IndexError(f"target {target} out of range for {logits.rows} classes")
    z = logits.data
    m = z.max()
    e = np.exp(z - m)
    total = e.sum()
    out = np.array([[m + np.log(total) - z[target, 0]]])

    def vjp(g: np.ndarray):
        p = e / total
        p[target, 0] -= 1.0
        return (g[0, 0] * p,)

    return _make(out, (logits,), vjp)


# -- gradient checking ---------------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-4) -> float:
    """Worst disagreement between analytic and numerical gradients.

    ``f`` rebuilds the scalar loss from the current parameter values and
    must be deterministic (disable dropout while checking). For every
    entry of every parameter the analytic partial is compared against
    the central difference ``(f(t+h) - f(t-h)) / 2h``; the per-entry
    error is ``|a - n| / max(1, |a|, |n|)`` (relative above 1, absolute
    below), and the maximum over all entries is returned.
    """
    for p in params:
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("grad_check: loss is not finite")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f().item()
            flat[i] = orig - step
            f_minus = f().item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError("grad_check: perturbed loss is not finite")
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
            if err > worst:
                worst = err
    return float(worst)
