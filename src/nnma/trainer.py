"""SGD-with-momentum training loop with dev-set early stopping.

Two optimizer groups share one momentum constant but use different
learning rates: the embedding matrix moves at the (smaller) embedding
rate, everything else at the network rate. Updates are per instance,
in an order reshuffled every epoch from the run's generator; each
training forward pass gets a fresh inverted-dropout mask over the final
feature vector.

After every epoch the dev set is scored with macro-F1; the best-scoring
parameters are kept and restored at the end. Training stops after
``patience`` consecutive epochs without strict improvement, or at
``max_epochs``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .corpus import Dataset, TaskSpec
from .metrics import evaluate
from .rng import Rng
from .tensor import FlatParams, Tensor, runs


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient; the message names epoch, instance and parameter."""


@dataclass
class Hyperparams:
    """Training configuration; defaults follow the reference setup."""

    momentum: float = 0.9        # velocity decay delta
    rate: float = 0.01           # learning rate for network parameters
    embedding_rate: float = 0.002  # learning rate for the embedding matrix
    dropout: float = 0.1         # zeroing probability q on the feature vector
    d: int = 50                  # encoder hidden size per direction
    d_m: int = 200               # memory vector size
    d_e: int = 50                # word embedding size
    k: int = 2                   # attention levels
    max_epochs: int = 100
    patience: int = 10
    seed: int = 1

    def validate(self) -> None:
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not all(math.isfinite(r) and r > 0 for r in (self.rate, self.embedding_rate)):
            raise ValueError(f"learning rates must be finite and positive, got rate "
                             f"{self.rate}, embedding_rate {self.embedding_rate}")
        if self.k < 1:
            raise ValueError(f"need at least one attention level, got {self.k}")
        if min(self.d, self.d_m, self.d_e) < 1:
            raise ValueError("dimensions must be positive")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


class MomentumSgd:
    """Classical-momentum SGD over one parameter group.

    Per step: v <- momentum * v - rate * grad; theta <- theta + v, over
    the whole group in one ``sweep``. The group is one buffer: several
    tensors must be the leaves of one ``tensor.FlatParams`` layout, whose
    values, gradients and velocities (``velocities``, views of one flat
    array) are each read as a single array; a lone tensor is a group of
    its own.

    A parameter whose grad is unset contributes a zero gradient (its
    velocity still decays): in a flat layout its gradient run holds
    zeros, and ``v - rate * 0.0`` is ``v`` bit for bit. While a lone
    tensor's gradient is kept compact (``compact_grad``, from embedding
    lookups), the step reads only the block of its used columns, never
    the dense ``grad``, and subtracts it in those columns alone.
    """

    def __init__(self, params: list[Tensor], rate: float, momentum: float):
        self.params = params
        self.rate = rate
        self.momentum = momentum
        self._flat = FlatParams.of(params)
        if self._flat is not None:
            self._theta = self._flat.values
        elif len(params) == 1:
            self._theta = params[0].data
        else:
            raise ValueError("several parameters must be the leaves of one FlatParams")
        self._v = np.zeros(self._theta.shape)
        self._velocities = runs(self._v.reshape(-1), [p.shape for p in params])

    @property
    def velocities(self) -> list[np.ndarray]:
        """Each parameter's velocity, a view of the group's one array;
        assigning a list copies its arrays in."""
        return list(self._velocities)

    @velocities.setter
    def velocities(self, arrays: list[np.ndarray]) -> None:
        if [np.shape(a) for a in arrays] != [v.shape for v in self._velocities]:
            raise ValueError("velocities do not match the parameters' shapes")
        for v, a in zip(self._velocities, arrays):
            v[...] = a

    def gradient(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(columns, grad)`` as the step reads it: the flat gradient
        buffer of a laid-out group (``columns`` None), or a lone tensor's
        ``compact_grad``."""
        if self._flat is not None:
            return None, self._flat.gradient()
        return self.params[0].compact_grad

    def step(self) -> None:
        cols, grad = self.gradient()
        sweep(self._v, self._theta, self.momentum, self.rate, grad, cols)


# Entries per sweep block, one size for both groups: a block of v, grad
# and theta stays in L2 between its passes. Timed on a 2-core Xeon (2 MiB
# L2 per core), 2^15 swept the paper network buffer (362k entries) in
# 364 us where 2^16 took 406 us, but the paper embedding matrix, whose
# 20k-entry rows make a 2^15 block one row, in 625 us where 2^16 took 600.
SWEEP_WORDS = 1 << 16


def sweep(v: np.ndarray, theta: np.ndarray, momentum: float, rate: float,
          grad: np.ndarray | None, cols: np.ndarray | None) -> None:
    """``v *= momentum; v -= rate * grad; theta += v`` in one pass over
    memory, a block of about ``SWEEP_WORDS`` entries at a time (whole
    rows of a matrix, one row if a row is longer), so each block of v is
    still in cache when theta reads it. ``grad`` None is a zero
    gradient. With ``cols``, ``grad`` is the block of those columns of a
    matrix, zero elsewhere: the used columns' new v and theta are
    computed first, from their old values, and written last. Each entry
    gets the float operations of the three whole-array passes, so the
    same bits."""
    dense = grad is not None and cols is None
    if cols is not None:
        v_used = v[:, cols]
        v_used *= momentum
        v_used -= rate * grad
        theta_used = theta[:, cols]
        theta_used += v_used
    step = max(1, SWEEP_WORDS // (v.size // len(v)))
    for r in range(0, len(v), step):
        block = v[r:r + step]
        block *= momentum
        if dense:
            block -= rate * grad[r:r + step]
        theta[r:r + step] += block
    if cols is not None:
        v[:, cols] = v_used
        theta[:, cols] = theta_used


def dropout_mask(dim: int, q: float, rng: Rng) -> Tensor:
    """Inverted-dropout mask: each entry is 0 with probability q and
    1/(1-q) otherwise, so no rescaling is needed at evaluation time."""
    return next(dropout_masks(1, dim, q, rng))


# Most generator words drawn at once for an epoch's dropout masks: large
# enough that a chunk runs on the generator's lanes (2^13 words or more),
# small enough that the chunk and its masks stay a few MB.
MASK_CHUNK_WORDS = 1 << 18


def dropout_masks(count: int, dim: int, q: float, rng: Rng) -> Iterator[Tensor]:
    """``count`` dim x 1 inverted-dropout masks (``dropout_mask``), drawn
    a chunk of about ``MASK_CHUNK_WORDS`` words at a time: one
    ``uniform_matrix`` call per chunk, whose rows are the masks' draws in
    turn. The masks are the bits of ``count`` draws of one mask each, and
    once every mask is taken the generator is where those draws leave
    it; while some are left it may be up to a chunk ahead."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {q}")
    rows = max(1, MASK_CHUNK_WORDS // dim)
    for start in range(0, count, rows):
        u = rng.uniform_matrix(min(rows, count - start), dim, 0.0, 1.0)
        for mask in np.where(u < q, 0.0, 1.0 / (1.0 - q)):
            yield Tensor(mask)


def reweight(ds: Dataset, task: TaskSpec) -> list[float]:
    """Per-instance loss weights under a task.

    Binary tasks (including the merged variant) weight each instance of
    class c by N / (C * N_c), equalizing total class mass; the four-way
    task trains unweighted.
    """
    if len(ds) == 0:
        raise ValueError("cannot reweight an empty dataset")
    if task.kind == "four_way":
        return [1.0] * len(ds)
    counts = Counter(inst.label for inst in ds.instances)
    if len(counts) < 2:
        raise ValueError(f"task needs both classes present, found {dict(counts)}")
    n = len(ds)
    c = len(counts)
    return [n / (c * counts[inst.label]) for inst in ds.instances]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_f1: float
    dev_accuracy: float


@dataclass
class TrainingReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_f1: float = 0.0
    stopped_early: bool = False


def train_step(model, instance, gold: int, weight: float,
               opt_net: MomentumSgd, opt_emb: MomentumSgd,
               mask: Tensor | None) -> float:
    """One SGD update on one instance; returns the (weighted) loss.

    Exposed separately so a training run can be reproduced step by step
    around checkpoint boundaries.
    """
    model.zero_grad()
    loss = model.loss(model.forward(instance, mask), gold, weight)
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDiverged("non-finite loss")
    loss.backward()
    for opt in (opt_emb, opt_net):
        grad = opt.gradient()[1]
        if grad is not None and not np.isfinite(grad).all():
            raise TrainingDiverged(f"non-finite gradient in {_non_finite_row(model)}")
    opt_net.step()
    opt_emb.step()
    return value


def _non_finite_row(model) -> str | None:
    """The name of the first table row whose gradient is not finite."""
    for spec, p in zip(model.table, model.parameters()):
        grad = p.compact_grad[1]
        if grad is not None and not np.isfinite(grad).all():
            return spec.name
    return None


def run_epoch(model, train: Dataset, gold: list[int], weights: list[float],
              opt_net: MomentumSgd, opt_emb: MomentumSgd, hp: Hyperparams,
              rng: Rng) -> float:
    """One pass over ``train`` in an order shuffled from ``rng``, one
    ``train_step`` per instance, each with a fresh dropout mask; returns
    the mean (weighted) loss. A divergence names the instance.

    After the shuffle the epoch draws only masks, so they are drawn in
    chunks (``dropout_masks``): the same masks and, after the epoch, the
    same generator state as one ``dropout_mask`` per step. After a
    ``TrainingDiverged`` the generator may be up to a chunk further on;
    nothing reads it then."""
    order = list(range(len(train)))
    rng.shuffle(order)
    total = 0.0
    for idx, mask in zip(order, dropout_masks(len(order), 6 * model.d, hp.dropout, rng)):
        try:
            total += train_step(model, train.instances[idx], gold[idx],
                                weights[idx], opt_net, opt_emb, mask)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"instance {idx}: {exc}") from None
    return total / len(train)


def fit(model, train: Dataset, dev: Dataset, hp: Hyperparams,
        weights: list[float] | None = None, rng: Rng | None = None,
        log: Callable[[str], None] | None = None) -> TrainingReport:
    """Full training run; the model ends at its best-dev parameters.

    ``weights`` defaults to 1 per instance (see ``reweight`` for the
    binary-task scheme). ``rng`` defaults to a fresh generator seeded
    from the hyperparameters; pass the run's generator to share one
    stream across initialization and training.
    """
    hp.validate()
    if len(train) == 0 or len(dev) == 0:
        raise ValueError("train and dev sets must be non-empty")
    if weights is None:
        weights = [1.0] * len(train)
    if len(weights) != len(train):
        raise ValueError(f"{len(weights)} weights for {len(train)} instances")
    if rng is None:
        rng = Rng(hp.seed)

    gold = [model.label_index(inst.label) for inst in train.instances]
    opt_net = MomentumSgd(model.network_parameters(), hp.rate, hp.momentum)
    opt_emb = MomentumSgd(model.embedding_parameters(), hp.embedding_rate,
                          hp.momentum)

    report = TrainingReport()
    best_snapshot = [b.copy() for b in model.buffers()]
    best_f1 = -1.0
    streak = 0

    for epoch in range(1, hp.max_epochs + 1):
        try:
            train_loss = run_epoch(model, train, gold, weights, opt_net, opt_emb, hp, rng)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"epoch {epoch}, {exc}") from None

        dev_result = evaluate(model, dev)
        stats = EpochStats(epoch, train_loss, dev_result.macro_f1,
                           dev_result.accuracy)
        report.epochs.append(stats)
        if log is not None:
            log(f"epoch {epoch} train_loss {train_loss!r} "
                f"dev_f1 {dev_result.macro_f1!r} dev_acc {dev_result.accuracy!r}")

        if dev_result.macro_f1 > best_f1:
            best_f1 = dev_result.macro_f1
            best_snapshot = [b.copy() for b in model.buffers()]
            report.best_epoch = epoch
            report.best_dev_f1 = best_f1
            streak = 0
        else:
            streak += 1
        if streak >= hp.patience:
            report.stopped_early = epoch < hp.max_epochs
            break

    for buffer, saved in zip(model.buffers(), best_snapshot):
        buffer[...] = saved
    return report
