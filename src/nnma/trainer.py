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
from typing import Callable

import numpy as np

from .corpus import Dataset, TaskSpec
from .metrics import evaluate
from .rng import Rng
from .tensor import Tensor


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

    Per step: v <- momentum * v - rate * grad; theta <- theta + v.
    A parameter whose grad is unset contributes a zero gradient (its
    velocity still decays). Where the gradient names its nonzero columns
    (``grad_columns``, from embedding lookups), only those columns are
    subtracted: elsewhere ``v - rate * 0.0`` is ``v`` bit for bit.
    """

    def __init__(self, params: list[Tensor], rate: float, momentum: float):
        self.params = params
        self.rate = rate
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        for p, v in zip(self.params, self.velocities):
            v *= self.momentum
            grad = p.grad
            if grad is not None:
                if grad.shape != v.shape:
                    raise ValueError(f"gradient shape {grad.shape} != "
                                     f"parameter shape {v.shape}")
                cols = p.grad_columns
                if cols is None:
                    v -= self.rate * grad
                else:
                    v[:, cols] -= self.rate * grad[:, cols]
            p.data += v


def dropout_mask(dim: int, q: float, rng: Rng) -> Tensor:
    """Inverted-dropout mask: each entry is 0 with probability q and
    1/(1-q) otherwise, so no rescaling is needed at evaluation time."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {q}")
    u = rng.uniform_matrix(dim, 1, 0.0, 1.0)
    return Tensor(np.where(u < q, 0.0, 1.0 / (1.0 - q)))


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
    for spec, p in zip(model.table, model.parameters()):
        grad, cols = p.grad, p.grad_columns
        if grad is not None and not np.isfinite(grad if cols is None
                                                 else grad[:, cols]).all():
            raise TrainingDiverged(f"non-finite gradient in {spec.name}")
    opt_net.step()
    opt_emb.step()
    return value


def run_epoch(model, train: Dataset, gold: list[int], weights: list[float],
              opt_net: MomentumSgd, opt_emb: MomentumSgd, hp: Hyperparams,
              rng: Rng) -> float:
    """One pass over ``train`` in an order shuffled from ``rng``, one
    ``train_step`` per instance, each with a fresh dropout mask; returns
    the mean (weighted) loss. A divergence names the instance."""
    order = list(range(len(train)))
    rng.shuffle(order)
    total = 0.0
    for idx in order:
        mask = dropout_mask(6 * model.d, hp.dropout, rng)
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
    best_snapshot = [p.data.copy() for p in model.parameters()]
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
            best_snapshot = [p.data.copy() for p in model.parameters()]
            report.best_epoch = epoch
            report.best_dev_f1 = best_f1
            streak = 0
        else:
            streak += 1
        if streak >= hp.patience:
            report.stopped_early = epoch < hp.max_epochs
            break

    for p, saved in zip(model.parameters(), best_snapshot):
        p.data[:] = saved
    return report
