"""The full classifier: embeddings, two encoders, attention stack,
softmax layer; plus a self-describing binary checkpoint format.

A forward pass embeds both arguments, encodes each with its own
bidirectional LSTM, runs the K-level attention stack, and classifies
the concatenated top-level features [R1; R2; R1 - R2] through a linear
layer and softmax. During training an inverted-dropout mask is applied
to that feature vector right before the linear layer.

There is one forward pass, over a batch of B instances in the segment
layout of ``tensor.segments``; training runs it with B = 1, one
instance per step. Forward-only work (evaluation, attention analysis)
runs it over length-sorted chunks of at most ``CHUNK`` instances with
no graph recorded (``forward_chunks``): fewer, larger matrix products
than one instance at a time, at the same values up to rounding.

Checkpoint layout (little-endian throughout):

    bytes 0..3   magic "NNMA"
    bytes 4..7   format version, u32
    bytes 8..15  header length in bytes, u64
    header       JSON (UTF-8, sorted keys): d, d_e, d_m, k, n, v,
                 labels (n strings), vocab (v tokens, index order)
    payload      every parameter as raw float64 row-major bytes, in
                 the order of ``parameter_table``

``parameter_table`` is the one statement of the parameter layout: the
name, shape and initialization of every tensor, in checkpoint order,
which is also the order ``create`` draws them in. Construction, the
checkpoint, the optimizer groups and ``nnma gradcheck``'s groups all
read it. The header fixes every array shape, so the payload carries no
framing; any length mismatch is a hard error and no partial model is
returned.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .attention import AttentionTrace, memory_input_width, run_stack
from .corpus import Instance
from .embeddings import EmbeddingMatrix, Vocabulary, embed_sequence
from .recurrent import encode_pair
from .rng import Rng
from .tensor import (ParamGroup, ShapeError, Tensor, _make, nll_from_logits, no_grad, scale,
                     softmax)

MAGIC = b"NNMA"
FORMAT_VERSION = 1
CHUNK = 16  # most instances in one forward-only batch


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint data."""


class ParamSpec(NamedTuple):
    """One row of the parameter table. ``name`` is dotted, its first
    component the group (``embeddings``, ``enc1``, ``enc2``, ``level1``
    to ``levelK``, ``classifier``); ``init`` is ``embedding`` (the
    embedding scheme), ``xavier`` (``xavier_uniform``) or ``zeros``."""

    name: str
    shape: tuple[int, int]
    init: str

    @property
    def group(self) -> str:
        return self.name.partition(".")[0]


def parameter_table(d_e: int, d: int, d_m: int, k: int, n: int,
                    v: int) -> Iterator[ParamSpec]:
    """The rows for every parameter of a model with these dimensions
    (n labels, v vocabulary entries), in checkpoint and draw order: the
    embeddings, each encoder's forward then backward direction, k
    attention levels, the classifier. The layers take their tensors by
    these names through ``tensor.ParamGroup``, so the names and their
    order are stated here alone. Rows are made as they are read, so a
    reader can stop early."""
    yield ParamSpec("embeddings", (d_e, v), "embedding")
    for name in ("enc1.forward", "enc1.backward", "enc2.forward", "enc2.backward"):
        for gate in "ifoc":
            yield ParamSpec(f"{name}.W_{gate}", (d, d_e + d), "xavier")
        for gate in "ifoc":
            yield ParamSpec(f"{name}.b_{gate}", (d, 1), "zeros")
    for level in range(1, k + 1):
        yield ParamSpec(f"level{level}.w_m", (d_m, memory_input_width(level, d, d_m)), "xavier")
        for arg in (f"level{level}.arg1", f"level{level}.arg2"):
            yield ParamSpec(f"{arg}.w_a", (2 * d, 2 * d), "xavier")
            yield ParamSpec(f"{arg}.w_b", (2 * d, d_m), "xavier")
            yield ParamSpec(f"{arg}.w_s", (1, 2 * d), "xavier")
    yield ParamSpec("classifier.w_p", (n, 6 * d), "xavier")
    yield ParamSpec("classifier.b_p", (n, 1), "zeros")


def xavier_uniform(rows: int, cols: int, rng: Rng) -> Tensor:
    """Weight matrix drawn uniform(-r, r), r = sqrt(6 / (fan_in + fan_out))
    with fan_in = cols and fan_out = rows."""
    r = math.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform_matrix(rows, cols, -r, r), requires_grad=True)


def draw(spec: ParamSpec, rng: Rng) -> Tensor:
    """A fresh tensor for a ``xavier`` or ``zeros`` row; only a ``xavier``
    row reads the generator."""
    if spec.init == "xavier":
        return xavier_uniform(*spec.shape, rng)
    if spec.init == "zeros":
        return Tensor.zeros(*spec.shape, requires_grad=True)
    raise ValueError(f"{spec.name}: no draw for init {spec.init!r}")


def classify(final: Tensor, w_p: Tensor, b_p: Tensor,
             dropout_mask: Tensor | None = None) -> Tensor:
    """Logits W_p (f * mask) + b_p of the feature f = [R1; R2; R1 - R2]
    of each column of ``final`` = [R1; R2], as one recorded operation.
    Its backward pass takes the products in the order and operand layout
    the per-product graph (concat, sub, hadamard, matmul, add_bias) did,
    so gradients are the same bits."""
    n = final.rows // 2
    if final.rows % 2 or w_p.cols != 3 * n or b_p.shape != (w_p.rows, 1):
        raise ShapeError(f"classifier {w_p.shape} + {b_p.shape} does not fit "
                         f"features of {final.rows} rows")
    R = final.data
    feature = np.concatenate([R, R[:n] - R[n:]])
    if dropout_mask is not None:
        if dropout_mask.shape != feature.shape:
            raise ShapeError(f"dropout mask {dropout_mask.shape} for features {feature.shape}")
        feature = feature * dropout_mask.data

    def vjp(g: np.ndarray):
        dF = w_p.data.T @ g
        if dropout_mask is not None:
            dF = dF * dropout_mask.data
        dD = dF[2 * n:]
        dR = np.concatenate([dF[:n] + dD, dF[n:2 * n] - dD])
        return dR, g @ feature.T, g.sum(axis=1, keepdims=True)

    return _make(w_p.data @ feature + b_p.data, (final, w_p, b_p), vjp)


@dataclass
class Prediction:
    """Classifier output for a batch of B instances: the class
    distributions (one column each), the argmax label index of each
    (lowest index wins ties), the full attention trace, and the raw
    logits the loss is computed from."""

    probabilities: Tensor
    predicted: list[int]
    trace: AttentionTrace
    logits: Tensor

    @property
    def predicted_label(self) -> int:
        """The argmax label index of a one-instance prediction."""
        (label,) = self.predicted
        return label


class NnmaModel:
    """All learnable parameters plus the forward computation. ``table``
    holds the parameter table's rows for the model's dimensions."""

    def __init__(self, vocab: Vocabulary, label_names: list[str], d_e: int, d: int,
                 d_m: int, k: int, tensors: Sequence[Tensor]):
        """Model from its parameters, one for each ``parameter_table`` row
        of these dimensions, in the rows' order and of their shapes."""
        if len(label_names) < 2:
            raise ValueError("need at least two labels")
        if k < 1:
            raise ValueError("need at least one attention level")
        self.vocab = vocab
        self.label_names = list(label_names)
        self.d_e, self.d, self.d_m, self.k = d_e, d, d_m, k
        self.table = list(parameter_table(d_e, d, d_m, k, len(label_names), len(vocab)))
        self._tensors = list(tensors)
        if [t.shape for t in self._tensors] != [spec.shape for spec in self.table]:
            raise ShapeError("parameters do not match the parameter table")
        named = {spec.name: t for spec, t in zip(self.table, self._tensors)}
        self.embeddings = EmbeddingMatrix(named["embeddings"], d_e)
        self.enc1, self.enc2 = ParamGroup("enc1", named), ParamGroup("enc2", named)
        self.levels = [ParamGroup(f"level{level}", named) for level in range(1, k + 1)]
        self.w_p, self.b_p = named["classifier.w_p"], named["classifier.b_p"]

    @classmethod
    def create(cls, vocab: Vocabulary, label_names: list[str], d_e: int,
               d: int, d_m: int, k: int, rng: Rng,
               embeddings: EmbeddingMatrix | None = None) -> "NnmaModel":
        """Fresh model: the parameter table's rows in order, the embedding
        matrix (unless given) and every xavier row drawn from the
        generator, the zeros rows (biases) at zero."""
        tensors = []
        for spec in parameter_table(d_e, d, d_m, k, len(label_names), len(vocab)):
            if spec.init != "embedding":
                tensors.append(draw(spec, rng))
            elif embeddings is None:
                tensors.append(EmbeddingMatrix.random(vocab, d_e, rng).weights)
            else:
                tensors.append(embeddings.weights)
        return cls(vocab, label_names, d_e, d, d_m, k, tensors)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def label_index(self, name: str) -> int:
        try:
            return self.label_names.index(name)
        except ValueError:
            raise ValueError(f"unknown label {name!r}; model has {self.label_names}") from None

    # -- parameter groups ---------------------------------------------------

    def parameters(self) -> list[Tensor]:
        """Every trainable tensor, in the order of ``self.table``."""
        return list(self._tensors)

    def embedding_parameters(self) -> list[Tensor]:
        """The group trained at the embedding-specific rate: the table's
        ``embeddings`` row."""
        return [t for spec, t in zip(self.table, self._tensors) if spec.group == "embeddings"]

    def network_parameters(self) -> list[Tensor]:
        """Every other row of the table, in its order."""
        return [t for spec, t in zip(self.table, self._tensors) if spec.group != "embeddings"]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward / loss -----------------------------------------------------

    def forward(self, instance: Instance, dropout_mask: Tensor | None = None) -> Prediction:
        """One instance: ``forward_batch`` with B = 1."""
        return self.forward_batch([instance], dropout_mask)

    def forward_batch(self, instances: Sequence[Instance],
                      dropout_mask: Tensor | None = None) -> Prediction:
        """The forward pass over B instances side by side: every word of
        their first arguments in one matrix, of their second arguments
        in another, so each layer is one operation for the whole batch.
        ``dropout_mask`` multiplies the 6d x B feature matrix."""
        lengths1 = [len(inst.arg1) for inst in instances]
        lengths2 = [len(inst.arg2) for inst in instances]
        if min(lengths1 + lengths2, default=0) == 0:
            raise ValueError("cannot embed an empty token sequence")
        x1 = embed_sequence([tok for inst in instances for tok in inst.arg1],
                            self.vocab, self.embeddings)
        x2 = embed_sequence([tok for inst in instances for tok in inst.arg2],
                            self.vocab, self.embeddings)
        h1, h2 = encode_pair(x1, x2, self.enc1, self.enc2, lengths1, lengths2)
        trace = run_stack(h1, h2, self.levels, lengths1=lengths1, lengths2=lengths2)
        logits = classify(trace.final, self.w_p, self.b_p, dropout_mask)
        probabilities = softmax(logits)
        predicted = np.argmax(probabilities.data, axis=0).tolist()
        return Prediction(probabilities, predicted, trace, logits)

    def forward_chunks(self, instances: Sequence[Instance]
                       ) -> Iterator[tuple[list[int], Prediction]]:
        """Forward-only passes over ``instances``: ordered by their longer
        argument, cut into chunks of at most ``CHUNK``, each chunk one
        ``forward_batch`` with no graph recorded. Yields each chunk's
        positions in ``instances`` and its prediction."""
        order = sorted(range(len(instances)),
                       key=lambda i: max(len(instances[i].arg1), len(instances[i].arg2)))
        for start in range(0, len(order), CHUNK):
            chunk = order[start:start + CHUNK]
            with no_grad():
                prediction = self.forward_batch([instances[i] for i in chunk])
            yield chunk, prediction

    def loss(self, prediction: Prediction, gold: int, weight: float = 1.0) -> Tensor:
        """weight * (-log P[gold]), computed from the logits via
        log-sum-exp so extreme confidence stays finite."""
        if weight < 0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        return scale(nll_from_logits(prediction.logits, gold), weight)

    # -- checkpoint ----------------------------------------------------------

    def save(self, sink) -> None:
        """Write the checkpoint to a path or binary stream."""
        if hasattr(sink, "write"):
            self._write(sink)
        else:
            with open(Path(sink), "wb") as fh:
                self._write(fh)

    def _write(self, fh: IO[bytes]) -> None:
        header = {
            "d": self.d,
            "d_e": self.d_e,
            "d_m": self.d_m,
            "k": self.k,
            "labels": self.label_names,
            "n": self.n_labels,
            "v": len(self.vocab),
            "vocab": self.vocab.tokens,
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        fh.write(MAGIC)
        fh.write(np.uint32(FORMAT_VERSION).tobytes())
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for p in self.parameters():
            fh.write(p.data.astype("<f8").tobytes(order="C"))

    @classmethod
    def load(cls, source) -> "NnmaModel":
        """Read a checkpoint from a path or binary stream; every
        parameter is reproduced bitwise."""
        if hasattr(source, "read"):
            return cls._read(source)
        with open(Path(source), "rb") as fh:
            return cls._read(fh)

    @classmethod
    def _read(cls, fh: IO[bytes]) -> "NnmaModel":
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic bytes {magic!r}: not a model checkpoint")
        raw = fh.read(4)
        if len(raw) != 4:
            raise CheckpointError("truncated checkpoint: missing version")
        version = int(np.frombuffer(raw, dtype="<u4")[0])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported format version {version}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise CheckpointError("truncated checkpoint: missing header length")
        header_len = int(np.frombuffer(raw, dtype="<u8")[0])
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        left = cls._bytes_left(fh)
        if header_len > left:
            raise CheckpointError(f"truncated checkpoint: header length {header_len} "
                                  f"exceeds the {left} bytes left")
        blob = fh.read(header_len)
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable header: {exc}") from None

        required = {"d", "d_e", "d_m", "k", "labels", "n", "v", "vocab"}
        missing = required - set(header) if isinstance(header, dict) else required
        if missing:
            raise CheckpointError(f"header missing fields {sorted(missing)}")
        dims = {}
        for name in ("d", "d_e", "d_m", "k", "n", "v"):
            value = header[name]
            least = 2 if name == "n" else 1
            if type(value) is not int or value < least:
                raise CheckpointError(f"header {name} must be an integer >= {least}, "
                                      f"got {value!r}")
            dims[name] = value
        labels, tokens = header["labels"], header["vocab"]
        for name, items in (("labels", labels), ("vocab", tokens)):
            if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
                raise CheckpointError(f"header {name} must be a list of strings")
        if dims["n"] != len(labels):
            raise CheckpointError("header n disagrees with label list")
        if len(set(labels)) != len(labels):
            raise CheckpointError("header labels are not distinct")
        if dims["v"] != len(tokens):
            raise CheckpointError("header v disagrees with vocabulary list")
        try:
            vocab = Vocabulary.from_tokens(tokens)
        except ValueError as exc:
            raise CheckpointError(f"header vocab: {exc}") from None

        left = cls._bytes_left(fh)
        table, expected = [], 0
        for spec in parameter_table(**dims):
            table.append(spec)
            expected += 8 * math.prod(spec.shape)
            if expected > left:
                raise CheckpointError(f"truncated checkpoint: {left} payload bytes, "
                                      f"the header implies at least {expected}")
        if left > expected:
            raise CheckpointError(f"trailing bytes after parameter payload: {left} "
                                  f"bytes, the header implies {expected}")

        tensors = [Tensor(np.frombuffer(fh.read(8 * math.prod(spec.shape)), dtype="<f8")
                          .reshape(spec.shape), requires_grad=True) for spec in table]
        return cls(vocab, labels, dims["d_e"], dims["d"], dims["d_m"], dims["k"], tensors)

    @staticmethod
    def _bytes_left(fh: IO[bytes]) -> int:
        """Bytes from the position of a seekable stream to its end."""
        start = fh.tell()
        left = fh.seek(0, io.SEEK_END) - start
        fh.seek(start)
        return left
