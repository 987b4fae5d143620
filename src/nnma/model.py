"""The full classifier: embeddings, two encoders, attention stack,
softmax layer; plus a self-describing binary checkpoint format.

A forward pass embeds both arguments, encodes each with its own
bidirectional LSTM, runs the K-level attention stack, and classifies
the concatenated top-level features [R1; R2; R1 - R2] through a linear
layer and softmax. During training an inverted-dropout mask is applied
to that feature vector right before the linear layer. The loss is one
recorded operation, the weighted negative log likelihood of the logits;
the class probabilities are plain values, since nothing differentiates
them.

There is one forward pass, over a batch of B instances in the segment
layout of ``tensor.segments``; training runs it with B = 1, one
instance per step. Forward-only work (evaluation, attention analysis)
runs it over length-sorted chunks of at most ``CHUNK`` instances with
no graph recorded (``forward_chunks``): fewer, larger operations than
one instance at a time (each attention read is a few whole-chunk
operations, ``attention._read``), at the same values up to rounding.

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
read it. Each LSTM direction is two rows, its four gates' weights and
biases each stacked by rows: the same bytes, in the same order, as four
per-gate matrices and four per-gate biases. The header fixes every
array shape, so the payload carries no framing; any length mismatch is
a hard error, and so is a NaN or infinite value. No partial model is
returned.

The parameters live in two buffers, one per optimizer group
(``buffers``): the embedding matrix, and every other row laid out in
table order as one flat array (``tensor.FlatParams``), each tensor a
view of it at the running sum of the sizes before it. ``create`` draws
the network's weights as one run of unit draws and maps each row's
part into its view (one draw instead of one per row); the
checkpoint payload is the two buffers written in order, and ``load``
reads each back in one call, with no second copy of a group.
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
from .tensor import (FlatParams, ParamGroup, ShapeError, Tensor, _make, claim_runs,
                     nll_from_logits, no_grad, runs)

MAGIC = b"NNMA"
FORMAT_VERSION = 1
# Most instances in one forward-only batch. Per-instance ``evaluate`` time
# over 192 synthetic instances (one BLAS thread, 2-core Xeon, numpy 2.4),
# median of interleaved passes, in microseconds at CHUNK 16 / 20 / 24 / 28 /
# 32 / 48: overfit shape (d 16, d_m 32, L 10-16) 113 / 109 / 103 / 102 /
# 103 / 111; paper shape (d 50, d_m 200, L 26-34) 624 / 642 / 626 / 646 /
# 680 / 720. Past 24 the larger LSTM batch with its length skew and the
# read-outs' block-diagonal products (quadratic in the chunk size) cost
# more at the paper shape than the per-chunk Python they save.
CHUNK = 24


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint data."""


class ParamSpec(NamedTuple):
    """One row of the parameter table. ``name`` is dotted, its first
    component the group (``embeddings``, ``enc1``, ``enc2``, ``level1``
    to ``levelK``, ``classifier``); ``init`` is ``embedding`` (the
    embedding scheme), ``xavier`` (``xavier_uniform``), ``gates`` (four
    xavier gate matrices stacked by rows) or ``zeros``."""

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
    attention levels, the classifier. An LSTM direction is two rows, its
    input, forget, output and candidate gates stacked by rows in that
    order: ``W`` (4d x (d_e + d)) and ``b`` (4d x 1). The layers take
    their tensors by these names through ``tensor.ParamGroup``, so the
    names and their order are stated here alone. Rows are made as they
    are read, so a reader can stop early."""
    yield ParamSpec("embeddings", (d_e, v), "embedding")
    for name in ("enc1.forward", "enc1.backward", "enc2.forward", "enc2.backward"):
        yield ParamSpec(f"{name}.W", (4 * d, d_e + d), "gates")
        yield ParamSpec(f"{name}.b", (4 * d, 1), "zeros")
    for level in range(1, k + 1):
        yield ParamSpec(f"level{level}.w_m", (d_m, memory_input_width(level, d, d_m)), "xavier")
        for arg in (f"level{level}.arg1", f"level{level}.arg2"):
            yield ParamSpec(f"{arg}.w_a", (2 * d, 2 * d), "xavier")
            yield ParamSpec(f"{arg}.w_b", (2 * d, d_m), "xavier")
            yield ParamSpec(f"{arg}.w_s", (1, 2 * d), "xavier")
    yield ParamSpec("classifier.w_p", (n, 6 * d), "xavier")
    yield ParamSpec("classifier.b_p", (n, 1), "zeros")


def draw(spec: ParamSpec, units: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out``, a C-contiguous array of a ``xavier`` or ``gates``
    row's shape, from ``units``, the row's run of unit draws
    (``uniform_matrix(..., 0.0, 1.0)``): uniform(-r, r) with r =
    sqrt(6 / (fan_in + fan_out)), fan_in = cols and fan_out = rows, or
    rows / 4 for ``gates``, each gate's own. The mapping ``u * (hi - lo)
    + lo`` is the one ``uniform_matrix(rows, cols, -r, r)`` applies, so
    the values are the bits of a draw of the row alone; one draw in row
    order reads the words the four gate matrices would, one after the
    other."""
    rows, cols = spec.shape
    if spec.init not in ("xavier", "gates"):
        raise ValueError(f"{spec.name}: no draw for init {spec.init!r}")
    fan_out = rows // 4 if spec.init == "gates" else rows
    r = math.sqrt(6.0 / (fan_out + cols))
    lo, hi = -r, r
    np.multiply(units, hi - lo, out=out)
    out += lo


def classify(final: Tensor, w_p: Tensor, b_p: Tensor,
             dropout_mask: Tensor | None = None) -> Tensor:
    """Logits W_p (f * mask) + b_p of the feature f = [R1; R2; R1 - R2]
    of each column of ``final`` = [R1; R2], as one recorded operation.
    Its backward pass takes the products in the order and operand layout
    the per-product graph (concat, sub, hadamard, matmul, add_bias) did,
    so gradients are the same bits. The gradients of W_p and b_p are
    computed straight into their gradient runs when both are
    ``FlatParams`` leaves without a gradient yet (``tensor.claim_runs``),
    and given to ``Tensor.backward`` as their adjoints otherwise."""
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
        claimed = claim_runs((w_p, b_p))
        dW = np.matmul(g, feature.T, out=w_p._grad_view if claimed else None)
        db = np.sum(g, axis=1, keepdims=True, out=b_p._grad_view if claimed else None)
        return (dR, None, None) if claimed else (dR, dW, db)

    return _make(w_p.data @ feature + b_p.data, (final, w_p, b_p), vjp)


@dataclass
class Prediction:
    """Classifier output for a batch of B instances: the class
    distributions (one column each, a plain tensor no operation
    records), the argmax label index of each
    (lowest index wins ties), the full attention trace, and the raw
    logits the loss is computed from."""

    probabilities: Tensor
    predicted: list[int]
    trace: AttentionTrace
    logits: Tensor


class NnmaModel:
    """All learnable parameters plus the forward computation. ``table``
    holds the parameter table's rows for the model's dimensions."""

    def __init__(self, vocab: Vocabulary, label_names: list[str], d_e: int, d: int,
                 d_m: int, k: int, embeddings: Tensor, network: np.ndarray):
        """Model from its two parameter groups: ``embeddings``, the table's
        first row, and ``network``, the values of every other row in the
        table's order as one 1-D C-contiguous float64 buffer, which the
        network tensors then are views of (``tensor.FlatParams``)."""
        if len(label_names) < 2:
            raise ValueError("need at least two labels")
        if k < 1:
            raise ValueError("need at least one attention level")
        self.vocab = vocab
        self.label_names = list(label_names)
        self.d_e, self.d, self.d_m, self.k = d_e, d, d_m, k
        self.table = list(parameter_table(d_e, d, d_m, k, len(label_names), len(vocab)))
        if embeddings.shape != self.table[0].shape:
            raise ShapeError(f"embeddings {embeddings.shape} do not match the parameter "
                             f"table's {self.table[0].shape}")
        self._network = FlatParams(network, [spec.shape for spec in self.table[1:]])
        self._tensors = [embeddings] + self._network.leaves
        named = {spec.name: t for spec, t in zip(self.table, self._tensors)}
        self.embeddings = EmbeddingMatrix(embeddings, d_e)
        self.enc1, self.enc2 = ParamGroup("enc1", named), ParamGroup("enc2", named)
        self.levels = [ParamGroup(f"level{level}", named) for level in range(1, k + 1)]
        self.w_p, self.b_p = named["classifier.w_p"], named["classifier.b_p"]

    @classmethod
    def create(cls, vocab: Vocabulary, label_names: list[str], d_e: int,
               d: int, d_m: int, k: int, rng: Rng,
               embeddings: EmbeddingMatrix | None = None) -> "NnmaModel":
        """Fresh model, drawn in the parameter table's order: the embedding
        matrix (unless given), then every xavier and gates row of the
        network in one unit draw, each row's run mapped by ``draw`` into
        its view of the network buffer; the zeros rows (biases) stay
        zero. The values and the generator's state afterwards are those
        of one draw per row, in table order."""
        if embeddings is None:
            embeddings = EmbeddingMatrix.random(vocab, d_e, rng)
        table = list(parameter_table(d_e, d, d_m, k, len(label_names), len(vocab)))
        network = np.zeros(sum(math.prod(spec.shape) for spec in table[1:]))
        model = cls(vocab, label_names, d_e, d, d_m, k, embeddings.weights, network)
        drawn = [(spec, p.data) for spec, p in zip(model.table[1:], model.network_parameters())
                 if spec.init != "zeros"]
        units = rng.uniform_matrix(1, sum(out.size for _, out in drawn), 0.0, 1.0)
        for (spec, out), run in zip(drawn, runs(units[0], [spec.shape for spec, _ in drawn])):
            draw(spec, run, out)
        return model

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
        ``embeddings`` row, its first."""
        return self._tensors[:1]

    def network_parameters(self) -> list[Tensor]:
        """Every other row of the table, in its order: views of one flat
        buffer."""
        return self._tensors[1:]

    def buffers(self) -> list[np.ndarray]:
        """Each group's values as one array, in table order: the embedding
        matrix, then the flat network buffer. They are the parameters'
        memory, so writing into them sets the parameters."""
        return [self.embeddings.weights.data, self._network.values]

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
        # Each column's softmax, shifted by its maximum; the loss reads the logits.
        e = np.exp(logits.data - logits.data.max(axis=0))
        probabilities = Tensor.owning(e / e.sum(axis=0))
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
        return nll_from_logits(prediction.logits, gold, weight)

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
        for buffer in self.buffers():
            fh.write(np.ascontiguousarray(buffer, dtype="<f8"))

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

        embeddings = cls._read_group(fh, table[:1])
        network = cls._read_group(fh, table[1:])
        return cls(vocab, labels, dims["d_e"], dims["d"], dims["d_m"], dims["k"],
                   Tensor.owning(embeddings.reshape(table[0].shape), requires_grad=True),
                   network)

    @staticmethod
    def _read_group(fh: IO[bytes], specs: Sequence[ParamSpec]) -> np.ndarray:
        """The values of the rows ``specs`` as one 1-D array: the next
        little-endian float64s, read in one call into a new native array.
        A NaN or infinite value is refused, naming the first row that
        holds one."""
        out = np.empty(sum(math.prod(spec.shape) for spec in specs), dtype="<f8")
        if fh.readinto(out) != out.nbytes:
            raise CheckpointError("truncated checkpoint: short read of the payload")
        if not np.isfinite(out).all():
            for spec, run in zip(specs, runs(out, [spec.shape for spec in specs])):
                if not np.isfinite(run).all():
                    raise CheckpointError(f"non-finite value in parameter {spec.name}")
        return out.astype(np.float64, copy=False)

    @staticmethod
    def _bytes_left(fh: IO[bytes]) -> int:
        """Bytes from the position of a seekable stream to its end."""
        start = fh.tell()
        left = fh.seek(0, io.SEEK_END) - start
        fh.seek(start)
        return left
