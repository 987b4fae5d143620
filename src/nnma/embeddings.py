"""Vocabulary, pretrained word vectors, and trainable embedding lookup.

Word vectors live in one shared matrix of shape (dim x V); looking up a
token sequence selects columns, so gradients flow back only into the
columns that were actually used. Index 0 is reserved for the unknown
token, which every out-of-vocabulary string maps to.

Pretrained vectors are read from plain text, one token per line:
``token v1 v2 ... vdim`` separated by single spaces, UTF-8, no header.
Tokens absent from the file (and the unknown token itself) are
initialized uniformly in [-0.05, 0.05] from the run's generator; the
small scale keeps early softmax outputs near uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .rng import Rng
from .tensor import Tensor, select_columns

UNKNOWN_TOKEN = "<unk>"
INIT_SCALE = 0.05
# ``EmbeddingMatrix.random`` draws in a few large blocks: each block costs
# one pass of the generator's lanes (about 5 ms) plus its words, about
# 10 ms for a quarter of the paper-shape matrix. ``NnmaModel.create``
# then draws all network weights in one more lane draw.
DRAW_BLOCKS = 4
DRAW_BLOCK_WORDS = 1 << 15


def normalize_token(raw: str) -> str:
    """Canonical token form: simple Unicode lowercasing."""
    return raw.lower()


class Vocabulary:
    """Dense token -> index map with index 0 reserved for ``<unk>``.

    Lookups are total: any string not in the map resolves to index 0.
    """

    def __init__(self, tokens: Iterable[str] = ()):
        self._tokens: list[str] = [UNKNOWN_TOKEN]
        self._index: dict[str, int] = {UNKNOWN_TOKEN: 0}
        for tok in tokens:
            self.add(normalize_token(tok))

    def add(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._tokens.append(token)
            self._index[token] = idx
        return idx

    @classmethod
    def from_instances(cls, instances) -> "Vocabulary":
        """Collect tokens from (label, arg1, arg2) instances in order of
        first appearance, arg1 before arg2."""
        vocab = cls()
        for inst in instances:
            for tok in inst.arg1:
                vocab.add(normalize_token(tok))
            for tok in inst.arg2:
                vocab.add(normalize_token(tok))
        return vocab

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        """Rebuild from an explicit index-ordered token list (checkpoint
        load path); ``tokens[0]`` must be the unknown token."""
        if not tokens or tokens[0] != UNKNOWN_TOKEN:
            raise ValueError(f"token list must start with {UNKNOWN_TOKEN!r}")
        vocab = cls()
        vocab._tokens = list(tokens)
        vocab._index = dict(zip(vocab._tokens, range(len(tokens))))
        if len(vocab._index) != len(tokens):
            raise ValueError("token list contains duplicates")
        return vocab

    def index(self, raw: str) -> int:
        return self._index.get(normalize_token(raw), 0)

    def indices(self, tokens: Sequence[str]) -> list[int]:
        """``index`` of each token, in order."""
        get = self._index.get
        return [get(normalize_token(tok), 0) for tok in tokens]

    def __contains__(self, token: str) -> bool:
        return normalize_token(token) in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        """Tokens in index order."""
        return list(self._tokens)


class EmbeddingMatrix:
    """Trainable word vectors, one column per vocabulary entry."""

    def __init__(self, weights: Tensor, dim: int):
        if weights.rows != dim:
            raise ValueError(f"weight rows {weights.rows} != dim {dim}")
        self.weights = weights
        self.dim = dim

    @classmethod
    def random(cls, vocab: Vocabulary, dim: int, rng: Rng) -> "EmbeddingMatrix":
        """All columns from the uniform [-0.05, 0.05] scheme, drawn
        column by column in index order. The draw runs in at most
        ``DRAW_BLOCKS`` blocks of columns of about ``DRAW_BLOCK_WORDS``
        words or more, each written transposed into place, so no second
        dim x V matrix is held. One stream read in order gives the values
        and the generator state of a single draw."""
        v = len(vocab)
        blocks = max(1, min(DRAW_BLOCKS, v * dim // DRAW_BLOCK_WORDS))
        step = -(-v // blocks)
        data = np.empty((dim, v))
        for start in range(0, v, step):
            cols = min(step, v - start)
            data[:, start:start + cols] = rng.uniform_matrix(cols, dim, -INIT_SCALE,
                                                             INIT_SCALE).T
        return cls(Tensor.owning(data, requires_grad=True), dim)


@dataclass
class PretrainedLoad:
    """Result of reading a pretrained-vector file."""

    matrix: EmbeddingMatrix
    loaded: int     # vocabulary tokens found in the file
    missing: int    # vocabulary tokens falling back to random init
    malformed: int  # skipped file lines (wrong field count / bad or non-finite floats)


def load_pretrained(stream: IO[str], dim: int, vocab: Vocabulary, rng: Rng) -> PretrainedLoad:
    """Build an embedding matrix from a pretrained-vector text stream.

    Every column is first drawn from the random scheme (in index order,
    so the fallback for any given token does not depend on file
    content), then columns for tokens present in the file are
    overwritten. Lines that do not parse into exactly ``dim`` finite
    floats (``nan``, ``inf`` and overflowing literals such as ``1e999``
    are not) are counted as malformed and skipped.
    """
    emb = EmbeddingMatrix.random(vocab, dim, rng)
    found: set[int] = set()
    malformed = 0
    for line in stream:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != dim + 1:
            malformed += 1
            continue
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError:
            malformed += 1
            continue
        if not all(math.isfinite(v) for v in values):
            malformed += 1
            continue
        token = normalize_token(parts[0])
        if token in vocab:
            idx = vocab.index(token)
            emb.weights.data[:, idx] = values
            found.add(idx)
    loaded = len(found)
    return PretrainedLoad(emb, loaded, len(vocab) - loaded, malformed)


def embed_sequence(tokens: Sequence[str], vocab: Vocabulary, emb: EmbeddingMatrix) -> Tensor:
    """Embeddings of a token sequence as a (dim x L) matrix.

    Tokens are normalized before lookup; unknown tokens use column 0.
    """
    if len(tokens) == 0:
        raise ValueError("cannot embed an empty token sequence")
    return select_columns(emb.weights, vocab.indices(tokens))
