import io

import numpy as np
import pytest

from nnma.embeddings import (
    EmbeddingMatrix,
    Vocabulary,
    embed_sequence,
    load_pretrained,
    normalize_token,
)
from nnma.rng import Rng
from per_op import sum_all


def make_vocab(*tokens):
    return Vocabulary(tokens)


class TestNormalizeToken:
    def test_capitalized(self):
        assert normalize_token("Expanding") == "expanding"

    def test_all_caps(self):
        assert normalize_token("RAPIDLY") == "rapidly"

    def test_digits_unchanged(self):
        assert normalize_token("900") == "900"


class TestVocabulary:
    def test_unknown_reserved_at_zero(self):
        vocab = make_vocab("alpha", "beta")
        assert vocab.index("<unk>") == 0
        assert len(vocab) == 3

    def test_dense_first_appearance_order(self):
        vocab = make_vocab("b", "a", "b", "c")
        assert vocab.index("b") == 1
        assert vocab.index("a") == 2
        assert vocab.index("c") == 3
        assert len(vocab) == 4

    def test_lookup_is_total(self):
        vocab = make_vocab("alpha")
        assert vocab.index("never-seen") == 0

    def test_lookup_normalizes(self):
        vocab = make_vocab("alpha")
        assert vocab.index("ALPHA") == 1

    def test_tokens_in_index_order(self):
        vocab = make_vocab("x", "y")
        assert vocab.tokens == ["<unk>", "x", "y"]

    def test_from_tokens_round_trip(self):
        vocab = make_vocab("x", "y", "z")
        rebuilt = Vocabulary.from_tokens(vocab.tokens)
        assert rebuilt.tokens == vocab.tokens

    def test_from_tokens_rejects_missing_unknown(self):
        with pytest.raises(ValueError):
            Vocabulary.from_tokens(["x", "y"])

    def test_from_tokens_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary.from_tokens(["<unk>", "x", "x"])


class TestRandom:
    @pytest.mark.parametrize("v, dim", [
        (1, 50),
        (33, 50),  # the overfit shape: one block
        (700, 50),  # 35k words: one block
        (2622, 50),  # four blocks, the last one below 2^15 words
        (20001, 50),  # the paper shape: four blocks of about 250k words
        (5000, 7),
    ])
    def test_blocks_are_one_draw(self, v, dim):
        # The blocked, transposed fill gives the one whole-matrix draw's
        # entries and leaves the generator where that draw does.
        rng, twin = Rng(9), Rng(9)
        emb = EmbeddingMatrix.random(Vocabulary(f"w{i}" for i in range(v - 1)), dim, rng)
        want = twin.uniform_matrix(v, dim, -0.05, 0.05).T
        assert emb.weights.shape == (dim, v) and emb.weights.data.flags.c_contiguous
        assert np.array_equal(emb.weights.data.view(np.int64), want.view(np.int64))
        assert rng.next_u64() == twin.next_u64()
        assert emb.weights.requires_grad


class TestLoadPretrained:
    def test_direct_parse(self):
        vocab = make_vocab("the")
        stream = io.StringIO("the 0.1 -0.2\n")
        result = load_pretrained(stream, 2, vocab, Rng(1))
        col = result.matrix.weights.data[:, vocab.index("the")]
        assert col.tolist() == [0.1, -0.2]
        assert result.loaded == 1
        assert result.missing == 1  # <unk> falls back
        assert result.malformed == 0

    def test_missing_token_reproducible_fallback(self):
        vocab = make_vocab("a", "b")
        first = load_pretrained(io.StringIO("a 1.0\n"), 1, vocab, Rng(7))
        second = load_pretrained(io.StringIO("a 1.0\n"), 1, vocab, Rng(7))
        np.testing.assert_array_equal(
            first.matrix.weights.data, second.matrix.weights.data
        )

    def test_fallback_independent_of_file_content(self):
        # Random columns are drawn for the whole vocabulary before the
        # file is applied, so the fallback for one token is the same no
        # matter which other tokens the file happens to contain.
        vocab = make_vocab("a", "b", "c")
        with_a = load_pretrained(io.StringIO("a 1.0\n"), 1, vocab, Rng(3))
        with_b = load_pretrained(io.StringIO("b 2.0\n"), 1, vocab, Rng(3))
        idx = vocab.index("c")
        np.testing.assert_array_equal(
            with_a.matrix.weights.data[:, idx], with_b.matrix.weights.data[:, idx]
        )

    def test_fallback_within_init_range(self):
        vocab = make_vocab(*[f"tok{i}" for i in range(50)])
        result = load_pretrained(io.StringIO(""), 4, vocab, Rng(11))
        data = result.matrix.weights.data
        assert np.all(data >= -0.05)
        assert np.all(data < 0.05)

    def test_one_malformed_among_ten(self):
        tokens = [f"tok{i}" for i in range(10)]
        vocab = make_vocab(*tokens)
        lines = [f"{tok} 0.5 0.5" for tok in tokens]
        lines[4] = "tok4 0.5"  # wrong float count
        result = load_pretrained(io.StringIO("\n".join(lines) + "\n"), 2, vocab, Rng(1))
        assert result.loaded == 9
        assert result.malformed == 1

    def test_unparseable_float_is_malformed(self):
        vocab = make_vocab("the")
        result = load_pretrained(io.StringIO("the 0.1 oops\n"), 2, vocab, Rng(1))
        assert result.loaded == 0
        assert result.malformed == 1

    @pytest.mark.parametrize("line", ["the nan 0.5", "the 0.5 inf", "the -inf 0.5",
                                      "the 1e999 0.5"])
    def test_non_finite_vector_is_malformed(self, line):
        vocab = make_vocab("the")
        fresh = EmbeddingMatrix.random(vocab, 2, Rng(1)).weights.data
        result = load_pretrained(io.StringIO(line + "\n"), 2, vocab, Rng(1))
        assert result.loaded == 0
        assert result.malformed == 1
        np.testing.assert_array_equal(result.matrix.weights.data, fresh)

    def test_out_of_vocabulary_line_ignored(self):
        vocab = make_vocab("the")
        result = load_pretrained(io.StringIO("stranger 0.1 0.2\n"), 2, vocab, Rng(1))
        assert result.loaded == 0
        assert result.malformed == 0

    def test_file_tokens_normalized(self):
        vocab = make_vocab("the")
        result = load_pretrained(io.StringIO("THE 0.25 0.75\n"), 2, vocab, Rng(1))
        col = result.matrix.weights.data[:, vocab.index("the")]
        assert col.tolist() == [0.25, 0.75]

    def test_round_trip_exact(self):
        vocab = make_vocab("alpha", "beta", "gamma")
        original = load_pretrained(io.StringIO(""), 3, vocab, Rng(5))
        weights = original.matrix.weights.data
        buf = io.StringIO("".join(
            tok + "".join(f" {float(v)!r}" for v in weights[:, idx]) + "\n"
            for idx, tok in enumerate(vocab.tokens)))
        reloaded = load_pretrained(buf, 3, vocab, Rng(99))
        np.testing.assert_array_equal(
            original.matrix.weights.data, reloaded.matrix.weights.data
        )
        assert reloaded.loaded == len(vocab)
        assert reloaded.missing == 0


class TestEmbedSequence:
    def test_single_known_token(self):
        vocab = make_vocab("hello")
        emb = EmbeddingMatrix.random(vocab, 3, Rng(2))
        out = embed_sequence(["hello"], vocab, emb)
        np.testing.assert_array_equal(out.data, emb.weights.data[:, [1]])

    def test_oov_token_uses_unknown_column(self):
        vocab = make_vocab("hello")
        emb = EmbeddingMatrix.random(vocab, 3, Rng(2))
        out = embed_sequence(["hello", "zzz"], vocab, emb)
        np.testing.assert_array_equal(out.data[:, 1], emb.weights.data[:, 0])

    def test_normalizes_before_lookup(self):
        vocab = make_vocab("hello")
        emb = EmbeddingMatrix.random(vocab, 3, Rng(2))
        out = embed_sequence(["HELLO"], vocab, emb)
        np.testing.assert_array_equal(out.data, emb.weights.data[:, [1]])

    def test_empty_sequence_rejected(self):
        vocab = make_vocab("hello")
        emb = EmbeddingMatrix.random(vocab, 3, Rng(2))
        with pytest.raises(ValueError):
            embed_sequence([], vocab, emb)

    def test_gradient_touches_exactly_used_columns(self):
        tokens = [f"tok{i}" for i in range(8)]
        vocab = make_vocab(*tokens)
        emb = EmbeddingMatrix.random(vocab, 4, Rng(2))
        out = embed_sequence(["tok2", "tok5"], vocab, emb)
        sum_all(out).backward()
        grad = emb.weights.grad
        used = {vocab.index("tok2"), vocab.index("tok5")}
        for col in range(len(vocab)):
            if col in used:
                assert np.any(grad[:, col] != 0.0)
            else:
                assert np.all(grad[:, col] == 0.0)

    def test_repeated_token_accumulates_gradient(self):
        vocab = make_vocab("dup")
        emb = EmbeddingMatrix.random(vocab, 2, Rng(2))
        out = embed_sequence(["dup", "dup", "dup"], vocab, emb)
        sum_all(out).backward()
        np.testing.assert_array_equal(emb.weights.grad[:, 1], [3.0, 3.0])
