import io
import math

import numpy as np
import pytest

from nnma.attention import AttentionTrace, LevelOutput
from nnma.corpus import Dataset, Instance
from nnma.embeddings import Vocabulary
from nnma.metrics import (
    ConfusionCounts,
    KlReport,
    attention_kl_report,
    evaluate,
    heat_color,
    heatmap_csv,
    heatmap_ppm,
    kl_divergence,
    kl_report,
    macro_f1,
    render_kl_report,
)
from nnma.model import CHUNK, NnmaModel
from nnma.rng import Rng
from nnma.tensor import Tensor, no_grad, spans
from nnma.trainer import MomentumSgd, train_step

LABELS = ["Comparison", "Contingency", "Expansion", "Temporal"]


def tiny_model(seed=1, k=2):
    vocab = Vocabulary([f"t{i}" for i in range(6)])
    return NnmaModel.create(vocab, LABELS, d_e=2, d=2, d_m=3, k=k, rng=Rng(seed))


def chunk_traces(model, instances):
    """The forward-only chunks of ``instances`` as ``kl_report`` reads
    them: each chunk's dataset positions and its segment-layout trace."""
    return [(positions, prediction.trace)
            for positions, prediction in model.forward_chunks(instances)]


def lone_traces(chunks):
    """Each instance of the chunks as a one-instance trace, keyed by its
    dataset position: its rows of every level's distributions, cut from
    its chunk's trace by ``tensor.spans``. Only the distributions are
    kept; they are all ``kl_report`` reads."""
    lone = {}
    for positions, trace in chunks:
        for i, (s1, t1), (s2, t2) in zip(positions, spans(trace.lengths1),
                                         spans(trace.lengths2)):
            levels = [LevelOutput(None, Tensor(lv.a1.data[s1:t1]), Tensor(lv.a2.data[s2:t2]),
                                  None, None) for lv in trace.levels]
            lone[i] = AttentionTrace(None, levels, [t1 - s1], [t2 - s2], None)
    return lone


def oracle_report(chunks, k, flipped):
    """Per side, each pair's and level's ``kl_divergence`` summed over
    the chunks' instances in dataset order, then averaged."""
    lone = lone_traces(chunks)
    sides = []
    for side_name in ("a1", "a2"):
        pairs = {(i, j): 0.0 for i in range(1, k + 1) for j in range(i + 1, k + 1)}
        uniform = {i: 0.0 for i in range(1, k + 1)}
        for position in range(len(lone)):
            dists = [getattr(lv, side_name).data.reshape(-1) for lv in lone[position].levels]
            uni = np.full(dists[0].size, 1.0 / dists[0].size)
            for i, j in pairs:
                a, b = dists[i - 1], dists[j - 1]
                pairs[(i, j)] += kl_divergence(b, a) if flipped else kl_divergence(a, b)
            for i in uniform:
                a = dists[i - 1]
                uniform[i] += kl_divergence(a, uni) if flipped else kl_divergence(uni, a)
        sides.append(({key: total / len(lone) for key, total in pairs.items()},
                      {i: total / len(lone) for i, total in uniform.items()}))
    return sides


def assert_matches_oracle(report, chunks, k, flipped):
    for side, (pairs, uniform) in zip((report.arg1, report.arg2),
                                      oracle_report(chunks, k, flipped)):
        assert sorted(side.pairs) == sorted(pairs)
        assert sorted(side.uniform) == sorted(uniform)
        for key, expected in pairs.items():
            assert side.pairs[key] == pytest.approx(expected, rel=1e-12, abs=0)
        for i, expected in uniform.items():
            assert side.uniform[i] == pytest.approx(expected, rel=1e-12, abs=0)


def tiny_dataset():
    return Dataset([
        Instance("Expansion", ["t0", "t1", "t2"], ["t3", "t4"]),
        Instance("Temporal", ["t5", "t0"], ["t1", "t2", "t3", "t4"]),
        Instance("Comparison", ["t2"], ["t5", "t1"]),
    ])


class TestMacroF1:
    def test_perfect_predictions(self):
        result = macro_f1(["A", "B"], ["A", "B"], ["A", "B"])
        assert result.macro_f1 == 1.0
        assert result.accuracy == 1.0

    def test_hand_confusion_fixture(self):
        result = macro_f1(["A", "B", "B", "B"], ["A", "A", "B", "B"], ["A", "B"])
        assert result.per_class["A"] == pytest.approx(2 / 3, abs=1e-12)
        assert result.per_class["B"] == pytest.approx(0.8, abs=1e-12)
        assert result.macro_f1 == pytest.approx(0.7333333333333334, abs=1e-9)
        assert result.accuracy == 0.75

    def test_absent_class_scores_zero_but_counts(self):
        result = macro_f1(["A", "B", "B", "B"], ["A", "A", "B", "B"],
                          ["A", "B", "C"])
        assert result.per_class["C"] == 0.0
        assert result.macro_f1 == pytest.approx((2 / 3 + 0.8) / 3, abs=1e-12)

    def test_all_wrong(self):
        result = macro_f1(["B", "A"], ["A", "B"], ["A", "B"])
        assert result.macro_f1 == 0.0
        assert result.accuracy == 0.0

    def test_bounds(self):
        result = macro_f1(["A", "A", "B"], ["A", "B", "B"], ["A", "B"])
        assert 0.0 <= result.macro_f1 <= 1.0
        assert 0.0 <= result.accuracy <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            macro_f1(["A"], ["A", "B"], ["A", "B"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_f1([], [], ["A"])

    def test_zero_over_zero_convention(self):
        counts = ConfusionCounts.tally(["A", "A"], ["A", "A"], ["A", "B"])
        assert counts.f1("B") == 0.0


class TestEvaluate:
    def test_scores_model_predictions(self):
        model = tiny_model()
        ds = tiny_dataset()
        result = evaluate(model, ds)
        preds = [model.label_names[model.forward(inst).predicted[0]]
                 for inst in ds.instances]
        golds = [inst.label for inst in ds.instances]
        again = macro_f1(preds, golds, model.label_names)
        assert result.macro_f1 == again.macro_f1
        assert result.accuracy == again.accuracy

    def test_no_grad_forward_is_bitwise_equal_and_unrecorded(self):
        model = tiny_model(seed=6)
        for inst in tiny_dataset().instances:
            recorded = model.forward(inst)
            with no_grad():
                plain = model.forward(inst)
            np.testing.assert_array_equal(plain.probabilities.data,
                                          recorded.probabilities.data)
            assert plain.predicted[0] == recorded.predicted[0]
            for a, b in zip(plain.trace.levels, recorded.trace.levels):
                np.testing.assert_array_equal(a.a1.data, b.a1.data)
                np.testing.assert_array_equal(a.a2.data, b.a2.data)
            assert recorded.logits._parents != ()
            assert plain.logits._parents == ()
            assert plain.trace.levels[-1].a1._parents == ()

    def test_training_after_evaluate_still_fills_every_gradient(self):
        model = tiny_model(seed=7)
        ds = tiny_dataset()
        evaluate(model, ds)
        opt_net = MomentumSgd(model.network_parameters(), 0.01, 0.9)
        opt_emb = MomentumSgd(model.embedding_parameters(), 0.002, 0.9)
        train_step(model, ds.instances[0], 2, 1.0, opt_net, opt_emb, None)
        assert all(p.grad is not None for p in model.parameters())


class TestKlDivergence:
    def test_identity_is_exactly_zero(self):
        rng = Rng(5)
        raw = [rng.uniform(0.1, 1.0) for _ in range(6)]
        p = np.array(raw) / sum(raw)
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        value = kl_divergence([0.5, 0.5], [0.75, 0.25])
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(2.0)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.143841, abs=1e-6)

    def test_nonnegative_on_random_pairs(self):
        rng = Rng(17)
        for _ in range(1000):
            length = 2 + rng.below(6)
            p_raw = [rng.uniform(0.01, 1.0) for _ in range(length)]
            q_raw = [rng.uniform(0.01, 1.0) for _ in range(length)]
            p = np.array(p_raw) / sum(p_raw)
            q = np.array(q_raw) / sum(q_raw)
            assert kl_divergence(p, q) >= -1e-12

    def test_zero_entries_in_p_contribute_nothing(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == math.log(2.0)

    def test_zero_in_q_where_p_positive_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.4], [0.5, 0.5])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([1.5, -0.5], [0.5, 0.5])


class TestAttentionKlReport:
    def test_zero_scores_give_all_zero_report(self):
        model = tiny_model(seed=2, k=2)
        for level in model.levels:
            level.arg1.w_s.data[:] = 0.0
            level.arg2.w_s.data[:] = 0.0
        report = attention_kl_report(model, tiny_dataset())
        for side in (report.arg1, report.arg2):
            assert all(v == 0.0 for v in side.pairs.values())
            assert all(v == 0.0 for v in side.uniform.values())

    def test_two_level_report_shape(self):
        report = attention_kl_report(tiny_model(seed=3, k=2), tiny_dataset())
        for side in (report.arg1, report.arg2):
            assert sorted(side.pairs) == [(1, 2)]
            assert sorted(side.uniform) == [1, 2]

    def test_three_level_report_shape(self):
        report = attention_kl_report(tiny_model(seed=4, k=3), tiny_dataset())
        assert sorted(report.arg1.pairs) == [(1, 2), (1, 3), (2, 3)]
        assert sorted(report.arg1.uniform) == [1, 2, 3]

    def test_matches_brute_force_recomputation(self):
        model = tiny_model(seed=5, k=3)
        ds = tiny_dataset()
        report = attention_kl_report(model, ds)

        def kl(p, q):
            return float(np.sum(p * np.log(p / q)))

        for side_name, side in (("a1", report.arg1), ("a2", report.arg2)):
            for (i, j), reported in side.pairs.items():
                total = 0.0
                for inst in ds.instances:
                    trace = model.forward(inst).trace
                    a_i = getattr(trace.levels[i - 1], side_name).data.reshape(-1)
                    a_j = getattr(trace.levels[j - 1], side_name).data.reshape(-1)
                    total += kl(a_i, a_j)
                assert reported == pytest.approx(total / len(ds), abs=1e-10)
            for i, reported in side.uniform.items():
                total = 0.0
                for inst in ds.instances:
                    trace = model.forward(inst).trace
                    a_i = getattr(trace.levels[i - 1], side_name).data.reshape(-1)
                    uni = np.full(a_i.size, 1.0 / a_i.size)
                    total += kl(uni, a_i)
                assert reported == pytest.approx(total / len(ds), abs=1e-10)

    @pytest.mark.parametrize("k, flipped", [(2, False), (2, True), (3, False), (3, True)])
    def test_matches_per_pair_kl_divergence(self, k, flipped):
        # The report's per-segment sums against the scalar oracle, pair
        # by pair, summed per instance in dataset order as before.
        model = tiny_model(seed=10 + k, k=k)
        rng = np.random.default_rng(k)
        words = [f"t{i}" for i in range(7)]
        lengths = [(1, 40), (40, 1), (1, 1)] + [tuple(rng.integers(1, 30, 2)) for _ in range(20)]
        instances = [Instance(LABELS[0], list(rng.choice(words, n1)), list(rng.choice(words, n2)))
                     for n1, n2 in lengths]
        chunks = chunk_traces(model, instances)
        assert_matches_oracle(kl_report(chunks, flipped), chunks, k, flipped)

    @pytest.mark.parametrize("column, match", [
        ([0.5, 0.5, 0.5, 0.5], "not a distribution"),
        ([-0.25, 0.75, 0.25, 0.25], "negative"),
        ([0.0, 0.5, 0.25, 0.25], "zero entry"),
    ])
    def test_each_distribution_is_checked(self, column, match):
        chunks = chunk_traces(tiny_model(seed=12), tiny_dataset().instances)
        (positions, trace), = chunks
        b = positions.index(1)  # the second instance, 4 words in arg2
        s, t = spans(trace.lengths2)[b]
        trace.levels[1].a2.data[s:t, 0] = column
        with pytest.raises(ValueError, match=match):
            kl_report(chunks)

    def test_flip_reverses_direction(self):
        model = tiny_model(seed=6, k=2)
        ds = tiny_dataset()
        plain = attention_kl_report(model, ds)
        flipped = attention_kl_report(model, ds, flipped=True)
        assert plain.direction != flipped.direction
        assert plain.arg1.pairs[(1, 2)] != flipped.arg1.pairs[(1, 2)]

    def test_single_level_model_rejected(self):
        with pytest.raises(ValueError):
            attention_kl_report(tiny_model(seed=7, k=1), tiny_dataset())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            attention_kl_report(tiny_model(seed=8, k=2), Dataset([]))

    def test_render_contains_direction_and_values(self):
        report = attention_kl_report(tiny_model(seed=9, k=2), tiny_dataset())
        text = render_kl_report(report)
        assert report.direction in text
        assert "arg1 kl_12" in text
        assert "arg2 kl_u2" in text


class TestChunkedKlReport:
    """``kl_report`` reads whole chunks: one chunk of many instances,
    several chunks, or one chunk per instance give the oracle's values."""

    LENGTHS = [1, 7, 8, 9, 17, 40]  # both sides of numpy's 8-wide pairwise unroll

    def instances(self):
        # Every length pair, repeated until the list spans more than two
        # chunks of CHUNK.
        rng = np.random.default_rng(31)
        words = [f"t{i}" for i in range(7)]
        pairs = [(n1, n2) for n1 in self.LENGTHS for n2 in self.LENGTHS]
        pairs *= math.ceil((2 * CHUNK + 1) / len(pairs))
        rng.shuffle(pairs)
        return [Instance(LABELS[0], list(rng.choice(words, n1)), list(rng.choice(words, n2)))
                for n1, n2 in pairs]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("chunking", ["one", "several", "lone"])
    def test_matches_kl_divergence_in_dataset_order(self, k, flipped, chunking):
        model = tiny_model(seed=40 + k, k=k)
        instances = self.instances()
        if chunking == "one":
            with no_grad():
                chunks = [(list(range(len(instances))), model.forward_batch(instances).trace)]
        elif chunking == "several":
            chunks = chunk_traces(model, instances)
            assert len(chunks) > 2
        else:
            with no_grad():
                chunks = [([i], model.forward(inst).trace) for i, inst in enumerate(instances)]
        report = kl_report(chunks, flipped)
        assert report.instances == len(instances) and report.levels == k
        assert_matches_oracle(report, chunks, k, flipped)

    @pytest.mark.parametrize("flipped", [False, True])
    def test_bits_do_not_depend_on_chunking(self, flipped):
        # Each instance's values depend only on its own segment, and
        # they are summed in dataset order: the same attention columns
        # cut into lone traces and given in reverse give the same bits.
        model = tiny_model(seed=44, k=3)
        chunks = chunk_traces(model, self.instances())
        lone = [([i], one) for i, one in lone_traces(chunks).items()]
        assert (render_kl_report(kl_report(chunks, flipped))
                == render_kl_report(kl_report(lone[::-1], flipped)))

    @pytest.mark.parametrize("level, column, match", [
        (1, [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], "sums to 3.5, not a distribution"),
        (2, [-0.25, 0.75, 0.1, 0.1, 0.1, 0.1, 0.1], "has negative entries"),
        (2, [0.0, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1], "q has a zero entry where p does not"),
        (1, [0.0, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1], "q has a zero entry where p does not"),
    ])
    def test_refusal_names_the_instance_side_and_level(self, level, column, match):
        # Five instances in one chunk, their positions shuffled; the
        # third segment, dataset position 3, has 7 words in arg2.
        model = tiny_model(seed=45, k=2)
        lengths = [(2, 3), (4, 1), (3, 7), (1, 5), (5, 2)]
        positions = [4, 0, 3, 1, 2]
        instances = [Instance(LABELS[0], [f"t{i % 6}" for i in range(n1)],
                              [f"t{i % 6}" for i in range(n2)]) for n1, n2 in lengths]
        with no_grad():
            trace = model.forward_batch(instances).trace
        s, t = spans(trace.lengths2)[2]
        trace.levels[level - 1].a2.data[s:t, 0] = column
        with pytest.raises(ValueError, match=match) as refused:
            kl_report([(positions, trace)])
        assert f"arg2 level {level} attention of instance 3" in str(refused.value)

    def test_refusal_names_the_first_failing_instance_in_dataset_order(self):
        # Segments 0 and 2 (positions 2 and 1) both fail at level 2.
        model = tiny_model(seed=45, k=2)
        lengths = [(2, 3), (4, 1), (3, 7)]
        instances = [Instance(LABELS[0], ["t0"] * n1, ["t1"] * n2) for n1, n2 in lengths]
        with no_grad():
            trace = model.forward_batch(instances).trace
        for s, t in (spans(trace.lengths2)[0], spans(trace.lengths2)[2]):
            trace.levels[1].a2.data[s, 0] += 0.5
        with pytest.raises(ValueError, match="arg2 level 2 attention of instance 1 sums to"):
            kl_report([([2, 0, 1], trace)])

    def test_positions_must_number_the_instances(self):
        model = tiny_model(seed=46, k=2)
        with no_grad():
            trace = model.forward_batch(tiny_dataset().instances).trace
        for positions in ([0, 1, 1], [1, 2, 3]):
            with pytest.raises(ValueError, match="positions"):
                kl_report([(positions, trace)])
        with pytest.raises(ValueError, match="no instances"):
            kl_report([])


def uniform_trace(model, instance):
    for level in model.levels:
        level.arg1.w_s.data[:] = 0.0
        level.arg2.w_s.data[:] = 0.0
    return model.forward(instance).trace


class TestHeatColor:
    def test_uniform_weight_is_white(self):
        assert heat_color(0.25, 4) == (255, 255, 255)

    def test_zero_weight_is_blue(self):
        assert heat_color(0.0, 4) == (0, 0, 255)

    def test_full_weight_is_red(self):
        assert heat_color(1.0, 4) == (255, 0, 0)

    def test_single_position_is_white(self):
        assert heat_color(1.0, 1) == (255, 255, 255)

    def test_redness_monotone_in_weight(self):
        def redness(w):
            r, _, b = heat_color(w, 5)
            return r - b

        weights = [0.0, 0.1, 0.2, 1 / 5, 0.3, 0.6, 1.0]
        values = [redness(w) for w in weights]
        assert values == sorted(values)


class TestHeatmapExport:
    def test_csv_row_count_and_sums(self):
        model = tiny_model(seed=10, k=3)
        inst = tiny_dataset().instances[0]
        trace = model.forward(inst).trace
        buf = io.StringIO()
        heatmap_csv(trace, inst.arg1, inst.arg2, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3 * 2
        for line in lines:
            level, arg, *cells = line.split(",")
            weights = [float(c.rsplit(":", 1)[1]) for c in cells]
            assert abs(sum(weights) - 1.0) <= 1e-6

    def test_csv_tokens_in_position_order(self):
        model = tiny_model(seed=11, k=1)
        inst = tiny_dataset().instances[0]
        trace = model.forward(inst).trace
        buf = io.StringIO()
        heatmap_csv(trace, inst.arg1, inst.arg2, buf)
        first = buf.getvalue().splitlines()[0]
        tokens = [c.rsplit(":", 1)[0] for c in first.split(",")[2:]]
        assert tokens == inst.arg1

    def test_csv_weights_match_trace_exactly(self):
        model = tiny_model(seed=12, k=2)
        inst = tiny_dataset().instances[1]
        trace = model.forward(inst).trace
        buf = io.StringIO()
        heatmap_csv(trace, inst.arg1, inst.arg2, buf)
        lines = buf.getvalue().splitlines()
        weights = [float(c.rsplit(":", 1)[1]) for c in lines[0].split(",")[2:]]
        np.testing.assert_array_equal(weights, trace.levels[0].a1.data.reshape(-1))

    def test_uniform_attention_renders_white(self):
        model = tiny_model(seed=13, k=1)
        inst = tiny_dataset().instances[0]
        trace = uniform_trace(model, inst)
        buf = io.BytesIO()
        heatmap_ppm(trace, inst.arg1, inst.arg2, buf)
        pixels = parse_ppm(buf.getvalue())
        from nnma.metrics import CELL

        for row, length in ((0, len(inst.arg1)), (1, len(inst.arg2))):
            for i in range(length):
                pixel = pixels[row * CELL + CELL // 2, i * CELL + CELL // 2]
                assert tuple(pixel) == (255, 255, 255)

    def test_max_weight_token_gets_reddest_cell(self):
        model = tiny_model(seed=14, k=2)
        inst = tiny_dataset().instances[1]
        trace = model.forward(inst).trace
        buf = io.BytesIO()
        heatmap_ppm(trace, inst.arg1, inst.arg2, buf)
        pixels = parse_ppm(buf.getvalue())
        from nnma.metrics import CELL

        rows = []
        for level in trace.levels:
            rows.append((level.a1.data.reshape(-1), len(inst.arg1)))
            rows.append((level.a2.data.reshape(-1), len(inst.arg2)))
        for r, (weights, length) in enumerate(rows):
            redness = []
            for i in range(length):
                pixel = pixels[r * CELL + CELL // 2, i * CELL + CELL // 2]
                redness.append(int(pixel[0]) - int(pixel[2]))
            # 8-bit quantization can tie near-equal weights, so the
            # max-weight cell must attain (not exclusively hold) the max.
            assert redness[int(np.argmax(weights))] == max(redness)

    def test_ppm_dimensions(self):
        model = tiny_model(seed=15, k=2)
        inst = tiny_dataset().instances[0]
        trace = model.forward(inst).trace
        buf = io.BytesIO()
        heatmap_ppm(trace, inst.arg1, inst.arg2, buf)
        from nnma.metrics import CELL

        pixels = parse_ppm(buf.getvalue())
        width_cells = max(len(inst.arg1), len(inst.arg2))
        assert pixels.shape == (2 * 2 * CELL, width_cells * CELL, 3)

    def test_token_count_mismatch_rejected(self):
        model = tiny_model(seed=16, k=1)
        inst = tiny_dataset().instances[0]
        trace = model.forward(inst).trace
        with pytest.raises(ValueError):
            heatmap_csv(trace, inst.arg1 + ["extra"], inst.arg2, io.StringIO())
        with pytest.raises(ValueError):
            heatmap_ppm(trace, inst.arg1, inst.arg2[:-1], io.BytesIO())


def parse_ppm(blob):
    """Decode a binary P6 pixmap into an (H, W, 3) uint8 array."""
    header, rest = blob.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    width, height = map(int, dims.split())
    maxval, raw = rest.split(b"\n", 1)
    assert maxval == b"255"
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
