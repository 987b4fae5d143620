import hashlib
import io
from collections import Counter

import pytest

from nnma.corpus import (
    CorpusError,
    Dataset,
    Instance,
    TaskSpec,
    apply_task,
    cue_token,
    parse_tsv,
    synth_generate,
    write_tsv,
)


def parse(text):
    return parse_tsv(io.StringIO(text))


class TestParseTsv:
    def test_direct_parse(self):
        ds = parse("Comparison\tthe use expanding\tearned sleazy image\n")
        assert len(ds) == 1
        inst = ds.instances[0]
        assert inst.label == "Comparison"
        assert inst.arg1 == ["the", "use", "expanding"]
        assert inst.arg2 == ["earned", "sleazy", "image"]
        assert ds.label_inventory() == ["Comparison"]

    def test_tokens_normalized(self):
        ds = parse("Temporal\tThe USE\tEarned IMAGE\n")
        assert ds.instances[0].arg1 == ["the", "use"]

    def test_two_fields_rejected_with_line_number(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse("Comparison\tonly one argument\n")

    def test_error_names_offending_line(self):
        text = "Temporal\ta\tb\nExpansion\tc\td\nbroken line\n"
        with pytest.raises(CorpusError, match="line 3"):
            parse(text)

    def test_comments_skipped(self):
        lines = ["# header comment"] + [f"Temporal\ttok{i}\ttok{i}" for i in range(4)]
        ds = parse("\n".join(lines) + "\n")
        assert len(ds) == 4

    def test_blank_lines_skipped(self):
        ds = parse("Temporal\ta\tb\n\nExpansion\tc\td\n")
        assert len(ds) == 2

    def test_empty_argument_rejected(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse("Temporal\t\tb\n")

    def test_empty_file_rejected(self):
        with pytest.raises(CorpusError):
            parse("")

    def test_comment_only_file_rejected(self):
        with pytest.raises(CorpusError):
            parse("# nothing here\n")

    def test_round_trip_exact(self):
        text = "Comparison\tthe use\tearned image\nTemporal\tlater on\tit rained\n"
        ds = parse(text)
        buf = io.StringIO()
        write_tsv(ds, buf)
        assert buf.getvalue() == text
        reparsed = parse_tsv(io.StringIO(buf.getvalue()))
        assert reparsed.instances == ds.instances


class TestTaskSpec:
    def test_parse_four(self):
        assert TaskSpec.parse("four").kind == "four_way"

    def test_parse_binary(self):
        task = TaskSpec.parse("binary:Comparison")
        assert task.kind == "binary"
        assert task.target == "Comparison"

    def test_parse_merged(self):
        assert TaskSpec.parse("merged").kind == "merged"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            TaskSpec.parse("three")

    def test_binary_needs_target(self):
        with pytest.raises(ValueError):
            TaskSpec("binary")

    def test_describe_round_trips(self):
        for text in ("four", "binary:Temporal", "merged"):
            assert TaskSpec.parse(text).describe() == text


def counted(ds):
    return Counter(inst.label for inst in ds.instances)


def toy_dataset(counts):
    instances = []
    for label, count in counts.items():
        for i in range(count):
            instances.append(Instance(label, [f"a{i}"], [f"b{i}"]))
    return Dataset(instances)


class TestApplyTask:
    def test_four_way_is_identity(self):
        ds = toy_dataset({"Comparison": 2, "Expansion": 3})
        out = apply_task(ds, TaskSpec("four_way"))
        assert counted(out) == counted(ds)

    def test_binary_relabels_rest_as_other(self):
        ds = toy_dataset({"Comparison": 2, "Expansion": 3})
        out = apply_task(ds, TaskSpec("binary", "Comparison"))
        assert counted(out) == {"Comparison": 2, "Other": 3}

    def test_binary_unknown_target_rejected(self):
        ds = toy_dataset({"Comparison": 2})
        with pytest.raises(CorpusError):
            apply_task(ds, TaskSpec("binary", "Contingency"))

    def test_merged_folds_entity_relations_into_expansion(self):
        ds = toy_dataset({"Expansion": 3, "EntRel": 2, "Temporal": 4})
        out = apply_task(ds, TaskSpec("merged"))
        assert counted(out) == {"Expansion": 5, "Other": 4}

    def test_instance_count_preserved(self):
        ds = toy_dataset({"Expansion": 3, "EntRel": 2, "Temporal": 4})
        for task in (TaskSpec("four_way"), TaskSpec("binary", "Temporal"), TaskSpec("merged")):
            assert len(apply_task(ds, task)) == len(ds)

    def test_text_untouched(self):
        ds = toy_dataset({"Expansion": 1, "Temporal": 1})
        out = apply_task(ds, TaskSpec("binary", "Expansion"))
        for before, after in zip(ds.instances, out.instances):
            assert before.arg1 == after.arg1
            assert before.arg2 == after.arg2


class TestSynthGenerate:
    def test_same_seed_identical(self):
        a = synth_generate(7, 40)
        b = synth_generate(7, 40)
        assert a.instances == b.instances

    def test_different_seeds_differ(self):
        a = synth_generate(7, 40)
        b = synth_generate(8, 40)
        assert a.instances != b.instances

    def test_cue_planted_in_both_arguments(self):
        ds = synth_generate(3, 100)
        for inst in ds.instances:
            assert cue_token(inst.label, 1) in inst.arg1
            assert cue_token(inst.label, 2) in inst.arg2

    def test_planted_cue_appears_exactly_once(self):
        ds = synth_generate(3, 100)
        for inst in ds.instances:
            assert inst.arg1.count(cue_token(inst.label, 1)) == 1
            assert inst.arg2.count(cue_token(inst.label, 2)) == 1

    def test_exactly_one_complete_cue_pair(self):
        # Off-class cue tokens may occur as fillers, but only the
        # instance's own class has its cue on both sides.
        ds = synth_generate(3, 200)
        labels = ("Comparison", "Contingency", "Expansion", "Temporal")
        for inst in ds.instances:
            paired = [lb for lb in labels
                      if cue_token(lb, 1) in inst.arg1
                      and cue_token(lb, 2) in inst.arg2]
            assert paired == [inst.label]

    def test_single_side_does_not_determine_label(self):
        # Some argument must carry a foreign cue, otherwise presence of
        # one cue would already give the class away.
        ds = synth_generate(3, 200)
        foreign = 0
        for inst in ds.instances:
            own1 = cue_token(inst.label, 1)
            foreign += any(t.startswith("cue-") and t != own1
                           for t in inst.arg1)
        assert foreign > len(ds.instances) // 3

    def test_class_balance_within_ten_percent(self):
        ds = synth_generate(11, 400)
        counts = counted(ds)
        assert len(counts) == 4
        for label, count in counts.items():
            assert 90 <= count <= 110, (label, count)

    def test_lengths_within_range(self):
        ds = synth_generate(5, 50, vocab_size=20, len_range=(4, 6))
        for inst in ds.instances:
            assert 4 <= len(inst.arg1) <= 6
            assert 4 <= len(inst.arg2) <= 6

    def test_bag_of_cues_oracle_is_perfect(self):
        # The pair-intersection rule classifies every instance from cue
        # tokens alone, so a perfect overfit of the dataset is possible.
        ds = synth_generate(13, 200)
        labels = ("Comparison", "Contingency", "Expansion", "Temporal")
        for inst in ds.instances:
            matches = [lb for lb in labels
                       if cue_token(lb, 1) in inst.arg1
                       and cue_token(lb, 2) in inst.arg2]
            assert matches == [inst.label]

    def test_round_trips_through_tsv(self):
        ds = synth_generate(9, 40)
        buf = io.StringIO()
        write_tsv(ds, buf)
        buf.seek(0)
        reparsed = parse_tsv(buf)
        assert reparsed.instances == ds.instances
        assert reparsed.label_inventory() == [
            "Comparison", "Contingency", "Expansion", "Temporal"]

    @pytest.mark.parametrize("kwargs, n, want", [
        ({"vocab_size": 20000, "len_range": (26, 34)}, 1000,
         "411fe7fb2cab87c8f9c31ce88d84117bdb29c1abff0d624f0b448979ea5f55e1"),
        ({}, 400, "947ad045fec0bc6cd91e2f3389a5462a58621855bc58617a7a03e8bae6e6204e"),
    ])
    def test_corpus_pinned(self, kwargs, n, want):
        # sha256 over every (label, arg1, arg2), one tab-separated line
        # each, at the paper shape and at the default shape. Any change to
        # the draws or to how they pick tokens moves it.
        h = hashlib.sha256()
        for inst in synth_generate(1207, n, **kwargs).instances:
            line = "\t".join([inst.label, " ".join(inst.arg1), " ".join(inst.arg2)])
            h.update(line.encode() + b"\n")
        assert h.hexdigest() == want

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(1, 2)
        with pytest.raises(ValueError):
            synth_generate(1, 40, vocab_size=8)
        with pytest.raises(ValueError):
            synth_generate(1, 40, len_range=(0, 3))
