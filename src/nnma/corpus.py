"""Argument-pair datasets: TSV ingestion, task remapping, synthetic data.

The interchange format is one instance per line:

    label<TAB>arg1 tokens space-separated<TAB>arg2 tokens space-separated

UTF-8, ``#``-prefixed comment lines allowed. Tokens are normalized
(lowercased) on the way in, so parse -> write -> parse is exact.

Tasks reshape the label space without touching the text: the four-way
task keeps labels as-is, a binary task keeps one target label and
renames everything else ``Other``, and the merged task folds the
entity-relation label into Expansion before the Expansion-vs-Other
binary split.

``synth_generate`` builds a desk-scale corpus where each class is
identified by one cue token planted in each argument among random
filler; a bag-of-cues rule predicts it perfectly, which is what makes
small-scale overfit checks on the real model meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

from .embeddings import normalize_token
from .rng import Rng

OTHER_LABEL = "Other"
ENTITY_LABEL = "EntRel"
EXPANSION_LABEL = "Expansion"

SYNTH_LABELS = ("Comparison", "Contingency", "Expansion", "Temporal")


class CorpusError(ValueError):
    """Malformed dataset input; message carries the line number."""


@dataclass
class Instance:
    label: str
    arg1: list[str]
    arg2: list[str]


@dataclass
class Dataset:
    instances: list[Instance]
    name: str = ""

    def __len__(self) -> int:
        return len(self.instances)

    def label_inventory(self) -> list[str]:
        """Distinct labels in sorted order."""
        return sorted({inst.label for inst in self.instances})


@dataclass
class TaskSpec:
    """Label-space view of a dataset.

    kind is one of 'four_way', 'binary' (with target), or 'merged'
    (entity relations folded into Expansion, then Expansion vs Other).
    """

    kind: str
    target: str | None = None

    def __post_init__(self):
        if self.kind not in ("four_way", "binary", "merged"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "binary" and not self.target:
            raise ValueError("binary task needs a target label")

    @classmethod
    def parse(cls, text: str) -> "TaskSpec":
        """Parse the command-line form: 'four', 'binary:<label>' or 'merged'."""
        if text == "four":
            return cls("four_way")
        if text == "merged":
            return cls("merged")
        if text.startswith("binary:"):
            target = text[len("binary:"):]
            return cls("binary", target)
        raise ValueError(f"unknown task {text!r}: expected four, binary:<label> or merged")

    def describe(self) -> str:
        if self.kind == "binary":
            return f"binary:{self.target}"
        return "four" if self.kind == "four_way" else "merged"

    def positive_label(self) -> str | None:
        """The kept class of a two-way task, None for the four-way one."""
        if self.kind == "binary":
            return self.target
        return EXPANSION_LABEL if self.kind == "merged" else None


def parse_tsv(stream: IO[str], name: str = "") -> Dataset:
    """Read the TSV interchange format; raises CorpusError with a line
    number on the first malformed line, and on an instance-free file."""
    instances: list[Instance] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise CorpusError(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        label, arg1_text, arg2_text = fields
        if not label:
            raise CorpusError(f"line {lineno}: empty label")
        arg1 = [normalize_token(t) for t in arg1_text.split()]
        arg2 = [normalize_token(t) for t in arg2_text.split()]
        if not arg1 or not arg2:
            raise CorpusError(f"line {lineno}: empty argument")
        instances.append(Instance(label, arg1, arg2))
    if not instances:
        raise CorpusError("no instances found")
    return Dataset(instances, name)


def write_tsv(ds: Dataset, stream: IO[str]) -> None:
    for inst in ds.instances:
        stream.write(f"{inst.label}\t{' '.join(inst.arg1)}\t{' '.join(inst.arg2)}\n")


def apply_task(ds: Dataset, task: TaskSpec, require_target: bool = True) -> Dataset:
    """Remap labels per the task; instance count and text are untouched.

    ``require_target`` rejects a two-way task whose kept class is absent
    from the dataset. That catches misspelled targets on the split used
    to define the label set; pass False for held-out splits, where the
    positive class may legitimately not occur.
    """
    if task.kind == "four_way":
        return Dataset(list(ds.instances), ds.name)

    if task.kind == "merged":
        folded = [
            Instance(EXPANSION_LABEL if inst.label.lower() == ENTITY_LABEL.lower()
                     else inst.label, inst.arg1, inst.arg2)
            for inst in ds.instances
        ]
        return apply_task(Dataset(folded, ds.name),
                          TaskSpec("binary", EXPANSION_LABEL), require_target)

    target = task.target
    inventory = ds.label_inventory()
    if require_target and target not in inventory:
        raise CorpusError(f"target label {target!r} not in inventory {inventory}")
    remapped = [
        Instance(inst.label if inst.label == target else OTHER_LABEL, inst.arg1, inst.arg2)
        for inst in ds.instances
    ]
    return Dataset(remapped, ds.name)


def synth_generate(seed: int, n: int, vocab_size: int = 32,
                   len_range: tuple[int, int] = (10, 16)) -> Dataset:
    """Four-class cue dataset, a pure function of the seed.

    Each class c has a dedicated cue token per argument side; one cue is
    planted at a random position in each argument and every other
    position holds a token drawn uniformly from the filler pool. The
    pool for non-planted positions also contains the single-side cue
    tokens of the *other* classes, with any draw that would complete a
    second full cue pair excluded. The label is therefore determined
    solely by the unique cue pair present on both sides: one argument
    alone does not identify the class, and no class is identifiable by
    the absence of cues. A classifier has to locate and cross-check cue
    tokens in both arguments, which is what makes this set a meaningful
    probe of the attention mechanism. The planted cue appears exactly
    once per argument.

    Class assignment is a shuffled round-robin, so counts differ by at
    most one regardless of seed.
    """
    n_filler = vocab_size - 2 * len(SYNTH_LABELS)
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if n_filler < 1:
        raise ValueError(f"vocab_size {vocab_size} leaves no filler tokens")
    lo, hi = len_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad length range {len_range}")

    rng = Rng(seed)
    fillers = [f"filler{i}" for i in range(n_filler)]
    classes = [i % len(SYNTH_LABELS) for i in range(n)]
    rng.shuffle(classes)
    instances: list[Instance] = []
    for cls in classes:
        label = SYNTH_LABELS[cls]
        args: list[list[str]] = []
        for side in (1, 2):
            # Off-class cues may appear as ordinary fillers, except a
            # side-2 cue whose side-1 partner landed in arg1: that draw
            # would complete a second pair and make the label ambiguous.
            eligible = [
                cue_token(other, side) for other in SYNTH_LABELS
                if other != label
                and not (side == 2 and cue_token(other, 1) in args[0])
            ]
            # One draw over fillers followed by eligible cues, indexed
            # without building that joined pool.
            pool_size = n_filler + len(eligible)
            length = lo + rng.below(hi - lo + 1)
            cue_at = rng.below(length)
            tokens = []
            for pos in range(length):
                if pos == cue_at:
                    tokens.append(cue_token(label, side))
                else:
                    j = rng.below(pool_size)
                    tokens.append(fillers[j] if j < n_filler else eligible[j - n_filler])
            args.append(tokens)
        instances.append(Instance(label, args[0], args[1]))
    return Dataset(instances, f"synth-{seed}")


def cue_token(label: str, side: int) -> str:
    """The planted cue for a synthetic class on argument side 1 or 2."""
    return f"cue-{label.lower()}-{side}"
