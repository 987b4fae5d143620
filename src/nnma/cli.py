"""Command-line entry points.

Subcommands:

    train     --config PATH [--seed N] [--levels K]
    eval      --model PATH --data PATH --task {four|binary:<label>|merged}
              [--out PATH]
    analyze   --model PATH --data PATH [--ids a,b,c] [--out DIR] [--flip-kl]
    gradcheck [--dims k1=v1,...] [--seed N]
    synth     --seed N --n COUNT --out DIR

Every command is a pure function of its inputs and the seed: re-running
writes byte-identical outputs (reports carry no timestamps, floats are
written in shortest round-trip form, and all randomness flows from the
documented generator).

Exit codes: 0 success, 1 verification or metric failure (gradient check
above threshold, diverged training), 2 usage, configuration or input
errors (a malformed file, attention the KL report cannot compare).

The train config is a flat ``key = value`` text file, ``#`` comments
allowed. Keys: data_dir, output_dir, task, embeddings_path (optional),
momentum, rate, embedding_rate, dropout, d, d_m, d_e, levels,
max_epochs, patience, seed. Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .corpus import (
    OTHER_LABEL,
    CorpusError,
    Dataset,
    Instance,
    TaskSpec,
    apply_task,
    parse_tsv,
    synth_generate,
    write_tsv,
)
from .embeddings import Vocabulary, load_pretrained
from .metrics import (
    KlReportError,
    attention_kl_report,
    evaluate,
    heatmap_csv,
    heatmap_ppm,
    render_kl_report,
)
from .model import CheckpointError, NnmaModel
from .rng import Rng
from .tensor import grad_check, no_grad
from .trainer import Hyperparams, TrainingDiverged, fit, reweight

GRADCHECK_THRESHOLD = 1e-4


class ConfigError(ValueError):
    """Bad command-line usage or config file content (exit code 2)."""


@dataclass
class RunConfig:
    data_dir: Path
    output_dir: Path
    task: TaskSpec
    hp: Hyperparams
    embeddings_path: Path | None = None


_HP_KEYS = {
    "momentum": float, "rate": float, "embedding_rate": float,
    "dropout": float, "d": int, "d_m": int, "d_e": int, "levels": int,
    "max_epochs": int, "patience": int, "seed": int,
}
_PATH_KEYS = {"data_dir", "output_dir", "embeddings_path"}


@contextmanager
def utf8_text(path: Path, error: type[Exception]):
    """``path`` opened as UTF-8 text. A byte sequence that is not UTF-8
    raises ``error``, naming the path and the line it is on."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
        raise


def parse_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    with utf8_text(path, ConfigError) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def build_run_config(path: Path, seed_override: int | None,
                     levels_override: int | None) -> RunConfig:
    entries = parse_config_file(path)
    known = _PATH_KEYS | set(_HP_KEYS) | {"task"}
    unknown = set(entries) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("data_dir", "output_dir"):
        if required not in entries:
            raise ConfigError(f"config is missing {required}")

    hp_values = {}
    for key, cast in _HP_KEYS.items():
        if key in entries:
            try:
                hp_values[key] = cast(entries[key])
            except ValueError:
                raise ConfigError(f"config key {key} is not a {cast.__name__}: "
                                  f"{entries[key]!r}") from None
    if "levels" in hp_values:
        hp_values["k"] = hp_values.pop("levels")
    hp = Hyperparams(**hp_values)
    if seed_override is not None:
        hp.seed = seed_override
    if levels_override is not None:
        hp.k = levels_override
    try:
        hp.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        task = TaskSpec.parse(entries.get("task", "four"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    base = path.parent
    data_dir = (base / entries["data_dir"]).resolve()
    if not data_dir.is_dir():
        raise ConfigError(f"data_dir does not exist: {data_dir}")
    emb_path = None
    if "embeddings_path" in entries:
        emb_path = (base / entries["embeddings_path"]).resolve()
        if not emb_path.is_file():
            raise ConfigError(f"embeddings_path does not exist: {emb_path}")
    return RunConfig(data_dir, (base / entries["output_dir"]).resolve(),
                     task, hp, emb_path)


def load_split(data_dir: Path, name: str) -> Dataset:
    path = data_dir / f"{name}.tsv"
    if not path.is_file():
        raise ConfigError(f"missing data file: {path}")
    with utf8_text(path, CorpusError) as fh:
        return parse_tsv(fh, name)


# -- subcommands ---------------------------------------------------------


def write_atomic(path: Path, write: Callable[[Path], object]) -> None:
    """Call ``write`` on a temporary file next to ``path``, then rename
    it into place: a failed or interrupted write leaves any previous
    ``path`` whole and no temporary file behind. An ``OSError`` on the
    temporary file is raised as one on ``path``, the file asked for."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        if exc.errno is None or str(tmp) not in (str(exc.filename), str(exc.filename2)):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_train(args) -> int:
    config = build_run_config(Path(args.config), args.seed, args.levels)
    train_raw = load_split(config.data_dir, "train")
    dev_raw = load_split(config.data_dir, "dev")
    # Strict on train (a misspelled binary target fails loudly); dev may
    # legitimately lack the positive class.
    train = apply_task(train_raw, config.task)
    dev = apply_task(dev_raw, config.task, require_target=False)
    labels = train.label_inventory()
    if len(labels) < 2:
        raise CorpusError(f"{config.data_dir / 'train.tsv'}: task {config.task.describe()} "
                          f"needs two or more labels in the train split, found {labels}")
    weights = reweight(train, config.task)

    hp = config.hp
    rng = Rng(hp.seed)
    vocab = Vocabulary.from_instances(train.instances)
    embeddings = None
    if config.embeddings_path is not None:
        with utf8_text(config.embeddings_path, ConfigError) as fh:
            loaded = load_pretrained(fh, hp.d_e, vocab, rng)
        embeddings = loaded.matrix
        print(f"embeddings: {loaded.loaded} from file, {loaded.missing} random, "
              f"{loaded.malformed} malformed lines")
    model = NnmaModel.create(vocab, labels, hp.d_e, hp.d, hp.d_m, hp.k, rng,
                             embeddings=embeddings)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    log_lines: list[str] = []

    def log(line: str) -> None:
        log_lines.append(line)
        print(line)

    report = fit(model, train, dev, hp, weights=weights, rng=rng, log=log)

    ckpt_path = config.output_dir / "model.ckpt"
    write_atomic(ckpt_path, model.save)
    write_atomic(config.output_dir / "training_log.txt",
                 lambda path: path.write_text("\n".join(log_lines) + "\n"))
    summary = {
        "task": config.task.describe(),
        "labels": labels,
        "levels": hp.k,
        "seed": hp.seed,
        "epochs": [
            {"epoch": e.epoch, "train_loss": e.train_loss,
             "dev_f1": e.dev_f1, "dev_accuracy": e.dev_accuracy}
            for e in report.epochs
        ],
        "best_epoch": report.best_epoch,
        "best_dev_f1": report.best_dev_f1,
        "stopped_early": report.stopped_early,
    }
    write_atomic(config.output_dir / "training_report.json",
                 lambda path: path.write_text(
                     json.dumps(summary, sort_keys=True, indent=2) + "\n"))
    print(f"best epoch {report.best_epoch} dev_f1 {report.best_dev_f1!r}")
    print(f"wrote {ckpt_path}")
    return 0


def render_eval_report(task: TaskSpec, result, count: int) -> str:
    lines = [
        f"task {task.describe()}",
        f"instances {count}",
        f"accuracy {result.accuracy!r}",
        f"macro_f1 {result.macro_f1!r}",
    ]
    for label, f1 in sorted(result.per_class.items()):
        lines.append(f"f1 {label} {f1!r}")
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    model = load_model(Path(args.model))
    with open_data(Path(args.data)) as fh:
        ds_raw = parse_tsv(fh)
    try:
        task = TaskSpec.parse(args.task)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ds = apply_task(ds_raw, task, require_target=False)
    positive = task.positive_label()
    if positive is None:
        extra = set(ds.label_inventory()) - set(model.label_names)
        if extra:
            raise ConfigError(f"data labels {sorted(extra)} unknown to the "
                              f"model (labels {model.label_names})")
    elif sorted(model.label_names) != sorted([positive, OTHER_LABEL]):
        raise ConfigError(
            f"task {task.describe()} expects labels "
            f"{sorted([positive, OTHER_LABEL])}, model has {model.label_names}")
    result = evaluate(model, ds)
    text = render_eval_report(task, result, len(ds))
    sys.stdout.write(text)
    out = Path(args.out) if args.out else Path(args.model).parent / "eval_report.txt"
    write_atomic(out, lambda path: path.write_text(text))
    return 0


def cmd_analyze(args) -> int:
    model = load_model(Path(args.model))
    with open_data(Path(args.data)) as fh:
        ds = parse_tsv(fh)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.ids:
        try:
            ids = [int(part) for part in args.ids.split(",")]
        except ValueError:
            raise ConfigError(f"--ids must be comma-separated integers, "
                              f"got {args.ids!r}") from None
    else:
        ids = list(range(min(3, len(ds))))
    for idx in ids:
        if not 0 <= idx < len(ds):
            raise ConfigError(f"instance id {idx} out of range "
                              f"(dataset has {len(ds)} instances)")

    if model.k >= 2:
        text = render_kl_report(attention_kl_report(model, ds, flipped=args.flip_kl))
    else:
        text = ("# KL report unavailable: it compares attention levels and "
                "this model has a single level\n")
    sys.stdout.write(text)
    write_atomic(out_dir / "kl_report.txt", lambda path: path.write_text(text))

    for idx in ids:
        inst = ds.instances[idx]
        with no_grad():
            trace = model.forward(inst).trace

        def write_csv(path: Path) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                heatmap_csv(trace, inst.arg1, inst.arg2, fh)

        def write_ppm(path: Path) -> None:
            with open(path, "wb") as fh:
                heatmap_ppm(trace, inst.arg1, inst.arg2, fh)

        write_atomic(out_dir / f"heatmap_{idx}.csv", write_csv)
        write_atomic(out_dir / f"heatmap_{idx}.ppm", write_ppm)
    print(f"wrote kl_report.txt and {len(ids)} heatmap pairs to {out_dir}")
    return 0


DEFAULT_DIMS = {"d": 3, "d_m": 4, "d_e": 3, "k": 3, "len": 5, "vocab": 20}


def parse_dims(text: str | None) -> dict[str, int]:
    dims = dict(DEFAULT_DIMS)
    if not text:
        return dims
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in dims:
            raise ConfigError(f"bad --dims entry {part!r}; keys are "
                              f"{sorted(dims)}")
        try:
            dims[key] = int(value)
        except ValueError:
            raise ConfigError(f"--dims value for {key} is not an integer") from None
        # The vocabulary's one unknown-word slot leaves vocab - 1 words to draw.
        least = 2 if key == "vocab" else 1
        if dims[key] < least:
            raise ConfigError(f"--dims {key} must be >= {least}")
    return dims


def cmd_gradcheck(args) -> int:
    dims = parse_dims(args.dims)
    rng = Rng(args.seed)
    vocab = Vocabulary([f"w{i}" for i in range(dims["vocab"] - 1)])
    labels = ["Comparison", "Contingency", "Expansion", "Temporal"]
    model = NnmaModel.create(vocab, labels, dims["d_e"], dims["d"],
                             dims["d_m"], dims["k"], rng)

    length = dims["len"]
    tokens = vocab.tokens[1:]
    arg1 = [tokens[rng.below(len(tokens))] for _ in range(length)]
    arg2 = [tokens[rng.below(len(tokens))] for _ in range(max(1, length - 1))]
    inst = Instance(labels[0], arg1, arg2)

    def loss():
        return model.loss(model.forward(inst), 1)

    groups: dict[str, list] = {}
    for spec, param in zip(model.table, model.parameters()):
        groups.setdefault(spec.group, []).append(param)

    worst = 0.0
    for name, params in groups.items():
        # Every gradient starts empty, as in a training step, so each
        # operation writes its parameter gradients as training does.
        model.zero_grad()
        err = grad_check(loss, params)
        worst = max(worst, err)
        print(f"{name} {err!r}")
    verdict = "PASS" if worst < GRADCHECK_THRESHOLD else "FAIL"
    print(f"max {worst!r} threshold {GRADCHECK_THRESHOLD!r} {verdict}")
    return 0 if verdict == "PASS" else 1


def cmd_synth(args) -> int:
    if args.n < 10:
        raise ConfigError(f"--n must be at least 10, got {args.n}")
    ds = synth_generate(args.seed, args.n)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out_dir}: {exc}") from None
    n_train = (args.n * 8) // 10
    n_dev = args.n // 10
    splits = {
        "train": Dataset(ds.instances[:n_train], "train"),
        "dev": Dataset(ds.instances[n_train:n_train + n_dev], "dev"),
        "test": Dataset(ds.instances[n_train + n_dev:], "test"),
    }
    for name, split in splits.items():
        def write(path: Path) -> None:
            with open(path, "w", encoding="utf-8") as fh:
                write_tsv(split, fh)

        write_atomic(out_dir / f"{name}.tsv", write)
        print(f"{name}.tsv {len(split)} instances")
    return 0


# -- plumbing -------------------------------------------------------------


def load_model(path: Path) -> NnmaModel:
    if not path.is_file():
        raise ConfigError(f"model checkpoint not found: {path}")
    try:
        return NnmaModel.load(path)
    except CheckpointError as exc:
        raise ConfigError(f"cannot load {path}: {exc}") from None


def open_data(path: Path):
    if not path.is_file():
        raise ConfigError(f"data file not found: {path}")
    return utf8_text(path, CorpusError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnma",
        description="Multi-level attention classifier for argument pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--levels", type=int, default=None,
                   help="override the number of attention levels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True,
                   help="four, binary:<label>, or merged")
    p.add_argument("--out", default=None,
                   help="report path (default: eval_report.txt next to the model)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze",
                       help="attention KL report and per-instance heatmaps")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ids", default=None,
                   help="comma-separated instance indices (default: first 3)")
    p.add_argument("--out", default=".",
                   help="output directory (default: current directory)")
    p.add_argument("--flip-kl", action="store_true",
                   help="flip the KL direction convention")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check on a tiny random model")
    p.add_argument("--dims", default=None,
                   help="overrides like d=3,d_m=4,d_e=3,k=3,len=5,vocab=20")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate the synthetic cue dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, CorpusError, CheckpointError, KlReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
