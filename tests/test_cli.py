"""End-to-end tests for the command-line interface.

Commands are driven in-process through ``main(argv)`` so exit codes and
stdout can be asserted directly. A few subprocess tests cover how the
program is launched:

* ``test_module_is_runnable`` runs ``python -m nnma.cli``; the child
  gets the directory of the ``nnma`` under test on its ``PYTHONPATH``
  (``child_env``), so it needs nothing installed.
* ``test_console_script_installed`` checks the ``nnma`` command that
  ``pyproject.toml`` declares under ``[project.scripts]``: the entry point
  must load ``nnma.cli.entry``, and the wrapper an installer generates
  for it must answer ``--help`` with exit code 0. It needs no install,
  only ``tomllib`` (Python 3.11+) or ``tomli`` to read ``pyproject.toml``.
* ``test_console_script_on_path`` runs the installed ``nnma`` from PATH.
  It runs only where the ``nnma`` distribution is installed
  (``pip install -e .``) and is skipped otherwise.
"""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nnma.cli import (
    ConfigError,
    build_run_config,
    entry,
    main,
    parse_config_file,
    parse_dims,
)
import nnma
from nnma import attention, cli, recurrent
from nnma import model as model_module
from nnma.corpus import Dataset, parse_tsv, write_tsv
from nnma.model import NnmaModel
from nnma.tensor import Tensor
from per_op import add

LABELS = ["Comparison", "Contingency", "Expansion", "Temporal"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env():
    """Environment for a child Python that imports the ``nnma`` these
    tests import, with or without an install or ``PYTHONPATH``."""
    env = dict(os.environ)
    package_root = str(Path(nnma.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_synth(out_dir, seed=7, n=40):
    return main(["synth", "--seed", str(seed), "--n", str(n),
                 "--out", str(out_dir)])


def write_config(path, **overrides):
    entries = {
        "data_dir": "data",
        "output_dir": "out",
        "task": "four",
        "momentum": 0.9,
        "rate": 0.05,
        "embedding_rate": 0.01,
        "dropout": 0.1,
        "d": 4,
        "d_m": 5,
        "d_e": 6,
        "levels": 2,
        "max_epochs": 2,
        "patience": 5,
        "seed": 3,
    }
    entries.update(overrides)
    lines = ["# test run"] + [f"{k} = {v}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def declared_console_script():
    """The value of ``nnma`` under ``[project.scripts]`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "nnma" in scripts, "pyproject.toml declares no nnma script"
    return scripts["nnma"]


def nnma_distribution_installed():
    try:
        importlib.metadata.distribution("nnma")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data plus one finished training run."""
    ws = tmp_path_factory.mktemp("ws")
    assert run_synth(ws / "data") == 0
    cfg = write_config(ws / "run.cfg")
    assert main(["train", "--config", str(cfg)]) == 0
    return ws


class TestSynth:
    def test_writes_three_splits(self, tmp_path, capsys):
        assert run_synth(tmp_path / "d") == 0
        out = capsys.readouterr().out
        sizes = {}
        for name, expect in (("train", 32), ("dev", 4), ("test", 4)):
            with open(tmp_path / "d" / f"{name}.tsv", encoding="utf-8") as fh:
                ds = parse_tsv(fh, name)
            sizes[name] = len(ds)
            assert f"{name}.tsv {expect} instances" in out
        assert sizes == {"train": 32, "dev": 4, "test": 4}

    def test_documented_split_sizes(self, tmp_path, capsys):
        assert run_synth(tmp_path / "d", seed=42, n=400) == 0
        out = capsys.readouterr().out
        assert "train.tsv 320 instances" in out
        assert "dev.tsv 40 instances" in out
        assert "test.tsv 40 instances" in out

    def test_byte_identical_reruns(self, tmp_path):
        assert run_synth(tmp_path / "a") == 0
        assert run_synth(tmp_path / "b") == 0
        for name in ("train", "dev", "test"):
            first = (tmp_path / "a" / f"{name}.tsv").read_bytes()
            second = (tmp_path / "b" / f"{name}.tsv").read_bytes()
            assert first == second

    def test_seed_changes_data(self, tmp_path):
        assert run_synth(tmp_path / "a", seed=1) == 0
        assert run_synth(tmp_path / "b", seed=2) == 0
        assert ((tmp_path / "a" / "train.tsv").read_bytes()
                != (tmp_path / "b" / "train.tsv").read_bytes())

    def test_rejects_tiny_n(self, tmp_path, capsys):
        assert main(["synth", "--seed", "1", "--n", "5",
                     "--out", str(tmp_path / "d")]) == 2
        assert "at least 10" in capsys.readouterr().err

    def test_interrupted_split_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        assert run_synth(tmp_path / "d", seed=1) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}

        def failing(split, stream):
            stream.write("Expansion\tpartial")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_tsv", failing)
        capsys.readouterr()
        for out_dir in (tmp_path / "d", tmp_path / "fresh"):
            assert run_synth(out_dir, seed=2) == 2
            assert "disk full" in capsys.readouterr().err
        # The earlier splits are whole, and nothing else was left behind.
        assert {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()} == before
        assert list((tmp_path / "fresh").iterdir()) == []

    def test_output_path_collision(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        assert main(["synth", "--seed", "1", "--n", "20",
                     "--out", str(blocker)]) == 2
        assert "error:" in capsys.readouterr().err


class TestConfigParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# heading\n\nseed = 9\n  d = 4\n")
        assert parse_config_file(cfg) == {"seed": "9", "d": "4"}

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed 9\n")
        with pytest.raises(ConfigError, match="c.cfg:1"):
            parse_config_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = write_config(tmp_path / "c.cfg", learning_rate=0.5)
        with pytest.raises(ConfigError, match="learning_rate"):
            build_run_config(cfg, None, None)

    def test_missing_data_dir_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("output_dir = out\n")
        with pytest.raises(ConfigError, match="data_dir"):
            build_run_config(cfg, None, None)

    def test_nonexistent_data_dir_names_path(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", data_dir="nowhere")
        with pytest.raises(ConfigError, match="nowhere"):
            build_run_config(cfg, None, None)

    def test_non_numeric_value_rejected(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = write_config(tmp_path / "c.cfg", d="four")
        with pytest.raises(ConfigError, match="not a int"):
            build_run_config(cfg, None, None)

    def test_bad_task_rejected(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = write_config(tmp_path / "c.cfg", task="triple")
        with pytest.raises(ConfigError):
            build_run_config(cfg, None, None)

    def test_overrides_apply(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = write_config(tmp_path / "c.cfg")
        run = build_run_config(cfg, 99, 3)
        assert run.hp.seed == 99
        assert run.hp.k == 3
        assert run.hp.d == 4

    def test_config_values_apply(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = write_config(tmp_path / "c.cfg", rate=0.25, patience=7)
        run = build_run_config(cfg, None, None)
        assert run.hp.rate == 0.25
        assert run.hp.patience == 7
        assert run.task.describe() == "four"

    def test_missing_embeddings_file_rejected(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = write_config(tmp_path / "c.cfg", embeddings_path="vectors.txt")
        with pytest.raises(ConfigError, match="vectors.txt"):
            build_run_config(cfg, None, None)


class TestTrain:
    def test_outputs_exist(self, workspace):
        out = workspace / "out"
        assert (out / "model.ckpt").is_file()
        assert (out / "training_log.txt").is_file()
        assert (out / "training_report.json").is_file()

    def test_log_matches_report(self, workspace):
        log_lines = (workspace / "out" / "training_log.txt").read_text().splitlines()
        report = json.loads((workspace / "out" / "training_report.json").read_text())
        assert len(log_lines) == len(report["epochs"]) == 2
        assert log_lines[0].startswith("epoch 1 train_loss ")
        assert report["levels"] == 2
        assert report["seed"] == 3
        assert report["task"] == "four"
        assert report["labels"] == LABELS
        assert report["best_epoch"] in (1, 2)

    def test_checkpoint_loads_and_predicts(self, workspace):
        model = NnmaModel.load(workspace / "out" / "model.ckpt")
        assert model.k == 2
        assert model.label_names == LABELS
        with open(workspace / "data" / "test.tsv", encoding="utf-8") as fh:
            ds = parse_tsv(fh)
        pred = model.forward(ds.instances[0])
        assert model.label_names[pred.predicted[0]] in LABELS

    def test_reruns_are_byte_identical(self, tmp_path):
        assert run_synth(tmp_path / "data") == 0
        for name in ("one", "two"):
            cfg = write_config(tmp_path / f"{name}.cfg", output_dir=name)
            assert main(["train", "--config", str(cfg)]) == 0
        for artifact in ("model.ckpt", "training_log.txt", "training_report.json"):
            first = (tmp_path / "one" / artifact).read_bytes()
            second = (tmp_path / "two" / artifact).read_bytes()
            assert first == second, artifact

    def test_run_leaves_no_temporary_files(self, tmp_path):
        assert run_synth(tmp_path / "data") == 0
        cfg = write_config(tmp_path / "c.cfg", max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "model.ckpt", "training_log.txt", "training_report.json"]

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        assert run_synth(tmp_path / "data") == 0
        cfg = write_config(tmp_path / "c.cfg", max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        previous = {p.name: p.read_bytes() for p in out.iterdir()}

        def failing_save(self, sink):
            with open(sink, "wb") as fh:
                fh.write(b"NNMA partial")
            raise OSError("No space left on device")

        monkeypatch.setattr(NnmaModel, "save", failing_save)
        assert main(["train", "--config", str(cfg), "--seed", "17"]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == previous

    def test_seed_override_changes_model(self, tmp_path):
        assert run_synth(tmp_path / "data") == 0
        cfg_a = write_config(tmp_path / "a.cfg", output_dir="outa", max_epochs=1)
        cfg_b = write_config(tmp_path / "b.cfg", output_dir="outb", max_epochs=1)
        assert main(["train", "--config", str(cfg_a)]) == 0
        assert main(["train", "--config", str(cfg_b), "--seed", "17"]) == 0
        assert ((tmp_path / "outa" / "model.ckpt").read_bytes()
                != (tmp_path / "outb" / "model.ckpt").read_bytes())

    def test_levels_override_changes_depth(self, tmp_path):
        assert run_synth(tmp_path / "data") == 0
        cfg = write_config(tmp_path / "c.cfg", max_epochs=1)
        assert main(["train", "--config", str(cfg), "--levels", "1"]) == 0
        model = NnmaModel.load(tmp_path / "out" / "model.ckpt")
        assert model.k == 1

    def test_epoch_lines_reach_stdout(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data") == 0
        cfg = write_config(tmp_path / "c.cfg", max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "epoch 1 train_loss " in out
        assert "wrote " in out

    def test_missing_data_dir_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", data_dir="missing_dir")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "missing_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("rate", "nan"), ("embedding_rate", "inf")])
    def test_non_finite_learning_rate_exits_2(self, tmp_path, capsys, key, value):
        assert run_synth(tmp_path / "data") == 0
        cfg = write_config(tmp_path / "c.cfg", **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "learning rates must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_split_exits_2(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "dev.tsv").write_text("")
        cfg = write_config(tmp_path / "c.cfg")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "train.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["four", "binary:Comparison"])
    def test_single_label_train_split_exits_2(self, tmp_path, capsys, task):
        assert run_synth(tmp_path / "data") == 0
        path = tmp_path / "data" / "train.tsv"
        with open(path, encoding="utf-8") as fh:
            kept = [inst for inst in parse_tsv(fh).instances if inst.label == "Comparison"]
        with open(path, "w", encoding="utf-8") as fh:
            write_tsv(Dataset(kept), fh)
        cfg = write_config(tmp_path / "c.cfg", task=task)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "train.tsv" in err and "found ['Comparison']" in err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_binary_task_training(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data") == 0
        cfg = write_config(tmp_path / "c.cfg", task="binary:Comparison",
                           max_epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        model = NnmaModel.load(tmp_path / "out" / "model.ckpt")
        assert model.label_names == ["Comparison", "Other"]

    def test_pretrained_embeddings(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data") == 0
        with open(tmp_path / "data" / "train.tsv", encoding="utf-8") as fh:
            ds = parse_tsv(fh)
        known = ds.instances[0].arg1[:2]
        lines = [" ".join([tok] + ["0.01"] * 6) for tok in known]
        lines.append(" ".join(["not-in-the-data"] + ["0.02"] * 6))
        (tmp_path / "vectors.txt").write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.cfg", max_epochs=1,
                           embeddings_path="vectors.txt")
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert f"embeddings: {len(set(known))} from file" in out


class TestEval:
    def test_reports_metrics(self, workspace, capsys):
        model = workspace / "out" / "model.ckpt"
        data = workspace / "data" / "test.tsv"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--task", "four"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("task four\ninstances 4\n")
        for needle in ("accuracy ", "macro_f1 ", "f1 Comparison "):
            assert needle in out
        report = (workspace / "out" / "eval_report.txt").read_text()
        assert report == out

    def test_metrics_parse_as_floats(self, workspace, capsys):
        model = workspace / "out" / "model.ckpt"
        data = workspace / "data" / "dev.tsv"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--task", "four"]) == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith(("accuracy", "macro_f1")):
                value = float(line.split()[-1])
                assert 0.0 <= value <= 1.0

    def test_custom_out_path(self, workspace, tmp_path, capsys):
        model = workspace / "out" / "model.ckpt"
        data = workspace / "data" / "test.tsv"
        target = tmp_path / "scores.txt"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--task", "four", "--out", str(target)]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_unwritable_out_names_the_requested_path(self, workspace, tmp_path, capsys):
        model = workspace / "out" / "model.ckpt"
        data = workspace / "data" / "test.tsv"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--task", "four", "--out", str(tmp_path / "nodir" / "x.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x.txt" in err and ".tmp" not in err

    def test_missing_model_exits_2(self, workspace, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path / "no.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--task", "four"]) == 2
        assert "no.ckpt" in capsys.readouterr().err

    def test_missing_data_exits_2(self, workspace, tmp_path, capsys):
        assert main(["eval", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(tmp_path / "no.tsv"),
                     "--task", "four"]) == 2
        assert "no.tsv" in capsys.readouterr().err

    def test_task_label_mismatch_exits_2(self, workspace, capsys):
        assert main(["eval", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--task", "binary:Comparison"]) == 2
        assert "labels" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + b"\x00" * 32)
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--task", "four"]) == 2
        assert "bad.ckpt" in capsys.readouterr().err

    def test_zero_level_header_exits_2(self, workspace, tmp_path, capsys):
        blob = (workspace / "out" / "model.ckpt").read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len])
        header["k"] = 0
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "k0.ckpt"
        bad.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text
                        + blob[16 + header_len:])
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--task", "four"]) == 2
        err = capsys.readouterr().err
        assert "k0.ckpt" in err and "header k" in err


    def test_header_length_past_the_end_exits_2(self, workspace, tmp_path, capsys):
        blob = (workspace / "out" / "model.ckpt").read_bytes()
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(blob[:8] + (2 ** 62).to_bytes(8, "little") + blob[16:])
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--task", "four"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "huge.ckpt" in err and "header length" in err


class TestAnalyze:
    def test_default_outputs(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "analysis"
        assert main(["analyze", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "arg1 kl_12 " in stdout
        assert "arg2 kl_u1 " in stdout
        report = (out_dir / "kl_report.txt").read_text()
        assert report.startswith("# attention KL report over 4 instances, 2 levels")
        for line in report.splitlines():
            if not line.startswith("#"):
                value = float(line.split()[-1])
                assert value >= 0.0
        for idx in range(3):
            assert (out_dir / f"heatmap_{idx}.csv").is_file()
            ppm = (out_dir / f"heatmap_{idx}.ppm").read_bytes()
            assert ppm.startswith(b"P6\n")

    def test_explicit_ids(self, workspace, tmp_path):
        out_dir = tmp_path / "analysis"
        assert main(["analyze", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--ids", "1,3", "--out", str(out_dir)]) == 0
        assert (out_dir / "heatmap_1.csv").is_file()
        assert (out_dir / "heatmap_3.csv").is_file()
        assert not (out_dir / "heatmap_0.csv").exists()

    def test_id_out_of_range_exits_2(self, workspace, tmp_path, capsys):
        assert main(["analyze", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--ids", "99", "--out", str(tmp_path)]) == 2
        assert "99" in capsys.readouterr().err

    def test_malformed_ids_exit_2(self, workspace, tmp_path, capsys):
        assert main(["analyze", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--ids", "1;2", "--out", str(tmp_path)]) == 2
        assert "--ids" in capsys.readouterr().err

    def test_flip_changes_direction_header(self, workspace, tmp_path, capsys):
        base = ["analyze", "--model", str(workspace / "out" / "model.ckpt"),
                "--data", str(workspace / "data" / "test.tsv")]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--out", str(tmp_path / "b"), "--flip-kl"]) == 0
        flipped = capsys.readouterr().out
        direction = [l for l in plain.splitlines() if l.startswith("# direction")]
        direction_f = [l for l in flipped.splitlines() if l.startswith("# direction")]
        assert direction and direction_f and direction != direction_f

    def test_single_level_model_notice(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data") == 0
        cfg = write_config(tmp_path / "c.cfg", max_epochs=1)
        assert main(["train", "--config", str(cfg), "--levels", "1"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "analysis"
        assert main(["analyze", "--model", str(tmp_path / "out" / "model.ckpt"),
                     "--data", str(tmp_path / "data" / "test.tsv"),
                     "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "single level" in stdout
        assert "kl_12" not in stdout
        assert (out_dir / "heatmap_0.ppm").is_file()

    def test_saturated_attention_exits_2(self, workspace, tmp_path, capsys):
        # Scores scaled until some softmax weights underflow to 0.0 where
        # the other level's are positive: the KL report refuses, and the
        # command ends with an error line naming the instance, not a
        # traceback.
        model = NnmaModel.load(workspace / "out" / "model.ckpt")
        for level in model.levels:
            for side in (level.arg1, level.arg2):
                side.w_s.data *= 5e4
        model.save(tmp_path / "saturated.ckpt")
        out_dir = tmp_path / "analysis"
        assert main(["analyze", "--model", str(tmp_path / "saturated.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "attention of instance" in err
        assert "q has a zero entry where p does not" in err
        assert not (out_dir / "kl_report.txt").exists()

    def test_heatmap_csv_row_count(self, workspace, tmp_path):
        out_dir = tmp_path / "analysis"
        assert main(["analyze", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--ids", "0", "--out", str(out_dir)]) == 0
        rows = (out_dir / "heatmap_0.csv").read_text().splitlines()
        assert len(rows) == 2 * 2  # levels x arguments

    def test_interrupted_heatmap_leaves_no_file(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        def failing(trace, arg1, arg2, sink):
            sink.write("1,arg1,")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "heatmap_csv", failing)
        out_dir = tmp_path / "analysis"
        assert main(["analyze", "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--ids", "0", "--out", str(out_dir)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == ["kl_report.txt"]


def with_bad_byte(src, dst, line):
    """A copy of ``src`` with a 0xff byte, never valid UTF-8, at the start
    of line ``line`` (1-based)."""
    lines = src.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    dst.write_bytes(b"\n".join(lines))
    return dst


class TestNonUtf8Input:
    def assert_named_error(self, capsys, path, line):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{path}:{line}: not UTF-8 text" in err

    def test_config_file_exits_2(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data") == 0
        cfg = with_bad_byte(write_config(tmp_path / "good.cfg"), tmp_path / "c.cfg", 4)
        assert main(["train", "--config", str(cfg)]) == 2
        self.assert_named_error(capsys, cfg, 4)

    def test_training_split_exits_2(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data") == 0
        train = tmp_path / "data" / "train.tsv"
        with_bad_byte(train, train, 3)
        cfg = write_config(tmp_path / "c.cfg")
        assert main(["train", "--config", str(cfg)]) == 2
        self.assert_named_error(capsys, train.resolve(), 3)

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_data_file_exits_2(self, workspace, tmp_path, capsys, command):
        data = with_bad_byte(workspace / "data" / "test.tsv", tmp_path / "d.tsv", 2)
        extra = ["--task", "four"] if command == "eval" else ["--out", str(tmp_path / "o")]
        assert main([command, "--model", str(workspace / "out" / "model.ckpt"),
                     "--data", str(data)] + extra) == 2
        self.assert_named_error(capsys, data, 2)

    def test_embeddings_file_exits_2(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data") == 0
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"w1 " + b"0.5 " * 5 + b"0.5\nw2 0.\xff 1\n")
        cfg = write_config(tmp_path / "c.cfg", embeddings_path="vectors.txt")
        assert main(["train", "--config", str(cfg)]) == 2
        self.assert_named_error(capsys, vectors, 2)
        assert not (tmp_path / "out").exists()


class TestGradcheck:
    def test_small_dims_pass(self, capsys):
        assert main(["gradcheck", "--dims",
                     "d=2,d_m=3,d_e=2,k=2,len=3,vocab=6"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        for group in ("embeddings", "enc1", "enc2", "level1", "level2",
                      "classifier"):
            assert f"{group} " in out

    def test_reported_errors_are_small(self, capsys):
        assert main(["gradcheck", "--dims",
                     "d=2,d_m=2,d_e=2,k=1,len=2,vocab=5"]) == 0
        for line in capsys.readouterr().out.splitlines():
            name, value = line.split()[0], line.split()[1]
            if name != "max":
                assert float(value) < 1e-4

    def test_broken_gradient_fails(self, capsys, monkeypatch):
        loss = NnmaModel.loss

        def untracked(model, *args):
            # A term that tracks b_p outside the recorded graph: the
            # numeric derivative sees it, backward does not.
            term = Tensor([[1e-3 * float(model.b_p.data.sum())]])
            return add(loss(model, *args), term)

        monkeypatch.setattr(NnmaModel, "loss", untracked)
        assert main(["gradcheck", "--dims",
                     "d=2,d_m=2,d_e=2,k=1,len=2,vocab=5"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_every_operation_writes_its_gradients_in_place(self, capsys, monkeypatch):
        # Each group's check starts with no gradient anywhere, as a
        # training step does, so every operation's backward pass writes
        # its parameter gradients into the flat buffer, the path training
        # runs, and none falls back to returning its products.
        claims = []
        for module in (recurrent, attention, model_module):
            def spy(leaves, real=module.claim_runs):
                claims.append(real(leaves))
                return claims[-1]

            monkeypatch.setattr(module, "claim_runs", spy)
        assert main(["gradcheck"]) == 0
        # 7 groups at the default k = 3, one backward pass through the
        # encoder, the attention stack and the classifier each.
        assert len(claims) == 7 * 3
        assert all(claims)

    def test_bad_dims_key_exits_2(self, capsys):
        assert main(["gradcheck", "--dims", "width=3"]) == 2
        assert "width" in capsys.readouterr().err

    def test_bad_dims_value_exits_2(self, capsys):
        assert main(["gradcheck", "--dims", "d=big"]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_zero_dim_exits_2(self, capsys):
        assert main(["gradcheck", "--dims", "d=0"]) == 2
        assert ">= 1" in capsys.readouterr().err

    def test_vocab_without_a_word_exits_2(self, capsys):
        # vocab counts the unknown-word slot: vocab=1 leaves no word to draw.
        assert main(["gradcheck", "--dims", "vocab=1"]) == 2
        assert "--dims vocab must be >= 2" in capsys.readouterr().err

    def test_parse_dims_defaults(self):
        assert parse_dims(None) == {"d": 3, "d_m": 4, "d_e": 3, "k": 3,
                                    "len": 5, "vocab": 20}
        assert parse_dims("d=7")["d"] == 7
        assert parse_dims("d=7")["k"] == 3


class TestPlumbing:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_module_is_runnable(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nnma.cli", "synth", "--seed", "5",
             "--n", "12", "--out", str(tmp_path / "d")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert (tmp_path / "d" / "train.tsv").is_file()

    def test_console_script_installed(self):
        ep = importlib.metadata.EntryPoint(
            name="nnma", value=declared_console_script(),
            group="console_scripts")
        assert ep.load() is entry
        # the launcher pip writes for a console_scripts entry point
        wrapper = ("import sys\n"
                   f"from {ep.module} import {ep.attr}\n"
                   "sys.argv[0] = 'nnma'\n"
                   f"sys.exit({ep.attr}())\n")
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: nnma")

    @pytest.mark.skipif(not nnma_distribution_installed(),
                        reason="no installed 'nnma' distribution "
                               "(importlib.metadata.PackageNotFoundError)")
    def test_console_script_on_path(self):
        dist = importlib.metadata.distribution("nnma")
        scripts = {ep.name: ep.value for ep in dist.entry_points
                   if ep.group == "console_scripts"}
        assert scripts.get("nnma") == declared_console_script(), (
            "installed nnma is stale or from another checkout")
        path = shutil.which("nnma")
        assert path is not None
        proc = subprocess.run([path, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
