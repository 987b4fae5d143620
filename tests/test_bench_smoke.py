"""The benchmark runs against this checkout and passes its own checks.

One short overfit run untraced and one traced, and one short paper-shape
and inference run untraced, each in a child process as the benchmark is
run (``python3 bench/run.py``). A change that breaks an interface the
benchmark or its tracer uses fails here. The paper run's momentum and
finite-difference checks see a 50 x 20k embedding matrix, which the
optimizer sweeps in several blocks; the overfit matrix is one block. The
inference run loads a paper-shape checkpoint as ``nnma eval`` does and
checks the momentum step on the loaded model.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=RUN.parents[1])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
def test_overfit_run_is_correct(trace):
    metrics = bench("overfit", trace)
    if trace:
        assert metrics["attention.stack_ms"]["value"] > 0
        assert metrics["trainer.train_step_ms"]["value"] > 0
    else:
        for rate in ("train_rate", "eval_rate", "analyze_rate"):
            assert metrics[rate]["value"] > 0


def test_paper_run_is_correct():
    metrics = bench("paper", 0)
    for rate in ("train_rate", "eval_rate", "analyze_rate"):
        assert metrics[rate]["value"] > 0


def test_inference_run_is_correct():
    metrics = bench("inference", 0)
    assert metrics["eval_rate"]["value"] > 0
    assert metrics["analyze_rate"]["value"] > 0
