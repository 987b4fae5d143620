"""Benchmark for nnma: end-to-end rates and set-up time, and a traced run
that attributes time to each layer.

    python3 bench/run.py --workload overfit --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the command exits 1 before
printing a result. Each run builds its inputs from ``--seed``, measures
whole rounds of training, evaluation and analysis for ``--seconds``
seconds, checks the program's outputs (``checks.py``), and prints as the
last line of standard output one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones and writes every span
to ``bench/out/``. README.md describes workloads, metrics and the
reference scaling of the rates.
"""

import time

T0 = time.perf_counter()  # start of this file, for the info line

import argparse
import ctypes
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread per run, fixed before numpy is imported and recorded in
# the run's info line: the box has two cores and the rates must not
# depend on what else runs on the other one.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

# glibc starts with a 128 KiB mmap threshold and raises it, with the trim
# threshold at twice it, each time a larger mmapped block is freed: at the
# paper shape the first training step frees an 8 MB embedding gradient,
# and from then on the d_e x V arrays come from the heap. Where the raise
# happened depended on the run's allocation history, and paper-shape
# training speed with it on the seed. Every run therefore starts with both
# thresholds pinned where that rule tops out (32 MiB, trim twice that), so
# the large arrays come from the heap from the first call, as in a long run.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES


def pin_malloc_thresholds() -> str:
    try:
        libc = ctypes.CDLL(None)
        if (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
                and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1):
            return f"mmap {MMAP_THRESHOLD_BYTES}, trim {TRIM_THRESHOLD_BYTES}"
    except (OSError, AttributeError):
        pass
    return "not pinned (no glibc mallopt)"


MALLOC_THRESHOLDS = pin_malloc_thresholds()

import numpy as np

import checks
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


@dataclass(frozen=True)
class Workload:
    """Model shape, inputs and the operations in one round."""

    d: int
    d_m: int
    d_e: int
    k: int
    corpus: int              # synthetic instances drawn from the seed
    vocab_size: int          # synth_generate's cue + filler token count
    lengths: tuple           # argument length range, tokens
    held_out: int            # instances scored by evaluate and the KL report
    train_steps: int         # train_step calls per round
    eval_size: int           # instances in the round's one evaluate call
    analyze_size: int        # ... and in its one attention_kl_report call
    from_checkpoint: bool    # set-up loads a checkpoint and parses a TSV


# overfit: the acceptance overfit shape (criterion 4), where per-op Python
# and tape overhead decide the time. paper: the paper's shape, where the
# encoders and the 50 x V embedding dominate. inference: the paper shape
# behind `nnma eval` / `nnma analyze`, set up from a checkpoint and a TSV.
WORKLOADS = {
    "overfit": Workload(d=16, d_m=32, d_e=50, k=2, corpus=320, vocab_size=32,
                        lengths=(10, 16), held_out=80, train_steps=12,
                        eval_size=24, analyze_size=24, from_checkpoint=False),
    "paper": Workload(d=50, d_m=200, d_e=50, k=2, corpus=1000, vocab_size=20000,
                      lengths=(26, 34), held_out=100, train_steps=4,
                      eval_size=8, analyze_size=6, from_checkpoint=False),
    "inference": Workload(d=50, d_m=200, d_e=50, k=2, corpus=1000, vocab_size=20000,
                          lengths=(26, 34), held_out=200, train_steps=3,
                          eval_size=10, analyze_size=8, from_checkpoint=True),
}

HELD_OUT_SEED_OFFSET = 7919  # the inference TSV is drawn from seed + this
FIXTURE_CKPT = "model.ckpt"        # inference inputs, written by a child process
FIXTURE_TSV = "held_out.tsv"
FIXTURE_EXPECTED = "expected.npz"  # the saved model's parameters and predictions
CHECK_INSTANCES = 12         # held-out instances re-scored by the checks
KL_SAMPLES = 3               # instances whose KL(uniform || a) is recomputed
CKPT_PREDICTIONS = 4         # predictions compared bitwise after a load
CHECK_STEP_TRIES = 3         # train steps tried for the momentum/gradient check
FD_NETWORK_COORDS = 10       # finite-difference coordinates, network group
FD_EMBEDDING_COORDS = 3      # ... and embedding columns the instance uses
FD_STEP = 1e-5

# -- reference scaling -------------------------------------------------------
#
# The box's speed drifts by about a quarter within seconds, for CPU time
# as much as for wall time. After every timed call the benchmark times
# one block of a fixed computation of its own per two instances of the
# call; a window's rate is scaled by (mean block time / REF_NOMINAL_S),
# i.e. reported in instances per reference second. The block mixes
# interpreter work and small numpy operations as the program does, so
# both slow down together.

REF_NOMINAL_S = 0.0033  # median block time on the reference box (README)
SETUP_REF_BLOCKS = 8    # blocks timed just before and just after the set-up
_ref_rng = np.random.default_rng(20160701)
REF_W = _ref_rng.standard_normal((128, 80)) * 0.1
REF_X = _ref_rng.standard_normal((48, 30))


def reference_block() -> float:
    """Seconds taken by four 30-step LSTM-like sweeps in plain numpy."""
    start = time.perf_counter()
    for _ in range(4):
        h = np.zeros((32, 1))
        c = np.zeros((32, 1))
        keep = []
        for j in range(30):
            z = np.concatenate([REF_X[:, j:j + 1], h])
            g = REF_W @ z
            i, f, o = (1.0 / (1.0 + np.exp(-g[s:s + 32])) for s in (0, 32, 64))
            c = i * np.tanh(g[96:]) + f * c
            h = o * np.tanh(c)
            keep.append((z, g, c, h))
    return time.perf_counter() - start


class Window:
    """Program calls of one phase in one round, each timed alone and each
    followed by one reference block per two instances it handled."""

    def __init__(self):
        self.ops = 0
        self.work_s = 0.0
        self.ref_s = 0.0
        self.blocks = 0

    def run(self, ops: int, fn, *args):
        """``fn(*args)`` on ``ops`` instances, timed; a call that raises
        adds neither instances nor time."""
        start = time.perf_counter()
        try:
            out = fn(*args)
            self.work_s += time.perf_counter() - start
            self.ops += ops
            return out
        finally:
            for _ in range((ops + 1) // 2):
                self.ref_s += reference_block()
                self.blocks += 1

    def rate(self) -> float:
        """Operations per reference second."""
        return self.ops / self.work_s * (self.ref_s / self.blocks) / REF_NOMINAL_S

    def raw_rate(self) -> float:
        return self.ops / self.work_s


def import_program():
    """nnma from this checkout's src/, or exit 1."""
    package = SRC_DIR / "nnma"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: the program is missing: no {package}/__init__.py")
    sys.path.insert(0, str(SRC_DIR))
    import nnma
    if Path(nnma.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported nnma from {nnma.__file__}, not {package}")
    return nnma


class Bench:
    """One run: set-up, rounds of timed operations, checks."""

    def __init__(self, nn, workload: Workload, seed: int, tracer, scratch: Path):
        self.nn = nn
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.hp = nn.Hyperparams()
        self.pick = random.Random(seed)  # the benchmark's own sampling
        self.rng = nn.Rng(seed)          # the run's generator: init, order, dropout
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.windows = {"train": [], "eval": [], "analyze": []}
        self.peak_rss_mb = None
        self._order: list[int] = []
        self._held_at = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Build the inputs and a ready model; returns the seconds from the
        first program call until the model is ready."""
        nn, wl = self.nn, self.wl
        start = time.perf_counter()
        if not wl.from_checkpoint:
            corpus = nn.synth_generate(self.seed, wl.corpus, vocab_size=wl.vocab_size,
                                       len_range=wl.lengths)
            vocab = vocabulary(nn, wl, corpus)
            made = time.perf_counter()
            self.model = nn.NnmaModel.create(vocab, corpus.label_inventory(), wl.d_e,
                                             wl.d, wl.d_m, wl.k, self.rng)
            split = wl.corpus - wl.held_out
            self.train = corpus.instances[:split]
            self.held = corpus.instances[split:]
            end = time.perf_counter()
            self.setup_parts = {"inputs_s": made - start, "model_s": end - made}
        else:
            self.attempted += 1
            self.model = nn.NnmaModel.load(self.scratch / FIXTURE_CKPT)
            loaded = time.perf_counter()
            with open(self.scratch / FIXTURE_TSV, encoding="utf-8") as fh:
                held = nn.parse_tsv(fh)
            end = time.perf_counter()
            self.setup_parts = {"model_s": loaded - start, "inputs_s": end - loaded}
            self.train = self.held = held.instances
        self.opt_net = nn.MomentumSgd(self.model.network_parameters(), self.hp.rate,
                                      self.hp.momentum)
        self.opt_emb = nn.MomentumSgd(self.model.embedding_parameters(),
                                      self.hp.embedding_rate, self.hp.momentum)
        if self.tracer is not None:
            labels = self.tracer.labels
            labels[id(self.model.enc1)] = "recurrent.enc1"
            labels[id(self.model.enc2)] = "recurrent.enc2"
            labels[id(self.opt_net)] = "trainer.opt_net"
            labels[id(self.opt_emb)] = "trainer.opt_emb"
        return end - start

    # -- rounds --------------------------------------------------------------

    def round(self, index: int) -> None:
        """The same operations every round. ``inference`` runs its
        fine-tune steps last, so that its peak memory can be read after
        round 0's evaluation and analysis, before any training."""
        if not self.wl.from_checkpoint:
            self.train_window()
        self.eval_window()
        self.analyze_window()
        self.heatmap_op(check=index == 0)
        if self.wl.from_checkpoint:
            if index == 0:
                self.peak_rss_mb = peak_rss_mb()
                self.check("checkpoint load", self.verify_checkpoint,
                           self.scratch / FIXTURE_CKPT, self.model, *load_expected(self.scratch))
            self.train_window()

    def train_window(self) -> None:
        window = Window()
        for step in range(self.wl.train_steps):
            self.train_op(window, sampled=step == 0)
        self.windows["train"].append(window)

    def eval_window(self) -> None:
        """One ``evaluate`` call over the next held-out slice, as
        ``nnma eval`` makes one over its TSV."""
        window = Window()
        ds = self.nn.Dataset(self.next_held(self.wl.eval_size))
        self.op(window, "eval", True, len(ds), self.nn.evaluate, self.model, ds)
        self.windows["eval"].append(window)

    def analyze_window(self) -> None:
        """One ``attention_kl_report`` call, as ``nnma analyze`` makes."""
        window = Window()
        ds = self.nn.Dataset(self.next_held(self.wl.analyze_size))
        self.op(window, "analyze", False, len(ds), self.nn.attention_kl_report, self.model, ds)
        self.windows["analyze"].append(window)

    def heatmap_op(self, check: bool) -> None:
        inst = self.next_held(1)[0]
        self.attempted += 1
        try:
            csv, ppm = self.heatmaps(inst)
        except Exception as exc:  # a failed operation of the program
            self.fail_op(1, exc)
            return
        if check:
            rows = 2 * self.model.k
            self.check("heatmap CSV", checks.heatmap_csv, csv, rows,
                       [len(inst.arg1), len(inst.arg2)])
            self.check("heatmap PPM", checks.heatmap_ppm, ppm, rows)

    def heatmaps(self, inst):
        trace = self.model.forward(inst).trace
        text, blob = io.StringIO(), io.BytesIO()
        self.nn.heatmap_csv(trace, inst.arg1, inst.arg2, text)
        self.nn.heatmap_ppm(trace, inst.arg1, inst.arg2, blob)
        return text.getvalue(), blob.getvalue()

    def next_train(self):
        """Training instances in an order reshuffled on every pass."""
        if not self._order:
            self._order = list(range(len(self.train)))
            self.rng.shuffle(self._order)
        return self.train[self._order.pop()]

    def next_held(self, count: int) -> list:
        out = []
        for _ in range(count):
            out.append(self.held[self._held_at])
            self._held_at = (self._held_at + 1) % len(self.held)
        return out

    def op(self, window: Window, phase: str, sampled: bool, ops: int, fn, *args):
        """One timed program call of ``ops`` instances; None if it raised."""
        tracer = self.tracer
        if tracer is not None and sampled:
            tracer.sample = True
        self.attempted += ops
        try:
            return window.run(ops, fn, *args)
        except Exception as exc:  # a failed operation of the program
            self.fail_op(ops, exc)
            return None
        finally:
            if tracer is not None and sampled:
                tracer.sample = False
                tracer.count_held(phase)

    def fail_op(self, ops: int, exc: Exception) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def train_step(self):
        """A closure for ``train_step`` on the next instance that draws a
        fresh dropout mask inside the call; also the instance, its gold
        index and a list that receives the mask."""
        nn, model = self.nn, self.model
        inst = self.next_train()
        gold = model.label_index(inst.label)
        masks = []

        def run():
            masks.append(nn.trainer.dropout_mask(6 * model.d, self.hp.dropout, self.rng))
            return nn.train_step(model, inst, gold, 1.0, self.opt_net, self.opt_emb, masks[0])

        return run, inst, gold, masks

    def train_op(self, window: Window, sampled: bool) -> None:
        value = self.op(window, "train", sampled, 1, self.train_step()[0])
        if value is None:
            return
        self.check("training loss", checks.loss, value)
        if self.tracer is not None and sampled:
            grads = [p.grad for p in self.model.embedding_parameters() if p.grad is not None]
            self.tracer.count("embeddings.grad_bytes", sum(g.nbytes for g in grads))
            used = sum(int(np.count_nonzero(np.any(g != 0.0, axis=0))) for g in grads)
            cols = sum(g.shape[1] for g in grads)
            self.tracer.count("embeddings.grad_cols_used_share", used / cols if cols else 0.0)

    # -- checks --------------------------------------------------------------

    def check(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # any disagreement or crash fails the run
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def verify(self) -> None:
        """The checks that need state beyond one operation, run after the
        timed rounds on the model they trained."""
        self.verify_training()
        self.verify_outputs()

    def verify_training(self) -> None:
        """One untimed train step, checked against copies saved before
        it: the momentum update and central differences. A step that
        raises counts as failed and the next instance is tried."""
        model = self.model
        for _ in range(CHECK_STEP_TRIES):
            run, inst, gold, masks = self.train_step()
            before = ([p.data.copy() for p in model.parameters()],
                      [v.copy() for v in self.opt_net.velocities],
                      [v.copy() for v in self.opt_emb.velocities])
            self.attempted += 1
            try:
                value = run()
            except Exception as exc:  # a failed operation of the program
                self.fail_op(1, exc)
                continue
            self.check("training loss", checks.loss, value)
            self.check("momentum step", self.verify_momentum, before)
            self.check("gradient", self.verify_gradient, before[0], inst, gold, masks[0], value)
            return
        self.failures.append(f"momentum and gradient checks not run: "
                             f"{CHECK_STEP_TRIES} train steps raised")

    def verify_momentum(self, before) -> None:
        thetas, v_net, v_emb = before
        theta_of = {id(p): t for p, t in zip(self.model.parameters(), thetas)}
        for name, opt, rate, velocities in (
                ("network", self.opt_net, self.hp.rate, v_net),
                ("embedding", self.opt_emb, self.hp.embedding_rate, v_emb)):
            for j, (p, v_old, v_new) in enumerate(zip(opt.params, velocities, opt.velocities)):
                grad = p.grad if p.grad is not None else np.zeros_like(p.data)
                checks.momentum_step(theta_of[id(p)], v_old, grad, v_new, p.data,
                                     opt.momentum, rate, f"{name} tensor {j}")

    def verify_gradient(self, thetas, inst, gold, mask, value) -> None:
        """Central differences at the pre-step parameters, same dropout mask."""
        model = self.model
        params = model.parameters()
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                 for p in params]
        after = [p.data.copy() for p in params]
        index = {id(p): i for i, p in enumerate(params)}

        def loss() -> float:
            return model.loss(model.forward(inst, mask), gold, 1.0).item()

        coords = []
        network = model.network_parameters()
        for _ in range(FD_NETWORK_COORDS):
            p = network[self.pick.randrange(len(network))]
            coords.append((p, self.pick.randrange(p.data.size), "network"))
        used = [model.vocab.index(tok) for tok in inst.arg1 + inst.arg2]
        for p in model.embedding_parameters():
            for _ in range(FD_EMBEDDING_COORDS):
                row = self.pick.randrange(p.rows)
                coords.append((p, row * p.cols + self.pick.choice(used), "embedding"))
        try:
            for p, saved in zip(params, thetas):
                p.data[...] = saved
            again = loss()
            if not math.isclose(again, value, rel_tol=1e-12, abs_tol=1e-15):
                raise checks.CheckFailed(f"loss {value!r} from train_step, {again!r} "
                                         f"recomputed with the same mask")
            for p, flat, group in coords:
                orig = p.data.flat[flat]
                p.data.flat[flat] = orig + FD_STEP
                plus = loss()
                p.data.flat[flat] = orig - FD_STEP
                minus = loss()
                p.data.flat[flat] = orig
                checks.gradient(float(grads[index[id(p)]].flat[flat]),
                                (plus - minus) / (2 * FD_STEP),
                                f"{group} parameter {index[id(p)]} entry {flat}")
        finally:
            for p, saved in zip(params, after):
                p.data[...] = saved

    def verify_outputs(self) -> None:
        """Scores, distributions, KL and (training workloads) the
        checkpoint and TSV round trips, on the current model."""
        nn, model = self.nn, self.model
        ds = nn.Dataset(self.held[:CHECK_INSTANCES])
        self.check("evaluate", self.verify_scores, ds)
        self.check("KL report", self.verify_kl, ds)
        if not self.wl.from_checkpoint:
            path = self.scratch / "roundtrip.ckpt"
            model.save(path)
            self.attempted += 1
            try:
                loaded = nn.NnmaModel.load(path)
            except Exception as exc:  # a failed operation of the program
                self.fail_op(1, exc)
            else:
                self.check("checkpoint load", self.verify_checkpoint, path, loaded,
                           *expected_outputs(model, self.held))
            self.check("TSV round trip", self.verify_tsv, ds)

    def verify_scores(self, ds) -> None:
        model = self.model
        result = self.nn.evaluate(model, ds)
        preds = []
        for n, inst in enumerate(ds.instances):
            pred = model.forward(inst)
            checks.distribution(pred.probabilities.data, f"instance {n} class probabilities")
            for level, lv in enumerate(pred.trace.levels, start=1):
                checks.distribution(lv.a1.data, f"instance {n} level {level} arg1 attention")
                checks.distribution(lv.a2.data, f"instance {n} level {level} arg2 attention")
            preds.append(model.label_names[int(np.argmax(pred.probabilities.data))])
        golds = [inst.label for inst in ds.instances]
        checks.scores(preds, golds, model.label_names, result.accuracy, result.macro_f1)

    def verify_kl(self, ds) -> None:
        nn, model = self.nn, self.model
        report = nn.attention_kl_report(model, ds)
        values = {}
        for side, stats in (("arg1", report.arg1), ("arg2", report.arg2)):
            values.update({f"{side} kl_{i}{j}": v for (i, j), v in stats.pairs.items()})
            values.update({f"{side} kl_u{i}": v for i, v in stats.uniform.items()})
        checks.kl_nonnegative(values)
        for inst in self.pick.sample(ds.instances, KL_SAMPLES):
            single = nn.attention_kl_report(model, nn.Dataset([inst]))
            trace = model.forward(inst).trace
            for level, lv in enumerate(trace.levels, start=1):
                checks.kl_uniform(lv.a1.data, single.arg1.uniform[level], f"arg1 level {level}")
                checks.kl_uniform(lv.a2.data, single.arg2.uniform[level], f"arg2 level {level}")

    def verify_checkpoint(self, path: Path, loaded, params, predictions) -> None:
        """The file's layout, then the loaded model against the saved
        model's parameters and predictions (``expected_outputs``)."""
        header = checks.checkpoint_layout(path.read_bytes())
        wl = self.wl
        dims = tuple(header[key] for key in ("d", "d_e", "d_m", "k"))
        if dims != (wl.d, wl.d_e, wl.d_m, wl.k):
            raise checks.CheckFailed(f"checkpoint header dims {dims}")
        got_params, got_predictions = expected_outputs(loaded, self.held)
        checks.bit_identical(got_params, params, "parameters after load")
        checks.bit_identical(got_predictions, predictions, "predictions after load")

    def verify_tsv(self, ds) -> None:
        path = self.scratch / "held_out.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            self.nn.write_tsv(ds, fh)
        with open(path, encoding="utf-8") as fh:
            back = self.nn.parse_tsv(fh)
        want = [(i.label, i.arg1, i.arg2) for i in ds.instances]
        if [(i.label, i.arg1, i.arg2) for i in back.instances] != want:
            raise checks.CheckFailed("TSV write then parse changed the instances")

    # -- results -------------------------------------------------------------

    def rate(self, phase: str, raw: bool = False) -> float:
        windows = [w for w in self.windows[phase] if w.work_s > 0]
        if not windows:
            return 0.0
        return statistics.median(w.raw_rate() if raw else w.rate() for w in windows)


def vocabulary(nn, wl: Workload, corpus):
    """The corpus's tokens in order of first appearance, then every other
    token synth_generate can draw. V, and with it the d_e x V work of a
    step, is then the same for every seed."""
    vocab = nn.Vocabulary.from_instances(corpus.instances)
    cues = [nn.corpus.cue_token(label, side)
            for label in nn.corpus.SYNTH_LABELS for side in (1, 2)]
    for token in [f"filler{i}" for i in range(wl.vocab_size - len(cues))] + cues:
        vocab.add(token)
    return vocab


def expected_outputs(model, held) -> tuple[list, list]:
    """Copies of a model's parameters and of its class probabilities on
    the first CKPT_PREDICTIONS held-out instances."""
    params = [p.data.copy() for p in model.parameters()]
    predictions = [model.forward(inst).probabilities.data.copy()
                   for inst in held[:CKPT_PREDICTIONS]]
    return params, predictions


def write_fixture(nn, wl: Workload, seed: int, out: Path) -> None:
    """The inference inputs, from the seed: a paper-shape checkpoint, a
    held-out TSV, and the saved model's parameters and predictions as a
    numpy archive for the checks. Run in a child process, so that
    neither its time nor its memory is the measured run's."""
    corpus = nn.synth_generate(seed, wl.corpus, vocab_size=wl.vocab_size, len_range=wl.lengths)
    vocab = vocabulary(nn, wl, corpus)
    # numpy draws for the d_e x V matrix keep the fixture cheap; the
    # program's own init is measured on the paper workload.
    values = np.random.default_rng(seed).uniform(-0.05, 0.05, (wl.d_e, len(vocab)))
    emb = nn.EmbeddingMatrix(nn.Tensor(values, requires_grad=True), wl.d_e)
    model = nn.NnmaModel.create(vocab, corpus.label_inventory(), wl.d_e, wl.d,
                                wl.d_m, wl.k, nn.Rng(seed), embeddings=emb)
    model.save(out / FIXTURE_CKPT)
    held = nn.synth_generate(seed + HELD_OUT_SEED_OFFSET, wl.held_out,
                             vocab_size=wl.vocab_size, len_range=wl.lengths)
    with open(out / FIXTURE_TSV, "w", encoding="utf-8") as fh:
        nn.write_tsv(held, fh)
    with open(out / FIXTURE_TSV, encoding="utf-8") as fh:
        instances = nn.parse_tsv(fh).instances
    params, predictions = expected_outputs(model, instances)
    np.savez(out / FIXTURE_EXPECTED, *params, *predictions, n_params=len(params))


def write_fixture_in_child(workload: str, seed: int, out: Path) -> float:
    """``write_fixture`` in a child process; returns its wall seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", "0", "--write-fixture", str(out)],
                   check=True, timeout=150)
    return time.perf_counter() - start


def load_expected(out: Path) -> tuple[list, list]:
    with np.load(out / FIXTURE_EXPECTED) as archive:
        n = int(archive["n_params"])
        arrays = [archive[f"arr_{i}"] for i in range(len(archive.files) - 1)]
    return arrays[:n], arrays[n:]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fixture", metavar="DIR", type=Path,
                        help="only write the inference inputs to DIR (used by the run itself)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    imports_s = time.perf_counter() - T0
    nn = import_program()
    nnma_import_s = time.perf_counter() - T0 - imports_s
    if args.write_fixture:
        write_fixture(nn, workload, args.seed, args.write_fixture)
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(nn)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        fixture_s = None
        if workload.from_checkpoint and tracer is None:
            fixture_s = write_fixture_in_child(args.workload, args.seed, scratch)
        elif workload.from_checkpoint:
            # traced: in this process, so that its set-up layers have spans
            write_fixture(nn, workload, args.seed, scratch)
        bench = Bench(nn, workload, args.seed, tracer, scratch)
        # The cold set-up happens once, so it is scaled by the box's speed
        # around it rather than by blocks interleaved with it.
        setup_blocks = [reference_block() for _ in range(SETUP_REF_BLOCKS)]
        setup_s = bench.setup()
        setup_rss_mb = peak_rss_mb()
        setup_blocks += [reference_block() for _ in range(SETUP_REF_BLOCKS)]
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while True:
            bench.round(rounds)
            rounds += 1
            if time.perf_counter() >= deadline:
                break
        # Peak memory of the timed rounds, before the checks' own copies
        # (inference: read in round 0, before its first fine-tune step).
        if bench.peak_rss_mb is None:
            bench.peak_rss_mb = peak_rss_mb()
        bench.verify()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rates = {phase: bench.rate(phase) for phase in bench.windows}
    ref_block_s = statistics.median(
        w.ref_s / w.blocks for ws in bench.windows.values() for w in ws)
    setup_block_s = statistics.median(setup_blocks)
    setup_scaled_s = setup_s * REF_NOMINAL_S / setup_block_s
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "malloc_thresholds": MALLOC_THRESHOLDS,
        "numpy": np.__version__, "python": sys.version.split()[0],
        "ref_block_ms": ref_block_s * 1e3, "setup_ref_block_ms": setup_block_s * 1e3,
        "raw_rates_inst_per_s": {p: bench.rate(p, raw=True) for p in bench.windows},
        "raw_setup_s": setup_s,
        "setup_parts": bench.setup_parts,
        "peak_rss_after_setup_mb": setup_rss_mb,
        "imports_s": imports_s, "nnma_import_s": nnma_import_s, "fixture_s": fixture_s,
        "failures": bench.failures, "errors": bench.errors,
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_scaled_s, "s"),
            "train_rate": (rates["train"], "inst/ref_s"),
            "eval_rate": (rates["eval"], "inst/ref_s"),
            "analyze_rate": (rates["analyze"], "inst/ref_s"),
            "peak_rss_mb": (bench.peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics()
        for phase, value in rates.items():
            metrics[f"trace.{phase}_rate"] = (value, "inst/ref_s")
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, dict(info, setup_s=setup_scaled_s, peak_rss_mb=bench.peak_rss_mb))
        info["trace_file"] = str(path.relative_to(BENCH_DIR.parent))
    for line in bench.failures:
        print(f"bench: check failed: {line}", file=sys.stderr)
    for line in bench.errors:
        print(f"bench: operation failed: {line}", file=sys.stderr)
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
