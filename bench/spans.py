"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

The program is not edited: ``Tracer.install`` replaces the public
functions and methods of each nnma module, in every nnma namespace that
holds them, with wrappers that record a span (name, start, end, parent)
around each call. A span's self time is its duration minus the time of
its direct child spans. Spans stay in memory and are written as JSON
when the run ends. Tape-node counts are taken from tensors the wrappers
hold on to, after the operation that made them has finished, so
counting adds no time to any span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MAX_SPANS = 500_000  # raw spans kept for the JSON file; aggregates count all
HELD_PER_SAMPLE = {"encode": 2}  # calls per instance; other held calls: 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.labels: dict[int, str] = {}  # id(object) -> span name
        self.sample = False               # hold tensors from the next calls
        self.held: dict[str, object] = {}
        self._stack: list[list] = []
        self._topo_order = None  # the unwrapped tensor.topo_order

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name, units=None):
        stack = self._stack
        agg = self.agg
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = stack[-1][3] if stack else -1
            frame = [label, clock(), 0.0, len(spans) if len(spans) < MAX_SPANS else -1]
            if frame[3] >= 0:
                spans.append(None)  # placeholder so children see our index
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                entry = agg[label]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if units is not None:
                    entry[3] += units(args)
                if frame[3] >= 0:
                    spans[frame[3]] = (label, frame[1], end, parent)

        return wrapper

    def _patch(self, nn, owner, attr: str, name, units=None, hold=None) -> None:
        """Wrap ``owner.attr``; a module function is replaced in every nnma
        namespace that imported it by name. A name the program no longer
        has is skipped, and its metrics read 0."""
        if not hasattr(owner, attr):
            return
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._wrap(self._holding(fn, hold) if hold else fn, name, units)
            setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
            return
        fn = getattr(owner, attr)
        wrapped = self._wrap(self._holding(fn, hold) if hold else fn, name, units)
        modules = [nn] + [m for key, m in sys.modules.items()
                          if key.startswith(nn.__name__ + ".")]
        for module in modules:
            if getattr(module, attr, None) is fn:
                setattr(module, attr, wrapped)

    def _holding(self, fn, key):
        """Keep the arguments and result of the first instance's calls in
        a sampled operation, for node counts. Holding every instance of a
        multi-instance call would keep all their graphs alive and slow
        the traced call."""
        limit = HELD_PER_SAMPLE.get(key, 1)

        def inner(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.sample:
                held = self.held.setdefault(key, [])
                if len(held) < limit:
                    held.append((args, out))
            return out

        return inner

    def install(self, nn) -> None:
        """Wrap the calls into each layer of the program."""
        self._topo_order = nn.tensor.topo_order
        labels = self.labels
        by_label = lambda default, pos: lambda args: labels.get(id(args[pos]), default)
        patch = functools.partial(self._patch, nn)
        patch(nn.corpus, "synth_generate", "corpus.synth")
        patch(nn.corpus, "parse_tsv", "corpus.parse_tsv")
        patch(nn.rng.Rng, "uniform_matrix", "rng.uniform_matrix")
        patch(nn.embeddings.Vocabulary, "from_instances", "embeddings.vocab")
        patch(nn.embeddings, "embed_sequence", "embeddings.lookup")
        patch(nn.recurrent, "bi_encode", by_label("recurrent.bi_encode", 1), hold="encode")
        patch(nn.attention, "run_stack", "attention.stack", hold="stack")
        patch(nn.model.NnmaModel, "forward", "model.forward", hold="forward")
        patch(nn.model.NnmaModel, "loss", "model.loss", hold="loss")
        patch(nn.model.NnmaModel, "create", "model.create")
        patch(nn.model.NnmaModel, "load", "model.load")
        patch(nn.model.NnmaModel, "save", "model.save")
        patch(nn.tensor.Tensor, "backward", "tensor.backward")
        patch(nn.tensor, "topo_order", "tensor.topo_order")
        patch(nn.trainer, "train_step", "trainer.train_step")
        patch(nn.trainer, "dropout_mask", "trainer.dropout_mask")
        patch(nn.trainer.MomentumSgd, "step", by_label("trainer.opt", 0))
        patch(nn.metrics, "evaluate", "metrics.evaluate", units=lambda a: len(a[1]))
        patch(nn.metrics, "attention_kl_report", "metrics.kl_report",
              units=lambda a: len(a[1]))
        patch(nn.metrics, "kl_divergence", "metrics.kl_divergence")
        patch(nn.metrics, "heatmap_csv", "metrics.heatmap_csv")
        patch(nn.metrics, "heatmap_ppm", "metrics.heatmap_ppm")

    # -- counts -----------------------------------------------------------

    def count_held(self, phase: str) -> None:
        """Turn tensors held from one sampled operation into node counts:
        the nodes reachable through grad-requiring edges, listed by the
        unwrapped ``topo_order``."""
        topo_order = self._topo_order

        def reach(tensors):
            ids = set()
            for t in tensors:
                ids.update(id(node) for node in topo_order(t))
            return ids

        held, self.held = self.held, {}
        encoded = held.get("encode", [])
        if encoded:
            made = sum(len(reach([out]) - reach([seq]) - reach(params.tensors()))
                       for (seq, params), out in encoded)
            self.samples["recurrent.nodes"].append(made / (len(encoded) / 2))
        for (h1, h2, levels), trace in held.get("stack", []):
            outs = [trace.general.R0_1, trace.general.R0_2]
            for lv in trace.levels:
                outs += [lv.M, lv.a1, lv.a2, lv.R1, lv.R2]
            params = [t for level in levels for t in level.tensors()]
            self.samples["attention.nodes"].append(
                len(reach(outs) - reach([h1, h2]) - reach(params)))
        if phase == "train":
            for _, loss in held.get("loss", []):
                self.samples["tensor.tape_nodes"].append(len(topo_order(loss)))
        elif phase == "eval":
            for _, pred in held.get("forward", []):
                self.samples["tensor.eval_nodes"].append(len(topo_order(pred.probabilities)))

    def count(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, by name, as (value, unit)."""
        agg = self.agg

        def calls(name):
            return agg[name][0] if name in agg else 0

        def total(name):
            return agg[name][1] if name in agg else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def mean_ms(name):
            return ratio(total(name), calls(name)) * 1e3

        def mean(name):
            values = self.samples.get(name, [])
            return ratio(sum(values), len(values))

        forwards = calls("model.forward")
        backwards = calls("tensor.backward")
        heatmaps = total("metrics.heatmap_csv") + total("metrics.heatmap_ppm")
        out = {
            "corpus.synth_s": (total("corpus.synth"), "s"),
            "corpus.parse_tsv_s": (total("corpus.parse_tsv"), "s"),
            "rng.init_draws_s": (total("rng.uniform_matrix"), "s"),
            "embeddings.vocab_s": (total("embeddings.vocab"), "s"),
            "embeddings.lookup_ms": (ratio(total("embeddings.lookup"), forwards) * 1e3, "ms"),
            "embeddings.grad_bytes": (mean("embeddings.grad_bytes"), "bytes"),
            "embeddings.grad_cols_used_share": (mean("embeddings.grad_cols_used_share"), "share"),
            "recurrent.enc1_ms": (mean_ms("recurrent.enc1"), "ms"),
            "recurrent.enc2_ms": (mean_ms("recurrent.enc2"), "ms"),
            "recurrent.nodes": (mean("recurrent.nodes"), "count"),
            "attention.stack_ms": (mean_ms("attention.stack"), "ms"),
            "attention.nodes": (mean("attention.nodes"), "count"),
            "model.forward_ms": (mean_ms("model.forward"), "ms"),
            "model.head_self_ms": (ratio(agg["model.forward"][2], forwards) * 1e3
                                   if forwards else 0.0, "ms"),
            "model.loss_ms": (mean_ms("model.loss"), "ms"),
            "model.create_s": (total("model.create"), "s"),
            "model.load_s": (total("model.load"), "s"),
            "model.save_s": (total("model.save"), "s"),
            "tensor.backward_ms": (mean_ms("tensor.backward"), "ms"),
            "tensor.topo_order_ms": (ratio(total("tensor.topo_order"), backwards) * 1e3, "ms"),
            "tensor.tape_nodes": (mean("tensor.tape_nodes"), "count"),
            "tensor.eval_nodes": (mean("tensor.eval_nodes"), "count"),
            "trainer.train_step_ms": (mean_ms("trainer.train_step"), "ms"),
            "trainer.dropout_mask_ms": (mean_ms("trainer.dropout_mask"), "ms"),
            "trainer.opt_net_ms": (mean_ms("trainer.opt_net"), "ms"),
            "trainer.opt_emb_ms": (mean_ms("trainer.opt_emb"), "ms"),
            "metrics.evaluate_s": (ratio(total("metrics.evaluate"),
                                         agg["metrics.evaluate"][3]), "s/inst"),
            "metrics.kl_report_s": (ratio(total("metrics.kl_report"),
                                          agg["metrics.kl_report"][3]), "s/inst"),
            "metrics.kl_divergence_ms": (mean_ms("metrics.kl_divergence"), "ms"),
            "metrics.heatmap_ms": (ratio(heatmaps, calls("metrics.heatmap_csv")) * 1e3, "ms"),
        }
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write spans, per-name aggregates and counts as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [s for s in self.spans if s is not None],
            "spans_dropped": max(0, sum(int(v[0]) for v in self.agg.values()) - len(self.spans)),
            "layers": {name: {"calls": v[0], "total_s": v[1], "self_s": v[2], "units": v[3]}
                       for name, v in sorted(self.agg.items())},
            "counts": {name: values for name, values in sorted(self.samples.items())},
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics().items()},
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
