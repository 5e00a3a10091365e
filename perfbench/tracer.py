"""Span tracer for the benchmark's traced runs, and the per-layer metrics.

The tracer wraps temperlab's public functions and `TransformerModel`
methods from the outside, by replacing module and class attributes, and
wraps the backward callables that `GradientTape.nodes` records. The
program's sources stay untouched. Spans (name, start, end, parent) are kept
in memory in flat arrays and written to an .npz file when the run ends.

A span's self time is its duration minus the time its direct child spans
cover. Per-layer metrics are computed from the spans of one slice of the
run (the traced rounds), so set-up, untraced rounds and probes do not mix.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

PRIMITIVES = (
    "matmul", "add", "mul", "scale", "bias_add", "relu", "reshape", "transpose",
    "row_softmax", "log_row_softmax", "layer_norm", "embed", "sum_all",
)
PREFIX_LENGTHS = (1, 12, 25)

# (module, attribute, span name) for the public functions that are wrapped
FUNCTIONS = (
    ("data", "generate_synthetic_corpus", "data.corpus"),
    ("data", "build_vocabulary", "data.vocab"),
    ("data", "encode_pairs", "data.encode"),
    ("data", "make_batches", "data.batches"),
    ("model", "init_parameters", "model.init"),
    ("model", "load_checkpoint", "model.load"),
    ("model", "save_checkpoint", "model.save"),
    ("tempering", "tempered_loss", "tempering.loss"),
    ("tempering", "entropy_views", "tempering.entropy"),
    ("training", "train_step", "training.step"),
    ("training", "global_gradient_norm", "training.grad_norm"),
    ("training", "evaluate_checkpoint", "training.eval"),
    ("training", "average_checkpoints", "training.average"),
    ("decoding", "greedy_decode", "decoding.greedy"),
    ("decoding", "beam_decode", "decoding.beam"),
    ("decoding", "greedy_decode_batch", "decoding.greedy_batch"),
    ("metrics", "corpus_bleu", "metrics.bleu"),
    ("metrics", "paired_bootstrap", "metrics.bootstrap"),
    ("experiments", "run_experiment", "experiments.run"),
    ("experiments", "oracle_beam_search", "experiments.oracle"),
    ("experiments", "test_greedy_outputs", "experiments.test_greedy"),
    ("experiments", "write_hypotheses", "experiments.write"),
    ("experiments", "_write_csv", "experiments.write"),
)
# (class, method, span name); `_attention` spans are named per block from its prefix
METHODS = (
    ("model.TransformerModel", "_attention", None),
    ("model.TransformerModel", "_embed", "model.embed"),
    ("model.TransformerModel", "_ffn", "model.ffn"),
    ("model.TransformerModel", "_residual", "model.residual_norm"),
    ("model.TransformerModel", "_decoder_stack", "model.decoder"),
    ("model.TransformerModel", "forward_teacher_forced", "model.forward"),
    ("model.TransformerModel", "encode", "model.encode"),
    ("model.TransformerModel", "decode_step", "model.decode_step"),
    ("model.TransformerModel", "decode_step_batch", "model.decode_step_batch"),
    ("training.AdamState", "update", "training.adam"),
)

# Every per-layer metric with its unit; the order is the order of output.
PER_LAYER_UNITS: dict[str, str] = {}
for _p in PRIMITIVES:
    PER_LAYER_UNITS[f"tensor.{_p}.fwd_ms"] = "ms"
    PER_LAYER_UNITS[f"tensor.{_p}.calls"] = "count"
for _p in PRIMITIVES:
    PER_LAYER_UNITS[f"tensor.{_p}.bwd_ms"] = "ms"
PER_LAYER_UNITS.update({
    "tensor.backward_ms": "ms", "tensor.tape_nodes": "count",
    "model.embed_ms": "ms", "model.enc_self_ms": "ms", "model.dec_self_ms": "ms",
    "model.dec_cross_ms": "ms", "model.ffn_ms": "ms", "model.residual_norm_ms": "ms",
    "model.head_ms": "ms", "model.encode_ms": "ms",
    **{f"model.decode_step_ms.len{n}": "ms" for n in PREFIX_LENGTHS},
    "model.init_ms": "ms", "model.load_ms": "ms", "data.corpus_ms": "ms", "data.vocab_ms": "ms",
    "tempering.labels_ms": "ms", "tempering.loss_ms": "ms", "tempering.entropy_ms": "ms",
    "tempering.label_mb": "MB",
    "training.step_ms": "ms", "training.forward_ms": "ms", "training.backward_ms": "ms",
    "training.adam_ms": "ms", "training.grad_norm_ms": "ms", "data.encode_ms": "ms",
    "data.batches_ms": "ms",
    "decoding.greedy_steps": "count", "decoding.beam_steps": "count", "decoding.search_ms": "ms",
    "decoding.batch_step_ms": "ms", "decoding.batch_steps": "count",
    "training.eval_ms": "ms", "training.eval_calls": "count", "metrics.bleu_ms": "ms",
    "experiments.run_ms": "ms", "experiments.oracle_ms": "ms", "experiments.test_greedy_ms": "ms",
    "experiments.write_ms": "ms", "model.save_ms": "ms", "training.average_ms": "ms",
    "metrics.bootstrap_ms": "ms",
    "trace.overhead_pct": "%",
})
del _p

_ATTENTION = {"attn": "model.enc_self", "self": "model.dec_self", "cross": "model.dec_cross"}


class Tracer:
    """Records spans while installed; `install`/`uninstall` may alternate."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._tracked: dict[int, tuple[object, int]] = {}  # id(output) -> (output, bwd span id)
        self.tape_nodes: list[tuple[int, int]] = []  # (backward span index, len(tape.nodes))
        self.label_bytes: list[tuple[int, int]] = []  # (labels span index, nbytes)

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark(self) -> int:
        return len(self.start)

    # -- span bookkeeping --------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _span(self, fn, nid: int, after=None):
        """Wrap `fn` in a span; `after(span index, result)` runs outside it."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(idx, out)
            return out

        return traced

    def _backward(self, fn):
        nid = self.nid("tensor.backward")
        tracked = self._tracked

        def traced(tape, loss):
            for node in tape.nodes:
                label = tracked.get(id(node.output))
                if label is not None and label[0] is node.output:
                    node.backward = self._span(node.backward, label[1])
            tracked.clear()
            idx = self._open(nid)
            self.tape_nodes.append((idx, len(tape.nodes)))
            try:
                return fn(tape, loss)
            finally:
                self._close(idx)

        return traced

    def _attention(self, fn):
        nids = {part: self.nid(name) for part, name in _ATTENTION.items()}
        open_, close = self._open, self._close

        def traced(model, prefix, *args, **kwargs):
            idx = open_(nids[prefix.rsplit(".", 1)[1]])
            try:
                return fn(model, prefix, *args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a temperlab module holds a reference."""
        names = {"tensor"} | {m for m, _, _ in FUNCTIONS} | {o.split(".")[0] for o, _, _ in METHODS}
        mods = {m: importlib.import_module(f"temperlab.{m}") for m in names}
        for prim in PRIMITIVES:

            def label(idx, out, bwd=self.nid(f"tensor.{prim}.bwd")):
                if out.tracked:  # on a tape: name its node for the backward pass
                    self._tracked[id(out)] = (out, bwd)

            fn = getattr(mods["tensor"], prim)
            self._replace(fn, self._span(fn, self.nid(f"tensor.{prim}"), label))
        fn = mods["tensor"].backward
        self._replace(fn, self._backward(fn))
        fn = mods["tempering"].smoothed_label_array
        self._replace(fn, self._span(fn, self.nid("tempering.labels"),
                                     lambda idx, out: self.label_bytes.append((idx, out.nbytes))))
        for mod, attr, name in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._replace(fn, self._span(fn, self.nid(name)))
        for owner, attr, name in METHODS:
            mod, cls_name = owner.split(".")
            cls = getattr(mods[mod], cls_name)
            fn = cls.__dict__[attr]
            wrapped = self._attention(fn) if name is None else self._span(fn, self.nid(name))
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, wrapped)

    def _replace(self, fn, wrapped) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "temperlab" and not name.startswith("temperlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        self._tracked.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    # -- aggregation -------------------------------------------------------

    def spans(self, lo: int, hi: int) -> "Spans":
        return Spans(self, lo, hi)


class Spans:
    """Per-name totals over the spans [lo, hi) of a tracer."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.tracer = tracer
        self.lo, self.hi = lo, hi
        k = len(tracer.names)
        name = np.frombuffer(tracer.name, dtype=np.int32)[lo:hi].astype(np.int64)
        start = np.frombuffer(tracer.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(tracer.end, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(tracer.parent, dtype=np.int64)[lo:hi] - lo
        dur = (end - start).astype(np.float64)
        inside = parent >= 0
        pname = np.full(name.shape, -1)
        pname[inside] = name[parent[inside]]
        is_model = np.array([n.startswith("model.") for n in tracer.names])
        child = np.zeros(hi - lo)
        np.add.at(child, parent[inside], dur[inside])
        model_child = np.zeros(hi - lo)
        mc = inside & is_model[name]
        np.add.at(model_child, parent[mc], dur[mc])
        self.name, self.pname, self.dur = name, pname, dur
        self.count = np.bincount(name, minlength=k)
        self.total = np.bincount(name, weights=dur, minlength=k)
        self.self_ = np.bincount(name, weights=dur - child, minlength=k)
        self.model_self = np.bincount(name, weights=dur - model_child, minlength=k)

    def _id(self, name: str) -> int:
        return self.tracer._ids.get(name, -1)

    def calls(self, name: str) -> int:
        i = self._id(name)
        return int(self.count[i]) if i >= 0 else 0

    def ms(self, name: str, kind: str = "total") -> float:
        i = self._id(name)
        return float(getattr(self, kind)[i]) / 1e6 if i >= 0 else 0.0

    def ms_per_call(self, name: str) -> float:
        n = self.calls(name)
        return self.ms(name) / n if n else 0.0

    def under(self, name: str, parent: str) -> tuple[int, float]:
        """Calls and total ms of `name` spans whose direct parent is `parent`."""
        sel = (self.name == self._id(name)) & (self.pname == self._id(parent))
        return int(sel.sum()), float(self.dur[sel].sum()) / 1e6

    def in_slice(self, pairs: list[tuple[int, int]]) -> list[int]:
        return [v for idx, v in pairs if self.lo <= idx < self.hi]


def layer_metrics(run: Spans, setup: Spans, ops: int, step_ms: dict[int, float],
                  overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric from the traced rounds `run` (`ops` operations)
    and the traced set-up `setup`.

    Times and counts are per operation (a training step, a sentence, or a
    whole sweep), except where the name or README says per call.
    """
    per = 1.0 / ops
    out: dict[str, float] = {}
    for p in PRIMITIVES:
        out[f"tensor.{p}.fwd_ms"] = run.ms(f"tensor.{p}") * per
        out[f"tensor.{p}.calls"] = run.calls(f"tensor.{p}") * per
    for p in PRIMITIVES:
        out[f"tensor.{p}.bwd_ms"] = run.ms(f"tensor.{p}.bwd") * per
    nodes = run.in_slice(run.tracer.tape_nodes)
    out["tensor.backward_ms"] = run.ms("tensor.backward") * per
    out["tensor.tape_nodes"] = sum(nodes) / len(nodes) if nodes else 0.0
    for key in ("embed", "enc_self", "dec_self", "dec_cross", "ffn", "residual_norm", "encode"):
        out[f"model.{key}_ms"] = run.ms(f"model.{key}") * per
    out["model.head_ms"] = run.ms("model.decoder", "model_self") * per
    for n in PREFIX_LENGTHS:
        out[f"model.decode_step_ms.len{n}"] = step_ms.get(n, 0.0)
    # set-up layers: ms per call, over the set-up and the traced rounds
    for key, span in (("model.init_ms", "model.init"), ("model.load_ms", "model.load"),
                      ("data.corpus_ms", "data.corpus"), ("data.vocab_ms", "data.vocab"),
                      ("data.encode_ms", "data.encode")):
        calls = setup.calls(span) + run.calls(span)
        out[key] = (setup.ms(span) + run.ms(span)) / calls if calls else 0.0
    labels = run.in_slice(run.tracer.label_bytes)
    out["tempering.labels_ms"] = run.ms("tempering.labels") * per
    out["tempering.loss_ms"] = run.ms("tempering.loss") * per
    out["tempering.entropy_ms"] = run.ms("tempering.entropy") * per
    out["tempering.label_mb"] = sum(labels) / len(labels) / 1e6 if labels else 0.0
    out["training.step_ms"] = run.ms("training.step") * per
    out["training.forward_ms"] = run.under("model.forward", "training.step")[1] * per
    out["training.backward_ms"] = run.under("tensor.backward", "training.step")[1] * per
    out["training.adam_ms"] = run.ms("training.adam") * per
    out["training.grad_norm_ms"] = run.ms("training.grad_norm") * per
    out["data.batches_ms"] = run.ms("data.batches") * per
    out["decoding.greedy_steps"] = run.under("model.decode_step", "decoding.greedy")[0] * per
    out["decoding.beam_steps"] = run.under("model.decode_step", "decoding.beam")[0] * per
    out["decoding.search_ms"] = run.ms("decoding.beam", "self_") * per
    batch_calls, batch_ms = run.under("model.decode_step_batch", "decoding.greedy_batch")
    out["decoding.batch_step_ms"] = batch_ms * per
    out["decoding.batch_steps"] = batch_calls * per
    out["training.eval_ms"] = run.ms("training.eval") * per
    out["training.eval_calls"] = run.calls("training.eval") * per
    out["metrics.bleu_ms"] = run.ms("metrics.bleu") * per
    out["experiments.run_ms"] = run.ms_per_call("experiments.run")
    out["experiments.oracle_ms"] = run.ms("experiments.oracle") * per
    out["experiments.test_greedy_ms"] = run.ms("experiments.test_greedy") * per
    out["experiments.write_ms"] = run.ms("experiments.write") * per
    out["model.save_ms"] = run.ms("model.save") * per
    out["training.average_ms"] = run.ms("training.average") * per
    out["metrics.bootstrap_ms"] = run.ms("metrics.bootstrap") * per
    out["trace.overhead_pct"] = overhead_pct
    return {name: out[name] for name in PER_LAYER_UNITS}
