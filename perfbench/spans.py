"""Span recording for the traced benchmark run.

While a recording is open, the public functions of each signscribe module
are replaced, at every name a caller looks them up by, with wrappers that
record one span per call: a name, a start, an end, the enclosing span, and
the group (one training step, one decode job, one request) it belongs to.
Spans stay in memory; `write_jsonl` puts them on disk when the run ends, and
`layer_metrics` turns them into the per-layer table.

Outside a recording the original functions are back in place, so untraced
operations run the package's own code with no wrapper in the call path.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute); "Class.method" patches the class.
# Span names double as per-layer metric prefixes, so two functions may share
# one: `embed` runs through `embed_batch`, and only the outer call counts.
TARGETS = (
    ("data.make_batch", "signscribe.data", "make_batch"),
    ("data.read_features", "signscribe.data", "read_features"),
    ("data.load_corpus", "signscribe.data", "load_corpus"),
    ("embeddings.spatial", "signscribe.embeddings", "SpatialEmbedder.embed_batch"),
    ("embeddings.spatial", "signscribe.embeddings", "SpatialEmbedder.embed"),
    ("transformer.run_encoder", "signscribe.transformer", "run_encoder"),
    ("transformer.run_decoder", "signscribe.transformer", "run_decoder"),
    ("transformer.multi_head_attention", "signscribe.transformer", "multi_head_attention"),
    ("model.batch_losses", "signscribe.model", "batch_losses"),
    ("model.word_logits", "signscribe.model", "JointModel.word_logits"),
    ("model.prefix_logits", "signscribe.model", "JointModel.prefix_logits"),
    ("model.prefix_logits_batch", "signscribe.model", "JointModel.prefix_logits_batch"),
    ("losses.recognition_loss_batch", "signscribe.losses", "recognition_loss_batch"),
    ("losses.ctc_log_prob", "signscribe.losses", "ctc_log_prob"),
    ("losses.translation_loss_batch", "signscribe.losses", "translation_loss_batch"),
    ("autodiff.backward", "signscribe.autodiff", "backward"),
    ("training.train", "signscribe.training", "train"),
    ("training.adam_step", "signscribe.training", "adam_step"),
    ("training.checkpoint_save", "signscribe.training", "checkpoint_save"),
    ("training.checkpoint_load", "signscribe.training", "checkpoint_load"),
    ("training.restore_model", "signscribe.training", "restore_model"),
    ("decoding.ctc_greedy", "signscribe.decoding", "ctc_greedy"),
    ("decoding.ctc_beam_search", "signscribe.decoding", "ctc_beam_search"),
    ("decoding.ar_greedy_batch", "signscribe.decoding", "ar_greedy_batch"),
    ("decoding.ar_beam_search", "signscribe.decoding", "ar_beam_search"),
    ("decoding.ar_greedy", "signscribe.decoding", "ar_greedy"),
    ("evaluation.encode_split", "signscribe.evaluation", "encode_split"),
    ("evaluation.decode_glosses", "signscribe.evaluation", "decode_glosses"),
    ("evaluation.decode_sentences", "signscribe.evaluation", "decode_sentences"),
    ("evaluation.evaluate_corpus", "signscribe.evaluation", "evaluate_corpus"),
    ("evaluation.sweep", "signscribe.evaluation", "sweep_decode_parameters"),
    ("evaluation.corpus_wer", "signscribe.evaluation", "corpus_wer"),
    ("metrics.bleu", "signscribe.metrics", "bleu"),
    ("metrics.wer", "signscribe.metrics", "wer"),
    ("cli.main", "signscribe.cli", "main"),
)

AR_DECODERS = ("decoding.ar_greedy_batch", "decoding.ar_beam_search", "decoding.ar_greedy")


def _observe(name, args, out) -> dict | None:
    """Counts a span carries, read from the wrapped call's arguments or result."""
    if name == "transformer.run_decoder":
        shape = args[0].shape  # embedded targets, (B, U, d) or (U, d)
        return {"positions": shape[0] * shape[1] if len(shape) == 3 else shape[0]}
    if name == "autodiff.backward":
        return {"nodes": len(args[0].nodes)}
    if name == "model.batch_losses":
        return {"skipped": len(out[3])}
    if name in AR_DECODERS:
        hyps = out if isinstance(out, list) else [out]
        return {
            "hyps": len(hyps),
            "tokens": sum(len(h.tokens) for h in hyps),
            "unfinished": sum(1 for h in hyps if not h.finished),
        }
    return None


class Tracer:
    """In-memory span store plus the patching that feeds it.

    A span is the list [name, start_ns, end_ns, parent, group, attrs]; its id
    is its index. `group` names the operation the span belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.group = ""
        self._base = ""
        self._step = 0
        self._patches = self._resolve_targets()

    @staticmethod
    def _resolve_targets():
        patches = []
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "signscribe" or n.startswith("signscribe."))]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                patches.append((name, owner.__dict__[method], [(owner, method)]))
                continue
            original = getattr(module, attr)
            owners = [(m, attr) for m in package if vars(m).get(attr) is original]
            patches.append((name, original, owners))
        return patches

    def open(self, name: str) -> int:
        if (name == "data.make_batch" and self._open
                and self.spans[self._open[-1]][0] == "training.train"):
            # each training iteration starts by batching: one group per step
            self._step += 1
            self.group = f"{self._base}/step{self._step}"
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.group, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.spans[idx][5] = _observe(name, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def recording(self, root: str, group: str):
        """Patch every target, record under one root span, then restore."""
        installed = []
        try:
            for name, original, owners in self._patches:
                wrapped = self._wrap(name, original)
                for owner, attr in owners:
                    setattr(owner, attr, wrapped)
                    installed.append((owner, attr, original))
            self.group = self._base = group
            self._step = 0
            idx = self.open(root)
            try:
                yield
            finally:
                self.close(idx)
        finally:
            for owner, attr, original in installed:
                setattr(owner, attr, original)

    def job(self, label: str) -> None:
        """Group the following spans under one job of the current operation."""
        self.group = f"{self._base}/{label}"

    def write_jsonl(self, path) -> None:
        child_ns = self.child_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, group, attrs) in enumerate(self.spans):
                record = {"id": idx, "parent": parent, "group": group, "name": name,
                          "start_ns": start, "end_ns": end,
                          "self_ns": end - start - child_ns[idx]}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")

    def child_ns(self) -> list[int]:
        """Per span, the time its direct children cover (children never overlap)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _group, _attrs in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child


def layer_metrics(tracer: Tracer, n_ops: int, overhead_share: float) -> dict[str, float]:
    """The per-layer table, from spans under "op" roots (setup for load_corpus).

    Times are means per call (outer call only when a layer calls itself);
    `.calls` and `.positions` are per measured operation; shares are
    fractions of the named parent's wall time.
    """
    spans = tracer.spans
    child_ns = tracer.child_ns()
    root_of: list[str] = []
    ancestors_named: list[frozenset] = []
    for name, _s, _e, parent, _g, _a in spans:
        if parent is None:
            root_of.append(name)
            ancestors_named.append(frozenset())
        else:
            root_of.append(root_of[parent])
            ancestors_named.append(ancestors_named[parent] | {spans[parent][0]})

    by_name: dict[str, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if root_of[idx] == "op" and span[0] not in ancestors_named[idx]:
            by_name[span[0]].append(idx)
    setup_loads = [i for i, s in enumerate(spans)
                   if root_of[i] == "setup" and s[0] == "data.load_corpus"]

    def dur(idx):
        return (spans[idx][2] - spans[idx][1]) / 1e9

    def total_s(name):
        return sum(dur(i) for i in by_name[name])

    def mean_s(name, ids=None):
        ids = by_name[name] if ids is None else ids
        return sum(dur(i) for i in ids) / len(ids) if ids else 0.0

    def self_s(idx):
        return dur(idx) - child_ns[idx] / 1e9

    def attr_sum(ids, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in ids)

    def share(part, whole):
        return part / whole if whole else 0.0

    per_op = 1.0 / max(n_ops, 1)
    steps = len(by_name["training.adam_step"])
    outer_ar = [i for n in AR_DECODERS for i in by_name[n]
                if not ancestors_named[i] & set(AR_DECODERS)]
    tokens = attr_sum(outer_ar, "tokens")
    decode_forwards = [i for i in by_name["transformer.run_decoder"]
                       if ancestors_named[i] & set(AR_DECODERS)]
    train_eval = [i for i in by_name["evaluation.evaluate_corpus"]
                  if "training.train" in ancestors_named[i]]
    sweep_decodes = [i for i in by_name["evaluation.decode_sentences"]
                     if "evaluation.sweep" in ancestors_named[i]]
    stack_s = total_s("transformer.run_encoder") + total_s("transformer.run_decoder")

    ms = 1e3
    return {
        "data.make_batch.ms": mean_s("data.make_batch") * ms,
        "data.read_features.ms": mean_s("data.read_features") * ms,
        "data.load_corpus.s": mean_s("data.load_corpus", setup_loads),
        "embeddings.spatial.ms": mean_s("embeddings.spatial") * ms,
        "transformer.run_encoder.ms": mean_s("transformer.run_encoder") * ms,
        "transformer.run_decoder.ms": mean_s("transformer.run_decoder") * ms,
        "transformer.run_decoder.positions":
            attr_sum(by_name["transformer.run_decoder"], "positions") * per_op,
        "transformer.attention.share":
            share(total_s("transformer.multi_head_attention"), stack_s),
        "model.batch_losses.ms": mean_s("model.batch_losses") * ms,
        "model.word_logits.ms": mean_s("model.word_logits") * ms,
        "model.prefix_logits.calls": len(by_name["model.prefix_logits"]) * per_op,
        "model.prefix_logits.ms": mean_s("model.prefix_logits") * ms,
        "model.prefix_logits_batch.calls":
            len(by_name["model.prefix_logits_batch"]) * per_op,
        "model.prefix_logits_batch.ms": mean_s("model.prefix_logits_batch") * ms,
        "losses.recognition_loss_batch.ms": mean_s("losses.recognition_loss_batch") * ms,
        "losses.ctc_log_prob.calls_per_step":
            share(len(by_name["losses.ctc_log_prob"]), steps),
        "losses.translation_loss_batch.ms": mean_s("losses.translation_loss_batch") * ms,
        "losses.skipped_targets": attr_sum(by_name["model.batch_losses"], "skipped") * per_op,
        "autodiff.backward.ms": mean_s("autodiff.backward") * ms,
        "autodiff.tape_nodes": share(attr_sum(by_name["autodiff.backward"], "nodes"),
                                     len(by_name["autodiff.backward"])),
        "training.adam_step.ms": mean_s("training.adam_step") * ms,
        "training.evaluate_corpus.share":
            share(sum(dur(i) for i in train_eval), total_s("training.train")),
        "training.checkpoint_save.ms": mean_s("training.checkpoint_save") * ms,
        "training.checkpoint_load.ms": mean_s("training.checkpoint_load") * ms,
        "training.restore_model.ms": mean_s("training.restore_model") * ms,
        "training.train.uncovered_share":
            share(sum(self_s(i) for i in by_name["training.train"]),
                  total_s("training.train")),
        "decoding.ctc_greedy.ms": mean_s("decoding.ctc_greedy") * ms,
        "decoding.ctc_beam_search.ms": mean_s("decoding.ctc_beam_search") * ms,
        "decoding.ar_greedy_batch.ms": mean_s("decoding.ar_greedy_batch") * ms,
        "decoding.ar_beam_search.ms": mean_s("decoding.ar_beam_search") * ms,
        "decoding.ar_greedy.ms": mean_s("decoding.ar_greedy") * ms,
        "decoding.positions_per_token":
            share(attr_sum(decode_forwards, "positions"), tokens),
        "decoding.forwards_per_token": share(len(decode_forwards), tokens),
        "decoding.unfinished_share":
            share(attr_sum(outer_ar, "unfinished"), attr_sum(outer_ar, "hyps")),
        "evaluation.encode_split.ms": mean_s("evaluation.encode_split") * ms,
        "evaluation.decode_glosses.s": mean_s("evaluation.decode_glosses"),
        "evaluation.decode_sentences.s": mean_s("evaluation.decode_sentences"),
        "evaluation.sweep.decodes":
            share(len(sweep_decodes), len(by_name["evaluation.sweep"])),
        "metrics.bleu.ms": mean_s("metrics.bleu") * ms,
        "metrics.wer.ms": mean_s("metrics.wer") * ms,
        "cli.main.self_ms":
            share(sum(self_s(i) for i in by_name["cli.main"]), len(by_name["cli.main"])) * ms,
        "trace.overhead_share": overhead_share,
    }
