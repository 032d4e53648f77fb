"""Optimization: Adam with weight decay, plateau scheduling, checkpoints.

The training loop minimizes the weighted joint objective over shuffled
batches, skips (and counts in the log) any step whose loss or gradient is
not finite, gives up with NonFiniteLossError after MAX_NONFINITE_STEPS such
steps in a row, skips without counting a step that has no loss at all (a
recognition-only batch none of whose CTC targets fits its frames),
evaluates the dev split with greedy decoding every eval_every
iterations, reduces the learning rate by a fixed factor after `patience`
evaluations without improvement, and stops once a reduction would cross the
floor (the rate is never set below it). The tracked metric is WER whenever
recognition carries weight, otherwise BLEU-4.

Checkpoints ("SLTC") store every named float array as little-endian float64
plus a JSON footer for the scalars, so a round trip is bit-identical. A save
replaces its target atomically. They exist to rebuild a model for decoding:
`train` saves the parameters and batch-norm running statistics alone, and
nothing here reads optimizer or scheduler state back, so a run cannot be
resumed from one.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .config import MODEL_FIELDS, RunConfig
from .data import Vocabulary, atomic_write, check_glosses, load_corpus, make_batch
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    CorpusError,
    DimensionError,
    NonFiniteLossError,
)
from .evaluation import evaluate_corpus
from .losses import LossWeights
from .model import GLOSS_INPUT, PROTOCOLS, JointModel, batch_losses

log = logging.getLogger("signscribe.training")

CHECKPOINT_MAGIC = b"SLTC"
CHECKPOINT_VERSION = 1

# Consecutive steps with a non-finite loss or gradient after which training gives up.
MAX_NONFINITE_STEPS = 5


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam accumulators for one named parameter set."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.998
    eps: float = 1e-8
    weight_decay: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_optimizer(params: dict[str, Tensor], lr: float = 1e-3, *,
                   beta1: float = 0.9, beta2: float = 0.998, eps: float = 1e-8,
                   weight_decay: float = 1e-3) -> OptimizerState:
    state = OptimizerState(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                           weight_decay=weight_decay)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def adam_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One in-place Adam update with classic additive weight decay.

    Parameters whose gradient is absent this step (e.g. a head skipped for
    an all-infeasible batch) still decay, matching the additive g + wd*theta
    formulation. Bias correction uses the shared step counter.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            raise ContractError(f"optimizer state missing parameter {name}")
        if m.shape != p.data.shape:
            raise DimensionError(
                f"{name}: moment shape {m.shape} != parameter shape {p.data.shape}"
            )
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        # in place, in the operand order of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*g*g and lr*m_hat / (sqrt(v_hat) + eps)
        v = state.v[name]
        scratch = (1.0 - state.beta1) * g
        m *= state.beta1
        m += scratch
        np.multiply(1.0 - state.beta2, g, out=scratch)
        scratch *= g
        v *= state.beta2
        v += scratch
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.eps
        update = m / bc1
        update *= state.lr
        update /= scratch
        p.data -= update


# ---------------------------------------------------------------------------
# Plateau scheduler
# ---------------------------------------------------------------------------


@dataclass
class SchedulerState:
    """Plateau tracker; `minimize` selects the improvement direction."""

    patience: int = 8
    factor: float = 0.7
    floor: float = 1e-6
    minimize: bool = True
    best: float | None = None
    evals_since_improvement: int = 0


@dataclass(frozen=True)
class SchedulerDecision:
    action: str  # "none" | "reduce_lr" | "stop"
    lr: float
    improved: bool


def scheduler_update(state: SchedulerState, current_lr: float,
                     dev_score: float) -> SchedulerDecision:
    """Advance the plateau tracker by one evaluation.

    Improvement must be strict. Exhausting patience proposes lr * factor;
    if that would cross the floor the decision is to stop, leaving the rate
    untouched (it is never set below the floor).
    """
    if state.best is None:
        improved = True
    elif state.minimize:
        improved = dev_score < state.best
    else:
        improved = dev_score > state.best
    if improved:
        state.best = dev_score
        state.evals_since_improvement = 0
        return SchedulerDecision("none", current_lr, True)
    state.evals_since_improvement += 1
    if state.evals_since_improvement < state.patience:
        return SchedulerDecision("none", current_lr, False)
    state.evals_since_improvement = 0
    reduced = current_lr * state.factor
    if reduced < state.floor:
        return SchedulerDecision("stop", current_lr, False)
    return SchedulerDecision("reduce_lr", reduced, False)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    tensors: dict[str, np.ndarray]
    footer: dict


def _model_arrays(model: JointModel) -> dict[str, np.ndarray]:
    """The model's own arrays a checkpoint stores: every parameter and buffer."""
    return {**{name: p.data for name, p in model.named_parameters().items()},
            **model.named_buffers()}


def _collect_tensors(model: JointModel, optimizer: OptimizerState | None) -> dict[str, np.ndarray]:
    tensors = _model_arrays(model)
    if optimizer is not None:
        for name, arr in optimizer.m.items():
            tensors[f"adam.m.{name}"] = arr
        for name, arr in optimizer.v.items():
            tensors[f"adam.v.{name}"] = arr
    return tensors


def checkpoint_save(
    path,
    model: JointModel,
    gloss_vocab: Vocabulary,
    text_vocab: Vocabulary,
    protocol: str,
    optimizer: OptimizerState | None = None,
    scheduler: SchedulerState | None = None,
    extra: dict | None = None,
) -> Path:
    """Serialize a model for decoding; identical state gives identical bytes.

    Given an optimizer and scheduler, their Adam moments ("adam.m.*",
    "adam.v.*") and footer fields are written too, but no reader in the
    package uses them: `restore_model` rebuilds the model alone. A synced
    sibling temp file replaces path, so a failed save keeps the old file.
    """
    path = Path(path)
    tensors = _collect_tensors(model, optimizer)
    footer = {
        "format_version": CHECKPOINT_VERSION,
        "model": model.hyperparams,
        "protocol": protocol,
        "gloss_tokens": list(gloss_vocab.tokens),
        "text_tokens": list(text_vocab.tokens),
        "optimizer": None if optimizer is None else {
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "weight_decay": optimizer.weight_decay,
            "step": optimizer.step,
        },
        "scheduler": None if scheduler is None else {
            "patience": scheduler.patience,
            "factor": scheduler.factor,
            "floor": scheduler.floor,
            "minimize": scheduler.minimize,
            "best": scheduler.best,
            "evals_since_improvement": scheduler.evals_since_improvement,
        },
        "extra": extra or {},
    }
    footer_bytes = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name in sorted(tensors):
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
        fh.write(struct.pack("<I", len(footer_bytes)))
        fh.write(footer_bytes)
    return path


def checkpoint_load(path) -> Checkpoint:
    """Read a checkpoint with one read; every field is parsed in place.

    The tensors are read-only views of the file's bytes.
    """
    path = Path(path)
    buf = path.read_bytes()
    at = 0

    def take(n: int, what: str) -> int:
        # bounds are checked against the bytes read, so a corrupt length allocates nothing
        nonlocal at
        if n > len(buf) - at:
            raise CheckpointError(f"{path}: truncated checkpoint ({what})")
        at += n
        return at - n

    take(12, "header")
    if buf[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version, count = struct.unpack_from("<II", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", buf, take(2, "tensor name"))
        start = take(name_len, "tensor name")
        try:
            name = buf[start:at].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {exc}") from exc
        rank = buf[take(1, "tensor rank")]
        dims = struct.unpack_from(f"<{rank}I", buf, take(4 * rank, "tensor dims"))
        # math.prod on Python ints: a corrupt shape cannot wrap around
        size = math.prod(dims)
        start = take(8 * size, f"tensor {name}")
        try:
            tensors[name] = np.frombuffer(buf, "<f8", size, start).reshape(dims)
        except ValueError as exc:  # more dimensions than NumPy supports
            raise CheckpointError(f"{path}: tensor {name}: {exc}") from exc
    (footer_len,) = struct.unpack_from("<I", buf, take(4, "footer length"))
    start = take(footer_len, "footer")
    try:
        footer = json.loads(buf[start:at].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: malformed footer: {exc}") from exc
    if not isinstance(footer, dict):
        raise CheckpointError(f"{path}: footer is not a JSON object")
    if at != len(buf):
        raise CheckpointError(f"{path}: trailing bytes after footer")
    return Checkpoint(tensors=tensors, footer=footer)


def _rebuild_vocab(tokens: list[str], specials) -> Vocabulary:
    vocab = Vocabulary(tokens[len(specials):], specials)
    if list(vocab.tokens) != list(tokens):
        raise CheckpointError("stored vocabulary is not in canonical order")
    return vocab


def _stored_tensor(ckpt: Checkpoint, name: str, shape) -> np.ndarray:
    arr = ckpt.tensors.get(name)
    if arr is None:
        raise CheckpointError(f"checkpoint missing tensor {name}")
    if arr.shape != shape:
        raise CheckpointError(f"{name}: stored shape {arr.shape} != model shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"{name}: non-finite stored values")
    return arr


def restore_model(ckpt: Checkpoint) -> tuple[JointModel, Vocabulary, Vocabulary]:
    """Rebuild the model and vocabularies a checkpoint was saved from.

    The model is built draw-free, and each stored tensor is copied into the
    array its name finds in named_parameters or named_buffers.
    """
    from .data import GLOSS_SPECIALS, TEXT_SPECIALS

    footer = ckpt.footer
    try:
        hyper = footer["model"]
        gloss_tokens = footer["gloss_tokens"]
        text_tokens = footer["text_tokens"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint footer missing field {exc}") from exc
    if not isinstance(hyper, dict):
        raise CheckpointError("checkpoint footer field 'model' is not an object")
    for key, tokens in (("gloss_tokens", gloss_tokens), ("text_tokens", text_tokens)):
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CheckpointError(f"checkpoint footer field {key!r} is not a list of strings")
    if footer.get("protocol") not in PROTOCOLS:
        raise CheckpointError(
            f"checkpoint footer names no known protocol: {footer.get('protocol')!r}"
        )
    try:
        model = JointModel(seed=None, **hyper)
    except (TypeError, ConfigError) as exc:  # a missing or unknown name, a bad value
        raise CheckpointError(f"checkpoint model hyperparameters do not fit: {exc}") from exc
    if model.n_glosses != len(gloss_tokens) or model.n_words != len(text_tokens):
        raise CheckpointError("stored dims disagree with stored vocabularies")
    for name, arr in _model_arrays(model).items():
        arr[...] = _stored_tensor(ckpt, name, arr.shape)
    gloss_vocab = _rebuild_vocab(gloss_tokens, GLOSS_SPECIALS)
    text_vocab = _rebuild_vocab(text_tokens, TEXT_SPECIALS)
    return model, gloss_vocab, text_vocab


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: JointModel
    gloss_vocab: Vocabulary
    text_vocab: Vocabulary
    log: list[dict]
    best_path: Path | None
    best_score: float | None
    iterations: int
    stop_reason: str  # "max_iterations" | "lr_floor"


def _batch_iterator(samples, batch_size: int, rng: np.random.Generator):
    """Endless shuffled batches; reshuffles at every epoch boundary."""
    while True:
        order = rng.permutation(len(samples))
        for start in range(0, len(samples), batch_size):
            idx = order[start : start + batch_size]
            if len(idx):
                yield [samples[i] for i in idx]


def train(
    cfg: RunConfig,
    *,
    train_samples=None,
    dev_samples=None,
    gloss_vocab: Vocabulary | None = None,
    text_vocab: Vocabulary | None = None,
) -> TrainResult:
    """Run one training job; corpus splits load from cfg.corpus unless given."""
    if train_samples is None:
        train_samples, gloss_vocab, text_vocab = load_corpus(cfg.corpus, "train")
    elif gloss_vocab is None or text_vocab is None:
        raise ContractError("injected samples need their vocabularies")
    if dev_samples is None:
        dev_samples, _, _ = load_corpus(cfg.corpus, "dev")
    if not train_samples:
        raise ContractError("no training samples")
    if not dev_samples:
        raise ContractError("plateau scheduling needs a non-empty dev split")
    d_in = train_samples[0].features.shape[1]
    if cfg.protocol in GLOSS_INPUT:
        check_glosses([*train_samples, *dev_samples], gloss_vocab)
    else:
        for s in dev_samples:
            if s.features.shape[1] != d_in:
                raise CorpusError(f"{s.id}: dev feature width {s.features.shape[1]} differs "
                                  f"from the train width {d_in}")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.jsonl"
    best_path = out_dir / "best.sltc"

    model = JointModel(d_in=d_in, n_glosses=len(gloss_vocab), n_words=len(text_vocab),
                       seed=cfg.seed, **{name: getattr(cfg, name) for name in MODEL_FIELDS})
    params = model.trainable_parameters(cfg.protocol)
    optimizer = init_optimizer(
        params, cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
        weight_decay=cfg.weight_decay,
    )
    scheduler = SchedulerState(
        patience=cfg.patience, factor=cfg.lr_factor, floor=cfg.lr_floor,
        minimize=cfg.lambda_r > 0,
    )
    weights = LossWeights(cfg.lambda_r, cfg.lambda_t)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    dropout_rng = np.random.default_rng([cfg.seed, 2])
    batches = _batch_iterator(train_samples, cfg.batch_size, shuffle_rng)

    history: list[dict] = []
    sums = {"loss": 0.0, "loss_r": 0.0, "loss_t": 0.0, "n": 0, "nonfinite": 0}
    nonfinite_run = 0
    saved_best = None
    stop_reason = "max_iterations"
    iteration = 0

    with open(log_path, "w", encoding="utf-8") as log_file:
        for iteration in range(1, cfg.max_iterations + 1):
            batch = make_batch(next(batches), gloss_vocab, text_vocab)
            running_stats = (model.spatial.bn_running_mean, model.spatial.bn_running_var)
            with Graph() as graph:
                total, loss_r, loss_t, skipped = batch_losses(
                    model, batch, weights, cfg.protocol,
                    train=True, rng=dropout_rng,
                )
                for j in skipped:
                    log.warning(
                        "%s: CTC target cannot fit %d frames, sample skipped",
                        batch.ids[j], batch.frame_counts[j],
                    )
                # a finite loss can still have a non-finite gradient (an inf
                # activation, an overflowing backward), so both are checked;
                # no loss at all (no CTC target fits) skips the step
                finite = total is not None and bool(np.isfinite(total.data))
                if finite:
                    ad.backward(graph, total)
                    finite = all(np.isfinite(p.grad).all() for p in params.values()
                                 if p.grad is not None)
            if finite:
                nonfinite_run = 0
                adam_step(params, optimizer)
                sums["loss"] += float(total.data)
                if loss_r is not None:
                    sums["loss_r"] += float(loss_r.data)
                if loss_t is not None:
                    sums["loss_t"] += float(loss_t.data)
                sums["n"] += 1
            else:
                # the step leaves the whole model as it was, buffers included
                model.spatial.bn_running_mean, model.spatial.bn_running_var = running_stats
            if total is not None and not finite:  # a step with no loss is not counted
                nonfinite_run += 1
                sums["nonfinite"] += 1
                if nonfinite_run >= MAX_NONFINITE_STEPS:
                    raise NonFiniteLossError(
                        f"non-finite training loss or gradient on {nonfinite_run} consecutive "
                        f"steps (iterations {iteration - nonfinite_run + 1}-{iteration})"
                    )

            if iteration % cfg.eval_every != 0:
                continue

            report = evaluate_corpus(
                model, dev_samples, gloss_vocab, text_vocab, cfg.protocol,
                batch_size=cfg.batch_size, beam_width=0,
                max_len_cap=cfg.max_len_cap,
            )
            dev_wer = report.wer.wer if report.wer else None
            dev_bleu = report.bleu
            tracked = dev_wer if cfg.lambda_r > 0 else dev_bleu.bleu4
            decision = scheduler_update(scheduler, optimizer.lr, tracked)

            n = sums["n"]
            entry = {
                "iteration": iteration,
                "loss": sums["loss"] / n if n else None,
                "loss_recognition": sums["loss_r"] / n if n and cfg.lambda_r > 0 else None,
                "loss_translation": sums["loss_t"] / n if n and cfg.lambda_t > 0 else None,
                "nonfinite_steps": sums["nonfinite"],
                "lr": optimizer.lr,
                "dev_wer": dev_wer,
                "dev_bleu1": dev_bleu.bleu1 if dev_bleu else None,
                "dev_bleu2": dev_bleu.bleu2 if dev_bleu else None,
                "dev_bleu3": dev_bleu.bleu3 if dev_bleu else None,
                "dev_bleu4": dev_bleu.bleu4 if dev_bleu else None,
                "action": decision.action,
            }
            history.append(entry)
            log_file.write(json.dumps(entry, sort_keys=True) + "\n")
            log_file.flush()
            sums = {"loss": 0.0, "loss_r": 0.0, "loss_t": 0.0, "n": 0, "nonfinite": 0}

            if decision.improved:
                checkpoint_save(
                    best_path, model, gloss_vocab, text_vocab, cfg.protocol,
                    extra={
                        "iteration": iteration,
                        "lambda_r": cfg.lambda_r,
                        "lambda_t": cfg.lambda_t,
                        "tracked_metric": "wer" if cfg.lambda_r > 0 else "bleu4",
                        "dev_score": tracked,
                    },
                )
                saved_best = best_path
            if decision.action == "reduce_lr":
                optimizer.lr = decision.lr
            elif decision.action == "stop":
                stop_reason = "lr_floor"
                break

    return TrainResult(
        model=model,
        gloss_vocab=gloss_vocab,
        text_vocab=text_vocab,
        log=history,
        best_path=saved_best,
        best_score=scheduler.best,
        iterations=iteration,
        stop_reason=stop_reason,
    )
