"""The three workloads of the signscribe benchmark.

Each workload builds a synthetic corpus from the seed (the criterion-6
settings: 12 glosses, up to 6 per sample), then repeats one kind of
operation until the time budget is spent:

    train               a fixed-iteration `training.train` call, one dev
                        evaluation at its end
    corpus_decode       one round of four dev jobs on a trained model:
                        greedy evaluation, width-4 evaluation, width-4 CTC
                        recognition (pipeline stage 1) and a reduced sweep
    translate_requests  one `signscribe translate` request through
                        `cli.main`, closed loop, one client, no think time

Every workload trains once during set-up. The train workload reads its
quality figures off that longer run, since a short call's BLEU varies too
much from seed to seed to bound. The decode workloads save the final
weights and decode from that file, as a user would. Only public entry
points of the package are called.

With a tracer, every operation runs twice, untraced and traced in
alternating order; both outputs must match bit for bit, and the time
difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from signscribe import cli, data, evaluation, metrics, training
from signscribe.config import RunConfig

import spans

PROTOCOL = "sign2gloss+text"
BEAM_WIDTH = 4
ALPHA = 1.0

# Units of the metrics every untraced run reports, as in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_scaled_ms": "ms",
    "bleu1": "BLEU",
    "ce_loss": "nats",
}


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".s"):
        return "s"
    if name.endswith(("share", "per_token", "per_step")):
        return "ratio"
    return "count"


@dataclass(frozen=True)
class Scale:
    """Corpus, model and operation sizes; FULL is what the benchmark runs."""

    n_train: int = 2000
    n_dev: int = 200
    n_test: int = 200
    n_glosses: int = 12
    max_glosses: int = 6
    d: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    batch_size: int = 32
    train_iterations: int = 30
    quality_iterations: int = 150
    model_iterations: int = 200
    beam_subset: int = 32
    sweep_subset: int = 4
    sweep_widths: tuple[int, ...] = (1, 2)
    min_requests: int = 200
    setup_repeats: int = 3


FULL = Scale()


@dataclass
class OpOut:
    """One operation's outcome: output digest, items done, items failed."""

    digest: str
    items: int
    failed: int = 0
    detail: dict = field(default_factory=dict)


@dataclass
class Ops:
    """What `run_ops` measured: per-operation wall times, the same times
    scaled to reference machine speed, the traced twins' times, the
    untraced outputs and the first digest seen per repeat key."""

    durations: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    outs: list[OpOut] = field(default_factory=list)
    first: dict = field(default_factory=dict)


# The gauge kernel's median time on the 2-core machine the bounds were set on.
REFERENCE_KERNEL_S = 0.04
GAUGE_INTERVAL_S = 1.0


class SpeedGauge:
    """Times a fixed NumPy kernel that shares no code with signscribe.

    The shared machine's speed drifts by tens of percent over tens of
    seconds, and the drift stretches CPU time as much as wall time. An
    operation's scaled time is its wall time times REFERENCE_KERNEL_S over
    the kernel's time measured just before it, so drift that slows both
    cancels while a change to the package moves only the operation.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 20, 64))
        self._w = rng.standard_normal((64, 64)) * 0.1
        self._at = -math.inf
        self._factor = 1.0
        self.kernel_s: list[float] = []
        self._kernel()  # first call pays one-off allocation

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            h = np.maximum(self._x @ self._w, 0.0)
            a = h @ h.transpose(0, 2, 1)
            a = np.exp(a - a.max(axis=-1, keepdims=True))
            a /= a.sum(axis=-1, keepdims=True)
            a @ h
        return time.perf_counter() - t0

    def factor(self) -> float:
        """REFERENCE_KERNEL_S over a kernel time at most GAUGE_INTERVAL_S old."""
        if time.perf_counter() - self._at >= GAUGE_INTERVAL_S:
            kernel_s = self._kernel()
            self.kernel_s.append(kernel_s)
            self._factor = REFERENCE_KERNEL_S / kernel_s
            self._at = time.perf_counter()
        return self._factor


@dataclass
class Context:
    scale: Scale
    seed: int
    seconds: float
    work: Path
    tracer: spans.Tracer | None
    gauge: SpeedGauge
    problems: list[str] = field(default_factory=list)

    def job(self, label: str) -> None:
        """Name the job that following spans belong to (traced runs only)."""
        if self.tracer is not None:
            self.tracer.job(label)


class LogCounter(logging.Handler):
    """Counts package log records instead of printing them."""

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.msg] += 1

    def matching(self, text: str) -> int:
        return sum(n for msg, n in self.counts.items() if text in str(msg))


@contextlib.contextmanager
def quiet_package_logs():
    """Route every `signscribe` log record to a counter for the whole run."""
    logger = logging.getLogger("signscribe")
    counter = LogCounter()
    saved = (logger.propagate, logger.level)
    logger.addHandler(counter)
    logger.propagate = False
    logger.setLevel(logging.WARNING)
    try:
        yield counter
    finally:
        logger.removeHandler(counter)
        logger.propagate = saved[0]
        logger.setLevel(saved[1])


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _latencies(times, ops: Ops) -> list[float]:
    """Sorted operation times; a failed operation counts as missing every target."""
    return sorted(t if out.failed == 0 else math.inf for t, out in zip(times, ops.outs))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def build_corpus(ctx: Context, root: Path) -> dict:
    """Generate the seed's corpus and load every split."""
    if root.exists():
        shutil.rmtree(root)
    s = ctx.scale
    data.generate_synthetic(root, seed=ctx.seed, n_train=s.n_train, n_dev=s.n_dev,
                            n_test=s.n_test, n_glosses=s.n_glosses,
                            max_glosses=s.max_glosses)
    return {split: data.load_corpus(root, split) for split in data.SPLITS}


def length_balanced(samples, k: int) -> list:
    """The first samples of each gloss count, an equal number per count.

    A subset with the same mix of lengths for every seed asks the same
    decoding work of every seed.
    """
    counts = {len(x.glosses) for x in samples}
    per_count = -(-k // len(counts))
    taken: Counter = Counter()
    out = []
    for x in samples:
        n = len(x.glosses)
        if taken[n] < per_count and len(out) < k:
            taken[n] += 1
            out.append(x)
    return out


def _feature_paths(corpus_root: Path, split: str) -> list[Path]:
    manifest = (corpus_root / f"{split}.jsonl").read_text(encoding="utf-8")
    return [corpus_root / json.loads(line)["features"] for line in manifest.splitlines()]


def run_config(ctx: Context, corpus_root: Path, out_dir: Path, iterations: int) -> RunConfig:
    """The criterion-6 joint configuration, with one dev evaluation at the end."""
    s = ctx.scale
    return RunConfig(
        corpus=str(corpus_root), out_dir=str(out_dir), protocol=PROTOCOL,
        lambda_r=5.0, lambda_t=1.0, d=s.d, n_heads=s.n_heads,
        n_enc_layers=s.n_layers, n_dec_layers=s.n_layers, d_ff=s.d_ff,
        dropout=0.0, batch_size=s.batch_size, max_iterations=iterations,
        eval_every=iterations, seed=ctx.seed,
    )


def _model_bytes(model) -> bytes:
    arrays = {**{k: p.data for k, p in model.named_parameters().items()},
              **model.named_buffers()}
    return b"".join(k.encode() + np.ascontiguousarray(arrays[k]).tobytes()
                    for k in sorted(arrays))


def train_call(ctx: Context, cfg: RunConfig, corpus: dict) -> OpOut:
    """One `training.train` call on loaded splits; checks its log."""
    train_samples, gloss_vocab, text_vocab = corpus["train"]
    result = training.train(cfg, train_samples=train_samples,
                            dev_samples=corpus["dev"][0],
                            gloss_vocab=gloss_vocab, text_vocab=text_vocab)
    log_bytes = (Path(cfg.out_dir) / "train_log.jsonl").read_bytes()
    log = [json.loads(line) for line in log_bytes.decode().splitlines()]
    losses = [e[k] for e in log for k in ("loss", "loss_recognition", "loss_translation")]
    failed = 0
    if result.iterations != cfg.max_iterations or len(log) != 1:
        ctx.problems.append(f"train stopped at {result.iterations} iterations "
                            f"with {len(log)} log entries")
        failed = cfg.max_iterations
    if not all(math.isfinite(v) for v in losses):
        ctx.problems.append(f"non-finite logged loss: {losses}")
        failed = cfg.max_iterations
    return OpOut(
        digest=_sha(log_bytes, _model_bytes(result.model)),
        items=cfg.max_iterations,
        failed=failed,
        detail={"entry": log[-1], "result": result},
    )


def save_and_restore(ctx: Context, cfg: RunConfig, result):
    """Save the final weights, then load them back as `translate` would.

    `train` keeps the best dev-WER checkpoint, which stops moving once WER
    reaches 0 early in training, so the final weights are saved here. The
    file holds Adam moments and scheduler state as a user's checkpoint does;
    `train` does not return the moments, so they are saved at their true
    shapes with zero values (load cost depends on their size only).
    """
    optimizer = training.init_optimizer(
        result.model.trainable_parameters(PROTOCOL), cfg.lr, beta1=cfg.beta1,
        beta2=cfg.beta2, eps=cfg.eps, weight_decay=cfg.weight_decay,
    )
    optimizer.step = result.iterations
    scheduler = training.SchedulerState(
        patience=cfg.patience, factor=cfg.lr_factor, floor=cfg.lr_floor,
        minimize=True, best=result.best_score,
    )
    path = training.checkpoint_save(
        ctx.work / "final.sltc", result.model, result.gloss_vocab,
        result.text_vocab, PROTOCOL, optimizer, scheduler,
        extra={"iteration": result.iterations},
    )
    model, gloss_vocab, text_vocab = training.restore_model(training.checkpoint_load(path))
    if _model_bytes(model) != _model_bytes(result.model):
        ctx.problems.append("restored decode model differs from the trained one")
    if gloss_vocab != result.gloss_vocab or text_vocab != result.text_vocab:
        ctx.problems.append("restored vocabularies differ from the corpus")
    return path, model


def set_up(ctx: Context, iterations: int, save: bool):
    """Build the corpus `setup_repeats` times, then train once.

    The train workload reads its quality figures off this training; the
    decode workloads also save the final weights and decode from that file.
    Returns the per-repeat set-up times and the state the operations use.
    """
    corpus_root = ctx.work / "corpus"
    times = []
    recording = (ctx.tracer.recording("setup", "setup") if ctx.tracer is not None
                 else contextlib.nullcontext())
    with recording:
        for _ in range(ctx.scale.setup_repeats):
            t0 = time.perf_counter()
            corpus = build_corpus(ctx, corpus_root)
            times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        cfg = run_config(ctx, corpus_root, ctx.work / "model", iterations)
        trained = train_call(ctx, cfg, corpus)
        state = {"corpus": corpus, "corpus_root": corpus_root,
                 "setup_entry": trained.detail["entry"]}
        if save:
            state["ckpt"], state["model"] = save_and_restore(
                ctx, cfg, trained.detail["result"])
        model_s = time.perf_counter() - t0
    return [t + model_s for t in times], state


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def run_ops(ctx: Context, op, min_ops: int, repeat_key) -> Ops:
    """Repeat `op(k)` until `ctx.seconds` have passed; check repeats agree.

    Operations with equal `repeat_key(k)` must produce equal digests.
    """
    ops = Ops()

    def traced_twin(k):
        with ctx.tracer.recording("op", f"op{k}"):
            t0 = time.perf_counter()
            twin = op(k)
            ops.traced.append(time.perf_counter() - t0)
        return twin

    start = time.perf_counter()
    k = 0
    while True:
        # the twins alternate which runs first, so warm-up favours neither
        twin = traced_twin(k) if ctx.tracer is not None and k % 2 else None
        factor = ctx.gauge.factor()
        t0 = time.perf_counter()
        out = op(k)
        ops.durations.append(time.perf_counter() - t0)
        ops.scaled.append(ops.durations[-1] * factor)
        if ctx.tracer is not None:
            twin = twin or traced_twin(k)
            if twin.digest != out.digest:
                ctx.problems.append(f"op {k}: traced output differs from untraced")
                out.failed = out.items
        expected = ops.first.setdefault(repeat_key(k), out.digest)
        if out.digest != expected:
            ctx.problems.append(f"op {k}: output differs from an earlier repeat")
            out.failed = out.items
        ops.outs.append(out)
        k += 1
        if k >= min_ops and time.perf_counter() - start >= ctx.seconds:
            return ops


def workload_train(ctx: Context) -> dict:
    s = ctx.scale
    setup_times, state = set_up(ctx, s.quality_iterations, save=False)
    corpus, quality = state["corpus"], state["setup_entry"]
    gloss_vocab, text_vocab = corpus["train"][1:]
    cfg = run_config(ctx, state["corpus_root"], ctx.work / "train", s.train_iterations)

    def op(_k):
        return train_call(ctx, cfg, corpus)

    ops = run_ops(ctx, op, 2, lambda _k: 0)
    entry = ops.outs[0].detail["entry"]
    # The logged dev scores must come back from a second decode of the model.
    again = evaluation.evaluate_corpus(
        ops.outs[0].detail["result"].model, corpus["dev"][0], gloss_vocab, text_vocab,
        PROTOCOL, batch_size=s.batch_size)
    if (again.bleu.bleu4, again.wer.wer) != (entry["dev_bleu4"], entry["dev_wer"]):
        ctx.problems.append("re-decoding the trained model changed its dev scores")
    samples_per_s = [s.train_iterations * s.batch_size / d for d in ops.durations]
    return {
        "setup_times": setup_times, "ops": ops,
        "quality": {
            "bleu1": quality["dev_bleu1"],
            "ce_loss": quality["loss_translation"],
        },
        "named": {
            "train_samples_per_s": (_median(samples_per_s), "samples/s"),
            "train_loss": (quality["loss"], "nats"),
            "train_dev_bleu4": (quality["dev_bleu4"], "BLEU"),
        },
    }


def workload_corpus_decode(ctx: Context) -> dict:
    s = ctx.scale
    setup_times, state = set_up(ctx, s.model_iterations, save=True)
    model = state["model"]
    dev, gloss_vocab, text_vocab = state["corpus"]["dev"]
    beam_dev = length_balanced(dev, s.beam_subset)
    sweep_dev = length_balanced(dev, s.sweep_subset)
    gloss_refs = [list(x.glosses) for x in dev]
    n_sentences = (2 * len(dev) + len(beam_dev)
                   + len(sweep_dev) * len(s.sweep_widths) * len(evaluation.SWEEP_ALPHAS))
    def op(_k):
        job_s = {}
        ctx.job("eval_greedy")
        t0 = time.perf_counter()
        greedy = evaluation.evaluate_corpus(model, dev, gloss_vocab, text_vocab, PROTOCOL,
                                            batch_size=s.batch_size)
        job_s["eval_greedy_s"] = time.perf_counter() - t0
        ctx.job("eval_beam4")
        t0 = time.perf_counter()
        beam = evaluation.evaluate_corpus(model, beam_dev, gloss_vocab, text_vocab,
                                          PROTOCOL, batch_size=s.batch_size,
                                          beam_width=BEAM_WIDTH, alpha=ALPHA)
        job_s["eval_beam4_s"] = time.perf_counter() - t0
        ctx.job("recognize_beam4")
        t0 = time.perf_counter()
        encoded = evaluation.encode_split(model, dev, gloss_vocab, text_vocab, PROTOCOL,
                                          s.batch_size)
        glosses = evaluation.decode_glosses(model, encoded, gloss_vocab, BEAM_WIDTH)
        stage1 = evaluation.corpus_wer(gloss_refs, glosses)
        job_s["recognize_beam4_s"] = time.perf_counter() - t0
        ctx.job("sweep")
        t0 = time.perf_counter()
        sweep = evaluation.sweep_decode_parameters(
            model, sweep_dev, gloss_vocab, text_vocab, PROTOCOL,
            batch_size=s.batch_size, widths=s.sweep_widths)
        job_s["sweep_s"] = time.perf_counter() - t0
        digest = _sha(repr((greedy, beam, glosses, stage1, sweep)).encode())
        return OpOut(digest=digest, items=n_sentences, detail={"beam": beam, "jobs": job_s})

    ops = run_ops(ctx, op, 2, lambda _k: 0)
    beam = ops.outs[0].detail["beam"]
    named = {name: (_median([o.detail["jobs"][name] for o in ops.outs]), "s")
             for name in ("eval_greedy_s", "eval_beam4_s", "recognize_beam4_s", "sweep_s")}
    named["dev_bleu4_beam4"] = (beam.bleu.bleu4, "BLEU")
    named["dev_wer_beam4"] = (beam.wer.wer, "%")
    return {
        "setup_times": setup_times, "ops": ops,
        "quality": {
            "bleu1": beam.bleu.bleu1,
            "ce_loss": state["setup_entry"]["loss_translation"],
        },
        "named": named,
    }


def workload_translate_requests(ctx: Context) -> dict:
    setup_times, state = set_up(ctx, ctx.scale.model_iterations, save=True)
    test = state["corpus"]["test"][0]
    features = _feature_paths(state["corpus_root"], "test")
    n = len(features)
    sentences: dict[int, list[str]] = {}

    def op(k):
        argv = ["translate", "--checkpoint", str(state["ckpt"]), "--features",
                str(features[k % n]), "--beam-width", str(BEAM_WIDTH),
                "--alpha", str(ALPHA)]
        ctx.job(f"request{k}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        sentence = out.getvalue().strip()
        failed = 0
        if code != 0 or not sentence:
            ctx.problems.append(f"request {k}: exit {code}, output {sentence!r}, "
                                f"error {err.getvalue().strip()!r}")
            failed = 1
        sentences.setdefault(k % n, sentence.split())
        return OpOut(digest=_sha(sentence.encode()), items=1, failed=failed)

    ops = run_ops(ctx, op, ctx.scale.min_requests, lambda k: k % n)
    latencies = _latencies(ops.durations, ops)
    p50 = _median(latencies) * 1e3
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18] * 1e3
    covered = sorted(sentences)
    quality = metrics.bleu([list(test[i].sentence) for i in covered],
                           [sentences[i] for i in covered])
    return {
        "setup_times": setup_times, "ops": ops,
        "quality": {
            "bleu1": quality.bleu1,
            "ce_loss": state["setup_entry"]["loss_translation"],
        },
        "named": {
            "translate_p50_ms": (p50, "ms"),
            "translate_p95_ms": (p95, "ms"),
            "translate_bleu4": (quality.bleu4, "BLEU"),
        },
    }


WORKLOAD_FNS = {
    "train": workload_train,
    "corpus_decode": workload_corpus_decode,
    "translate_requests": workload_translate_requests,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 scale: Scale = FULL) -> dict:
    """Run one workload; returns the result record (see run.py for its use)."""
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    ctx = Context(scale=scale, seed=seed, seconds=seconds, work=work, tracer=tracer,
                  gauge=SpeedGauge())
    with quiet_package_logs() as logs:
        got = WORKLOAD_FNS[name](ctx)
    ops = got["ops"]
    outs = ops.outs
    attempted = sum(o.items for o in outs)
    failed = sum(o.failed for o in outs)
    setup_s = _median(got["setup_times"])
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB"), **got["named"]}
    record = {
        "workload": name,
        "correct": not ctx.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": ctx.problems,
        "ops": len(outs),
        "op_durations_s": ops.durations,
        "op_scaled_s": ops.scaled,
        "gauge_kernel_s": ctx.gauge.kernel_s,
        "setup_times_s": got["setup_times"],
        "digest": _sha(*(ops.first[k].encode() for k in sorted(ops.first))),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "log_records": {
            "short_sequence_warnings": logs.matching("blank-interleaved length"),
            "skipped_targets": logs.matching("CTC target cannot fit"),
        },
    }
    if tracer is None:
        values = {"setup_s": setup_s, "peak_rss_mb": named["peak_rss_mb"][0],
                  "op_p50_scaled_ms": _median(_latencies(ops.scaled, ops)) * 1e3,
                  **got["quality"]}
        record["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in END_TO_END_UNITS.items()}
    else:
        untraced, traced = sum(ops.durations), sum(ops.traced)
        layers = spans.layer_metrics(tracer, len(outs), (traced - untraced) / untraced)
        record["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        record["tracer"] = tracer
    return record
