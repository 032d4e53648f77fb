"""Command-line surface: data generation, training, evaluation, pipelines.

Exit codes: 0 success, 2 configuration error, 3 artifact-compatibility
error, 1 any other runtime failure. Flags mirror RunConfig keys and override
values from --config. Every command is deterministic given its inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import data, training
from .config import RunConfig, config_from_dict, load_config
from .data import Sample, check_features, read_features
from .decoding import DecodeConfig
from .errors import (
    CheckpointError,
    CompatibilityError,
    ConfigError,
    SignscribeError,
)
from .evaluation import (
    EvalReport,
    check_batch_size,
    corpus_wer,
    decode_glosses,
    decode_sentences,
    encode_split,
    evaluate_corpus,
    sweep_decode_parameters,
)
from .metrics import BleuReport, WerReport, bleu
from .model import GLOSS_INPUT, PROTOCOLS, RECOGNITION, TRANSLATION
from .training import checkpoint_load, restore_model

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_COMPAT = 3


def _add_config_overrides(sub: argparse.ArgumentParser) -> None:
    """Flags mirroring RunConfig fields; unset flags leave the config alone."""
    sub.add_argument("--config", help="JSON config file with RunConfig keys")
    sub.add_argument("--corpus")
    sub.add_argument("--out-dir", dest="out_dir")
    sub.add_argument("--protocol", choices=PROTOCOLS)
    sub.add_argument("--lambda-r", dest="lambda_r", type=float)
    sub.add_argument("--lambda-t", dest="lambda_t", type=float)
    sub.add_argument("--d", type=int)
    sub.add_argument("--n-heads", dest="n_heads", type=int)
    sub.add_argument("--n-enc-layers", dest="n_enc_layers", type=int)
    sub.add_argument("--n-dec-layers", dest="n_dec_layers", type=int)
    sub.add_argument("--d-ff", dest="d_ff", type=int)
    sub.add_argument("--dropout", type=float)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--weight-decay", dest="weight_decay", type=float)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--max-iterations", dest="max_iterations", type=int)
    sub.add_argument("--eval-every", dest="eval_every", type=int)
    sub.add_argument("--patience", type=int)
    sub.add_argument("--lr-factor", dest="lr_factor", type=float)
    sub.add_argument("--lr-floor", dest="lr_floor", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--max-len-cap", dest="max_len_cap", type=int)


def _add_decode_flags(sub: argparse.ArgumentParser) -> None:
    """Sentence decoding settings shared by evaluate, translate and pipeline."""
    sub.add_argument("--beam-width", dest="beam_width", type=int, default=0)
    sub.add_argument("--alpha", type=float, default=0.0)
    sub.add_argument("--max-len-cap", dest="max_len_cap", type=int, default=60)


def _check_decode_flags(args) -> None:
    """Reject unusable decode flags before any checkpoint or corpus is read."""
    DecodeConfig(args.beam_width, args.alpha, args.max_len_cap)
    check_batch_size(getattr(args, "batch_size", 1))  # translate has no --batch-size


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {
        name: getattr(args, name)
        for name in RunConfig().to_dict()
        if getattr(args, name, None) is not None
    }
    if overrides:
        cfg = config_from_dict({**cfg.to_dict(), **overrides})
    return cfg


def _require_corpus(path: str) -> Path:
    if not path:
        raise ConfigError("corpus: no corpus path given")
    root = Path(path)
    if not (root / "train.jsonl").is_file():
        raise ConfigError(f"corpus: {root} does not contain train.jsonl")
    return root


def _load_checkpoint(path: str, what: str):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what}: no checkpoint at {p}")
    ckpt = checkpoint_load(p)
    model, gloss_vocab, text_vocab = restore_model(ckpt)
    return ckpt.footer["protocol"], model, gloss_vocab, text_vocab


def _check_vocab_match(stored, built, kind: str) -> None:
    if stored != built:
        raise CompatibilityError(
            f"checkpoint {kind} vocabulary does not match the corpus "
            f"({len(stored.tokens)} vs {len(built.tokens)} tokens or different order)"
        )


def _wer_line(label: str, w: WerReport) -> str:
    return (f"[{label}] WER {w.wer:.2f}  "
            f"(sub {w.sub_rate:.2f}, del {w.del_rate:.2f}, ins {w.ins_rate:.2f})")


def _bleu_line(label: str, b: BleuReport) -> str:
    return (f"[{label}] BLEU-1 {b.bleu1:.2f}  BLEU-2 {b.bleu2:.2f}  "
            f"BLEU-3 {b.bleu3:.2f}  BLEU-4 {b.bleu4:.2f}  (BP {b.brevity_penalty:.3f})")


def _print_report(report: EvalReport, label: str) -> None:
    print(f"[{label}] samples {report.n_samples} "
          f"beam_width {report.beam_width} alpha {report.alpha:.1f}")
    if report.wer is not None:
        print(_wer_line(label, report.wer))
    if report.bleu is not None:
        print(_bleu_line(label, report.bleu))


def cmd_gen_synthetic(args) -> int:
    root = data.generate_synthetic(
        args.out, seed=args.seed, n_train=args.train, n_dev=args.dev,
        n_test=args.test, n_glosses=args.glosses, d_in=args.d_in,
        max_glosses=args.max_glosses, frame_noise=args.frame_noise,
        sub_units=args.sub_units,
    )
    print(f"wrote synthetic corpus to {root} "
          f"(train {args.train}, dev {args.dev}, test {args.test})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    _require_corpus(cfg.corpus)
    result = training.train(cfg)
    print(f"stopped after {result.iterations} iterations ({result.stop_reason})")
    if result.best_path is not None:
        print(f"best checkpoint: {result.best_path}")
        metric = "BLEU-4" if cfg.protocol in TRANSLATION else "WER"
        print(f"best dev {metric}: {result.best_score:.4f}")
    print(f"training log: {Path(cfg.out_dir) / 'train_log.jsonl'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_decode_flags(args)
    protocol, model, gloss_vocab, text_vocab = _load_checkpoint(args.checkpoint,
                                                                "checkpoint")
    corpus = _require_corpus(args.corpus)
    built_gloss, built_text = data.build_vocabularies(corpus)
    _check_vocab_match(gloss_vocab, built_gloss, "gloss")
    _check_vocab_match(text_vocab, built_text, "text")

    if args.sweep:
        dev, _, _ = data.load_corpus(corpus, "dev")
        sweep = sweep_decode_parameters(
            model, dev, gloss_vocab, text_vocab, protocol,
            batch_size=args.batch_size, max_len_cap=args.max_len_cap,
        )
        for entry in sweep.entries:
            print(f"[sweep] width {entry.beam_width:2d} alpha {entry.alpha:.1f} "
                  f"BLEU-4 {entry.bleu4:.2f}")
        print(f"[sweep] chosen: width {sweep.best_width} alpha {sweep.best_alpha:.1f}")
        test, _, _ = data.load_corpus(corpus, "test")
        report = evaluate_corpus(
            model, test, gloss_vocab, text_vocab, protocol,
            batch_size=args.batch_size, beam_width=sweep.best_width,
            alpha=sweep.best_alpha, max_len_cap=args.max_len_cap,
        )
        _print_report(report, "test")
        return EXIT_OK

    samples, _, _ = data.load_corpus(corpus, args.split)
    report = evaluate_corpus(
        model, samples, gloss_vocab, text_vocab, protocol,
        batch_size=args.batch_size, beam_width=args.beam_width,
        alpha=args.alpha, max_len_cap=args.max_len_cap,
    )
    _print_report(report, args.split)
    return EXIT_OK


def cmd_translate(args) -> int:
    _check_decode_flags(args)
    protocol, model, gloss_vocab, text_vocab = _load_checkpoint(args.checkpoint,
                                                                "checkpoint")
    if protocol not in TRANSLATION:
        raise ConfigError(f"translate: protocol {protocol!r} trains no sentence decoder, "
                          f"so there is no sentence to decode")
    if protocol in GLOSS_INPUT:
        if not (args.glosses or "").split():
            raise ConfigError("glosses: a gloss2text checkpoint needs --glosses")
        sample = Sample(id="glosses", features=np.zeros((0, model.d_in), dtype=np.float32),
                        glosses=tuple(args.glosses.split()), sentence=())
    else:
        if not args.features:
            raise ConfigError("features: this checkpoint translates feature files, "
                              "pass --features")
        features = read_features(args.features)
        check_features(features, str(args.features))
        sample = Sample(id=str(args.features), features=features, glosses=(),
                        sentence=())
    encoded = encode_split(model, [sample], gloss_vocab, text_vocab, protocol)
    (sentence,) = decode_sentences(model, encoded, text_vocab, args.beam_width,
                                   args.alpha, args.max_len_cap)
    print(" ".join(sentence))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    _check_decode_flags(args)
    rec_protocol, recognizer, rec_gloss, rec_text = _load_checkpoint(
        args.recognizer, "recognizer"
    )
    tr_protocol, translator, tr_gloss, tr_text = _load_checkpoint(args.translator,
                                                                  "translator")
    if rec_protocol not in RECOGNITION:
        raise CompatibilityError(
            f"recognizer protocol {rec_protocol} has no recognition head"
        )
    if tr_protocol not in GLOSS_INPUT:
        raise CompatibilityError(f"translator protocol {tr_protocol} is not gloss2text")
    corpus = _require_corpus(args.corpus)
    samples, built_gloss, _ = data.load_corpus(corpus, args.split)
    _check_vocab_match(rec_gloss, built_gloss, "recognizer gloss")
    _check_vocab_match(tr_gloss, built_gloss, "translator gloss")

    gloss_refs = [list(s.glosses) for s in samples]
    if args.oracle_glosses:
        gloss_hyps = gloss_refs
        print("[stage1] oracle glosses injected, WER 0.00")
    else:
        encoded = encode_split(recognizer, samples, rec_gloss, rec_text, rec_protocol,
                               args.batch_size)
        gloss_hyps = decode_glosses(recognizer, encoded, rec_gloss, args.beam_width)
        print(_wer_line("stage1", corpus_wer(gloss_refs, gloss_hyps)))

    recognized = [dataclasses.replace(s, glosses=tuple(hyp))
                  for s, hyp in zip(samples, gloss_hyps)]
    encoded = encode_split(translator, recognized, tr_gloss, tr_text, tr_protocol,
                           args.batch_size)
    text_hyps = decode_sentences(translator, encoded, tr_text, args.beam_width,
                                 args.alpha, args.max_len_cap)
    text_refs = [list(s.sentence) for s in samples]
    print(_bleu_line("stage2", bleu(text_refs, text_hyps)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signscribe",
        description="Joint sign recognition and translation at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--train", type=int, default=2000)
    gen.add_argument("--dev", type=int, default=200)
    gen.add_argument("--test", type=int, default=200)
    gen.add_argument("--glosses", type=int, default=20)
    gen.add_argument("--d-in", dest="d_in", type=int, default=16)
    gen.add_argument("--max-glosses", dest="max_glosses", type=int, default=8)
    gen.add_argument("--frame-noise", dest="frame_noise", type=float, default=0.1)
    gen.add_argument("--sub-units", dest="sub_units", type=int, default=0,
                     help="share this many sub-unit vectors across glosses "
                          "(0 keeps one vector per gloss)")
    gen.set_defaults(func=cmd_gen_synthetic)

    tr = sub.add_parser("train", help="train a model from a config")
    _add_config_overrides(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score a checkpoint on a corpus split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--split", default="dev", choices=data.SPLITS)
    ev.add_argument("--sweep", action="store_true",
                    help="grid-search width x alpha on dev, then score test")
    ev.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    _add_decode_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    tl = sub.add_parser("translate", help="translate one input to a sentence")
    tl.add_argument("--checkpoint", required=True)
    tl.add_argument("--features", help="SLTF feature file (frame-input models)")
    tl.add_argument("--glosses", help="space-separated glosses (gloss2text models)")
    _add_decode_flags(tl)
    tl.set_defaults(func=cmd_translate)

    pl = sub.add_parser("pipeline", help="recognize then translate, two checkpoints")
    pl.add_argument("--recognizer", required=True)
    pl.add_argument("--translator", required=True)
    pl.add_argument("--corpus", required=True)
    pl.add_argument("--split", default="test", choices=data.SPLITS)
    pl.add_argument("--oracle-glosses", dest="oracle_glosses",
                    action="store_true",
                    help="bypass stage 1 with ground-truth glosses")
    pl.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    _add_decode_flags(pl)
    pl.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CompatibilityError, CheckpointError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except SignscribeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
