"""Corpus-level decoding and scoring.

Everything here runs the model in eval mode and aggregates over a split:
recognition via CTC decoding scored with corpus WER, translation via
autoregressive decoding scored with corpus BLEU. A sweep evaluates the
beam-width x length-penalty grid on one split so the chosen pair can be
applied to another, and caches encoder outputs since they do not depend on
the decode parameters.

evaluate, translate (a one-sample split) and the two-stage pipeline (whose
second stage encodes the recognized glosses) all go through encode_split,
which calls JointModel.encode, and through the one decoder decode_sentences.
encode_split alone decides which samples share a chunk: it chunks the split
in order of input length. Every decoder returns its results in split order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decoding
from .autodiff import Tensor
from .data import (GLOSS_BLANK, GLOSS_PAD, TEXT_BOS, TEXT_PAD, Vocabulary, check_glosses,
                   make_batch)
from .decoding import DecodeConfig
from .errors import CompatibilityError, ConfigError, ContractError, CorpusError
from .metrics import BleuReport, WerReport, bleu, split_tokens, wer
from .model import GLOSS_INPUT, RECOGNITION, TRANSLATION, JointModel

SWEEP_WIDTHS = tuple(range(11))
SWEEP_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)

# Sentences never legitimately contain the padding or start-of-sequence
# token, so decoding excludes them from selection (scores stay full-softmax).
FORBIDDEN_WORDS = (TEXT_PAD, TEXT_BOS)


@dataclass(frozen=True)
class EvalReport:
    """Scores for one split under one decode setting."""

    n_samples: int
    wer: WerReport | None
    bleu: BleuReport | None
    beam_width: int
    alpha: float


@dataclass(frozen=True)
class SweepEntry:
    beam_width: int
    alpha: float
    bleu4: float


@dataclass(frozen=True)
class SweepResult:
    """Grid outcomes plus the winning pair (ties keep the earliest entry)."""

    best_width: int
    best_alpha: float
    entries: tuple[SweepEntry, ...]


def corpus_wer(references, hypotheses) -> WerReport:
    """Pool edit counts over all pairs, then normalize once.

    Every token hypothesized for an empty reference is an insertion; only a
    corpus whose references are all empty has no WER. One hypothesis per
    reference, or a ContractError.
    """
    if len(references) != len(hypotheses):
        raise ContractError(
            f"got {len(hypotheses)} hypotheses for {len(references)} references"
        )
    subs = dels = ins = ref_len = 0
    for ref, hyp in zip(references, hypotheses):
        if not split_tokens(ref):
            ins += len(split_tokens(hyp))
            continue
        r = wer(ref, hyp)
        subs += r.substitutions
        dels += r.deletions
        ins += r.insertions
        ref_len += r.ref_len
    if not ref_len:
        raise CorpusError("corpus WER needs at least one non-empty reference")
    return WerReport(
        wer=100.0 * (subs + dels + ins) / ref_len,
        sub_rate=100.0 * subs / ref_len,
        del_rate=100.0 * dels / ref_len,
        ins_rate=100.0 * ins / ref_len,
        substitutions=subs,
        deletions=dels,
        insertions=ins,
        ref_len=ref_len,
    )


def _require_samples(samples) -> None:
    if not samples:
        raise CorpusError("cannot score an empty split")


def check_batch_size(batch_size: int) -> None:
    """Refuse a chunk size below 1, a ConfigError."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")


def encode_split(model: JointModel, samples, gloss_vocab, text_vocab, protocol,
                 batch_size: int = 32):
    """Encode a split once; returns (batch, z ndarray, key mask, estimates,
    positions) per chunk.

    The split is chunked in order of input length (frames, or glosses for
    gloss input), ties in split order, so each chunk holds samples of
    similar length: less padding to encode and to search, and caps that
    end together. positions holds the split position of each chunk row;
    decode_glosses and decode_sentences put every result back at it, so
    their output follows the split's order.

    estimates holds each sample's expected gloss count, from which
    decode_sentences sets its generation cap: the true count (at least 1,
    as an empty row encodes one <pad>) for gloss input, frames / 3 for
    frame input.

    Frame input is checked against the model's input width first: a sample
    of another width is a CompatibilityError naming it. Its glosses are
    only scoring references, so they are not encoded. Gloss input is
    checked against the gloss vocabulary first: a gloss the train split
    lacks is a CorpusError naming the sample.
    """
    check_batch_size(batch_size)
    gloss_input = protocol in GLOSS_INPUT
    if gloss_input:
        check_glosses(samples, gloss_vocab)
    for s in () if gloss_input else samples:
        if s.features.shape[1] != model.d_in:
            raise CompatibilityError(f"{s.id}: feature width {s.features.shape[1]} does not "
                                     f"match the checkpoint's input width {model.d_in}")
    lengths = [len(s.glosses) if gloss_input else s.n_frames for s in samples]
    # frames per gloss average 3 on the synthetic task; the estimate only
    # sets a generation cap, exactness does not matter
    estimates = [max(1, n if gloss_input else round(n / 3)) for n in lengths]
    order = sorted(range(len(samples)), key=lambda i: (lengths[i], i))
    out = []
    for start in range(0, len(order), batch_size):
        positions = order[start:start + batch_size]
        batch = make_batch([samples[i] for i in positions],
                           gloss_vocab if gloss_input else None, text_vocab)
        z, mask = model.encode(batch, protocol)
        out.append((batch, z.data, mask, [estimates[i] for i in positions], positions))
    return out


def _in_split_order(encoded, chunk_results) -> list:
    """Each chunk's per-row results, put back at the rows' split positions."""
    out = [None] * sum(len(entry[-1]) for entry in encoded)
    for entry, results in zip(encoded, chunk_results):
        for position, result in zip(entry[-1], results):
            out[position] = result
    return out


def decode_glosses(model: JointModel, encoded, gloss_vocab: Vocabulary,
                   beam_width: int = 0) -> list[list[str]]:
    """CTC-decode every sample; returns gloss token sequences.

    Width 0 collapses each sample's best path. A wider beam searches the
    whole split with one prefix beam: the chunks' frame log-probabilities
    are stacked, padded to the split's longest input, and a sample decodes
    to the same glosses as in a search of its chunk alone.
    """
    log_ps = [model.frame_gloss_log_probs(Tensor(z)).data for _, z, *_ in encoded]
    counts = [t for batch, *_ in encoded for t in batch.frame_counts]
    if beam_width == 0 or not log_ps:  # an empty split decodes to nothing either way
        found = [decoding.ctc_greedy(row[:t])
                 for row, t in zip((row for log_p in log_ps for row in log_p), counts)]
    else:
        n_frames = max(log_p.shape[1] for log_p in log_ps)
        found = decoding.ctc_beam_search_batch(
            np.concatenate([np.pad(log_p, ((0, 0), (0, n_frames - log_p.shape[1]), (0, 0)))
                            for log_p in log_ps]), counts, beam_width)
    out = [None] * len(found)
    for position, ids in zip((p for *_, positions in encoded for p in positions), found):
        out[position] = [gloss_vocab.token(g) for g in ids if g not in (GLOSS_BLANK, GLOSS_PAD)]
    return out


def _sentence_pools(model: JointModel, encoded, beam_width: int, max_len_cap: int,
                    greedy=None) -> list[list[decoding.Hypothesis]]:
    """Every sample's candidate pool, searched one encoded chunk at a time.

    A sample generates at most min(max_len_cap, 3 x its estimated gloss
    count) tokens. greedy, one Hypothesis per sample in split order,
    replaces the greedy pass. Only the z, mask, estimates and positions of
    each encoded entry are read; the pools come back in split order.
    """
    chunks = []
    for _batch, z, mask, estimates, positions in encoded:
        caps = [min(max_len_cap, 3 * e) for e in estimates]
        chunk_greedy = None if greedy is None else [greedy[p] for p in positions]
        chunks.append(decoding.ar_beam_pools(z, mask, model, beam_width, caps,
                                             greedy=chunk_greedy, forbid=FORBIDDEN_WORDS))
    return _in_split_order(encoded, chunks)


def _ranked_words(pools, alpha: float, text_vocab: Vocabulary) -> list[list[str]]:
    DecodeConfig(alpha=alpha)  # rejects an alpha outside [0, 2]
    return [[text_vocab.token(w) for w in decoding.best_hypothesis(pool, alpha).words()]
            for pool in pools]


def decode_sentences(model: JointModel, encoded, text_vocab: Vocabulary,
                     beam_width: int = 0, alpha: float = 0.0,
                     max_len_cap: int = 60) -> list[list[str]]:
    """Autoregressively decode every sample; returns word token sequences.

    This is the one greedy/beam dispatcher: width 0 is greedy, a wider beam
    searches each encoded chunk as one batch and ranks every pool at alpha.
    """
    pools = _sentence_pools(model, encoded, beam_width, max_len_cap)
    return _ranked_words(pools, alpha, text_vocab)


def evaluate_corpus(
    model: JointModel,
    samples,
    gloss_vocab: Vocabulary,
    text_vocab: Vocabulary,
    protocol: str,
    *,
    batch_size: int = 32,
    beam_width: int = 0,
    alpha: float = 0.0,
    max_len_cap: int = 60,
) -> EvalReport:
    """Decode one split and score whichever heads the protocol trains."""
    _require_samples(samples)
    encoded = encode_split(model, samples, gloss_vocab, text_vocab, protocol, batch_size)
    wer_report = None
    if protocol in RECOGNITION:
        gloss_hyps = decode_glosses(model, encoded, gloss_vocab, beam_width)
        gloss_refs = [list(s.glosses) for s in samples]
        wer_report = corpus_wer(gloss_refs, gloss_hyps)
    bleu_report = None
    if protocol in TRANSLATION:
        text_hyps = decode_sentences(
            model, encoded, text_vocab, beam_width, alpha, max_len_cap
        )
        text_refs = [list(s.sentence) for s in samples]
        bleu_report = bleu(text_refs, text_hyps)
    return EvalReport(
        n_samples=len(samples),
        wer=wer_report,
        bleu=bleu_report,
        beam_width=beam_width,
        alpha=alpha,
    )


def sweep_decode_parameters(
    model: JointModel,
    samples,
    gloss_vocab: Vocabulary,
    text_vocab: Vocabulary,
    protocol: str,
    *,
    batch_size: int = 32,
    max_len_cap: int = 60,
    widths=SWEEP_WIDTHS,
    alphas=SWEEP_ALPHAS,
) -> SweepResult:
    """Grid-search beam width x length penalty by BLEU-4 on one split.

    Encoder outputs and the greedy pass are computed once for the whole
    grid. Beam search prunes on raw log-probability, so one search per
    width gives the candidate pools that every alpha then ranks. The first
    entry of any BLEU-4 tie wins, so smaller widths are preferred.
    """
    _require_samples(samples)
    if protocol not in TRANSLATION:
        raise ConfigError(f"sweep: protocol {protocol!r} trains no sentence decoder, "
                          f"so there is no width x alpha grid to search")
    encoded = encode_split(model, samples, gloss_vocab, text_vocab, protocol,
                           batch_size)
    refs = [list(s.sentence) for s in samples]
    greedy = [pool[-1] for pool in _sentence_pools(model, encoded, 0, max_len_cap)]
    entries = []
    best = None
    for width in widths:
        pools = _sentence_pools(model, encoded, width, max_len_cap, greedy)
        for alpha in alphas:
            score = bleu(refs, _ranked_words(pools, alpha, text_vocab)).bleu4
            entries.append(SweepEntry(width, alpha, score))
            if best is None or score > best[0]:
                best = (score, width, alpha)
    return SweepResult(best_width=best[1], best_alpha=best[2],
                       entries=tuple(entries))
