"""Evaluation metrics: word error rate and corpus-level BLEU.

Both operate on already-tokenized text; strings are split on whitespace as a
convenience. No normalization happens here; the corpus format owns casing and
punctuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def split_tokens(seq) -> list:
    if isinstance(seq, str):
        return seq.split()
    return list(seq)


@dataclass(frozen=True)
class WerReport:
    """Edit-distance summary; rates are percentages of the reference length.

    WER can exceed 100 when the hypothesis is longer than the reference.
    """

    wer: float
    sub_rate: float
    del_rate: float
    ins_rate: float
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int


def wer(reference, hypothesis) -> WerReport:
    """Minimum-edit-distance alignment with unit costs.

    Counts come from one optimal alignment; when several alignments tie, the
    backtrace prefers substitution over insertion over deletion. A deletion
    is a reference token the hypothesis skipped; an insertion is an extra
    hypothesis token. A hypothesis equal to its reference has no edits and
    builds no table.
    """
    ref = split_tokens(reference)
    hyp = split_tokens(hypothesis)
    if not ref:
        raise ContractError("WER needs a non-empty reference")
    r, h = len(ref), len(hyp)
    if ref == hyp:
        return WerReport(0.0, 0.0, 0.0, 0.0, 0, 0, 0, r)
    # Python lists: at sentence lengths the cost is element access, not
    # arithmetic, and a list's is cheaper than an ndarray's
    dist = [list(range(h + 1))] + [[i] + [0] * h for i in range(1, r + 1)]
    for i in range(1, r + 1):
        prev, row, token = dist[i - 1], dist[i], ref[i - 1]
        for j in range(1, h + 1):
            row[j] = min(
                prev[j - 1] + (0 if token == hyp[j - 1] else 1),
                row[j - 1] + 1,
                prev[j] + 1,
            )

    subs = dels = ins = 0
    i, j = r, h
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (
            0 if ref[i - 1] == hyp[j - 1] else 1
        ):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1

    scale = 100.0 / r
    return WerReport(
        wer=(subs + dels + ins) * scale,
        sub_rate=subs * scale,
        del_rate=dels * scale,
        ins_rate=ins * scale,
        substitutions=subs,
        deletions=dels,
        insertions=ins,
        ref_len=r,
    )


@dataclass(frozen=True)
class BleuReport:
    """Corpus BLEU at orders 1..4, on a 0-100 scale.

    bleu[n] = 100 * BP * exp(mean of log precisions 1..n); any zero precision
    up to n zeroes that order (no smoothing). Precision with an empty
    candidate n-gram set counts as zero.
    """

    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float


def _clipped_counts(references, hypotheses):
    """Corpus sums of clipped n-gram matches and hypothesis n-grams, orders 1-4,
    and the reference and hypothesis lengths.

    Tokens become dense ids and each order's n-grams dense codes, so one
    np.unique per side counts every (sentence pair, n-gram) key of the corpus.
    """
    n_pairs = len(hypotheses)
    sents = [split_tokens(h) for h in hypotheses] + [split_tokens(r) for r in references]
    lengths = np.array([len(x) for x in sents], dtype=np.int64)
    ids: dict = {}
    tokens = np.array([ids.setdefault(tok, len(ids)) for x in sents for tok in x],
                      dtype=np.int64)
    n_hyp = int(lengths[:n_pairs].sum())
    # each token's pair, and the tokens left in its sentence from it on
    pair = np.repeat(np.tile(np.arange(n_pairs), 2), lengths)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tokens))
    starts = np.arange(len(tokens))
    codes = tokens
    matched, candidates = [], []
    for n in range(1, 5):
        if n > 1:
            keep = left[starts] >= n
            starts = starts[keep]
            # a dense code of the (n-1)-gram and the next token's id
            _, codes = np.unique(codes[keep] * len(ids) + tokens[starts + n - 1],
                                 return_inverse=True)
        keys = pair[starts] * (int(codes.max(initial=-1)) + 1) + codes
        is_hyp = starts < n_hyp
        hyp_keys, hyp_counts = np.unique(keys[is_hyp], return_counts=True)
        ref_keys, ref_counts = np.unique(keys[~is_hyp], return_counts=True)
        _, at_hyp, at_ref = np.intersect1d(hyp_keys, ref_keys, assume_unique=True,
                                           return_indices=True)
        matched.append(int(np.minimum(hyp_counts[at_hyp], ref_counts[at_ref]).sum()))
        candidates.append(int(is_hyp.sum()))
    return matched, candidates, len(tokens) - n_hyp, n_hyp


def bleu(references, hypotheses) -> BleuReport:
    """Corpus-level BLEU with clipped n-gram precisions, single reference.

    The precisions come from integer sums over the corpus: each hypothesis
    n-gram counts at most as often as its reference holds it. BP = 1 if the
    corpus hypothesis length exceeds the reference length, else
    exp(1 - r/c).
    """
    if len(references) != len(hypotheses):
        raise ContractError(
            f"got {len(hypotheses)} hypotheses for {len(references)} references"
        )
    matched, candidates, ref_len, hyp_len = _clipped_counts(references, hypotheses)

    precisions = tuple(
        (matched[n] / candidates[n]) if candidates[n] > 0 else 0.0 for n in range(4)
    )
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len > ref_len:
        bp = 1.0
    else:
        bp = float(np.exp(1.0 - ref_len / hyp_len))

    scores = []
    for n in range(1, 5):
        if any(p == 0.0 for p in precisions[:n]):
            scores.append(0.0)
        else:
            mean_log = float(np.mean([np.log(p) for p in precisions[:n]]))
            scores.append(100.0 * bp * float(np.exp(mean_log)))
    return BleuReport(
        bleu1=scores[0],
        bleu2=scores[1],
        bleu3=scores[2],
        bleu4=scores[3],
        precisions=precisions,
        brevity_penalty=bp,
    )
