"""Evaluation metrics: word error rate and corpus-level BLEU.

Both operate on already-tokenized text; strings are split on whitespace as a
convenience. No normalization happens here; the corpus format owns casing and
punctuation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def _tokens(seq) -> list:
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
    hypothesis token.
    """
    ref = _tokens(reference)
    hyp = _tokens(hypothesis)
    if not ref:
        raise ContractError("WER needs a non-empty reference")
    r, h = len(ref), len(hyp)
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


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(references, hypotheses) -> BleuReport:
    """Corpus-level BLEU with clipped n-gram precisions, single reference.

    BP = 1 if the corpus hypothesis length exceeds the reference length,
    else exp(1 - r/c).
    """
    if len(references) != len(hypotheses):
        raise ContractError(
            f"got {len(hypotheses)} hypotheses for {len(references)} references"
        )
    matched = [0, 0, 0, 0]
    candidates = [0, 0, 0, 0]
    ref_len = hyp_len = 0
    for ref_raw, hyp_raw in zip(references, hypotheses):
        ref = _tokens(ref_raw)
        hyp = _tokens(hyp_raw)
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            candidates[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )

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
