"""Shared numerical test helpers and fixtures."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from signscribe import autodiff as ad
from signscribe import data
from signscribe.errors import DimensionError
from signscribe.model import JointModel


@pytest.fixture(scope="session")
def acceptance_dev(tmp_path_factory):
    """A dev split drawn with the acceptance corpus's settings and a random
    model with sharpened decoder weights, so decoded words depend on the
    source and the decode setting: (model, dev samples, gloss vocab, text vocab)."""
    root = data.generate_synthetic(tmp_path_factory.mktemp("corpus"), seed=106, n_train=200,
                                   n_dev=20, n_test=4, n_glosses=12, max_glosses=6)
    dev, gloss, text = data.load_corpus(root, "dev")
    m = JointModel(d_in=dev[0].features.shape[1], d=16, n_heads=2, n_enc_layers=2,
                   n_dec_layers=2, n_glosses=len(gloss), n_words=len(text), d_ff=32,
                   dropout=0.0, seed=8)
    for name, p in m.named_parameters().items():
        if name.startswith(("decoder.", "words.")) and p.ndim == 2:
            p.data = p.data * 3.0
    return m, dev, gloss, text


def edge_case_corpus(rng, n_pairs: int = 12, n_words: int = 5):
    """A seeded (references, hypotheses) pair of token-list lists over a few words.

    Each hypothesis is one of the cases corpus BLEU and WER treat apart:
    empty, shorter than four tokens, a short n-gram repeated so its counts
    must be clipped, a copy of its reference, or random. A later reference
    may be empty; the first never is, so corpus WER is defined.
    """
    words = [f"w{i}" for i in range(n_words)]

    def draw(lo, hi):
        return [words[j] for j in rng.integers(0, n_words, size=int(rng.integers(lo, hi)))]

    refs, hyps = [], []
    for i in range(n_pairs):
        ref = draw(1 if i == 0 else 0, 9)
        kind = int(rng.integers(5))
        if kind == 0:
            hyp = []
        elif kind == 1:
            hyp = draw(1, 4)
        elif kind == 2:
            hyp = draw(1, 3) * int(rng.integers(2, 5))
        elif kind == 3:
            hyp = list(ref)
        else:
            hyp = draw(0, 11)
        refs.append(ref)
        hyps.append(hyp)
    return refs, hyps


def oracle_bleu(references, hypotheses):
    """Corpus BLEU counted sentence by sentence with Counters of n-gram tuples.

    This is the loop the package ran before it counted n-grams in arrays:
    per sentence and order, each hypothesis n-gram is clipped by its
    reference count, and the sums feed the same precision, brevity and
    geometric-mean formulas.
    """
    from signscribe.metrics import BleuReport, split_tokens

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    matched = [0, 0, 0, 0]
    candidates = [0, 0, 0, 0]
    ref_len = hyp_len = 0
    for ref_raw, hyp_raw in zip(references, hypotheses):
        ref = split_tokens(ref_raw)
        hyp = split_tokens(hyp_raw)
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, 5):
            hyp_counts = ngrams(hyp, n)
            ref_counts = ngrams(ref, n)
            candidates[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(min(count, ref_counts[gram])
                                  for gram, count in hyp_counts.items())
    precisions = tuple((matched[n] / candidates[n]) if candidates[n] > 0 else 0.0
                       for n in range(4))
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
    return BleuReport(*scores, precisions=precisions, brevity_penalty=bp)


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x, coordinate by coordinate."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rel_tol: float = 1e-5, floor: float = 1e-4):
    """Relative-error comparison with a small floor so near-zero coordinates stay sharp."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    denom = np.maximum(np.abs(numeric), floor)
    rel = np.abs(analytic - numeric) / denom
    worst = float(rel.max()) if rel.size else 0.0
    assert worst < rel_tol, f"gradient mismatch: worst relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# Reference ops: the composed graphs that fused package ops are checked
# against bit for bit (attention, linear, the teacher-forced decoder) and the
# slicing of the per-sample CTC oracle. No model path records them.
# ---------------------------------------------------------------------------


def getitem(a, key):
    """Basic (non-overlapping) indexing: ints, slices, tuples thereof."""
    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return ad.custom_op(a.data[key], (a,), bwd)


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def bwd(g):
        ga = ad._unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a.shape)
        gb = ad._unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b.shape)
        return ga, gb

    return ad.custom_op(np.matmul(a_data, b_data), (a, b), bwd)


def softmax(a, axis: int = -1):
    """Max-subtracted softmax; outputs sum to 1 along axis."""
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (out * g).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return ad.custom_op(out, (a,), bwd)


def masked_fill(x, mask, value: float):
    """Replace entries where mask is true by value (mask broadcasts over x)."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)

    def bwd(g):
        return (np.where(mask, 0.0, g),)

    return ad.custom_op(np.where(mask, value, x.data), (x,), bwd)


def oracle_beam_search(score, cfg, *, eos_id: int = 2, forbid=()):
    """Sentence beam search scored one prefix at a time, with no batching.

    score(prefix) returns next-token logits after a bos-free prefix. This is
    the per-beam search the package ran before beams were batched: a greedy
    rollout, then one score call per live beam per step, raw-score pruning,
    and a final length-penalized ranking with finished hypotheses first.
    """
    from signscribe.decoding import Hypothesis, length_penalty

    def log_q(prefix):
        logits = np.asarray(score(prefix), dtype=np.float64)
        shifted = logits - logits.max()
        out = shifted - np.log(np.exp(shifted).sum())
        if forbid:
            out = out.copy()
            out[list(forbid)] = -np.inf
        return out

    tokens, lp, done = (), 0.0, False
    while not done and len(tokens) < cfg.max_len:
        q = log_q(tokens)
        choice = int(np.argmax(q))
        tokens, lp, done = tokens + (choice,), lp + float(q[choice]), choice == eos_id
    greedy = Hypothesis(tokens, lp, done)
    if cfg.beam_width == 0:
        return greedy

    beams = [((), 0.0, False)]
    for _ in range(cfg.max_len):
        candidates, expanded = [], False
        for tokens, lp, finished in beams:
            if finished:
                candidates.append((tokens, lp, True))
                continue
            expanded = True
            q = log_q(tokens)
            for w in np.flatnonzero(np.isfinite(q)):
                w = int(w)
                candidates.append((tokens + (w,), lp + float(q[w]), w == eos_id))
        if not expanded:
            break
        candidates.sort(key=lambda c: (-c[1], c[0]))
        beams = candidates[: cfg.beam_width]

    pool = [Hypothesis(t, lp, f) for t, lp, f in beams] + [greedy]
    ranked = [h for h in pool if h.finished] or pool
    return min(
        ranked,
        key=lambda h: (-h.log_prob / length_penalty(len(h.tokens), cfg.alpha), h.tokens),
    )


def oracle_chunk(scorers, caps, width, alpha, *, forbid=()):
    """oracle_beam_search on each source of a chunk alone, under its own cap.

    scorers[i] scores the prefixes of source i; a batched search over the
    whole chunk must return exactly these hypotheses.
    """
    from signscribe.decoding import DecodeConfig

    return [
        oracle_beam_search(score, DecodeConfig(beam_width=width, alpha=alpha, max_len=cap),
                           forbid=forbid)
        for score, cap in zip(scorers, caps)
    ]


class ReplayDecoder:
    """The decoding start/step protocol over a decoder that scores whole prefixes.

    A subclass supplies prefix_logits_batch(z_batch, mask_batch, indices,
    prefixes): row r scores the next token after the bos-free prefixes[r]
    given source z_batch[indices[r]]. The state keeps each row's source and
    prefix, and every step rescores the whole prefixes with one call, so
    tests can drive the search with hand-built tables.
    """

    def start(self, z_batch, mask_batch):
        return SimpleNamespace(z_batch=z_batch, mask_batch=mask_batch, rows=[])

    def step(self, state, parent_rows, tokens):
        if tokens is None:
            state.rows = [(i, ()) for i in parent_rows]
        else:
            state.rows = [(state.rows[p][0], state.rows[p][1] + (w,))
                          for p, w in zip(parent_rows, tokens)]
        return self.prefix_logits_batch(state.z_batch, state.mask_batch,
                                        [i for i, _ in state.rows],
                                        [prefix for _, prefix in state.rows])


class RandomDecoder(ReplayDecoder):
    """Deterministic pseudo-random logits per prefix; a stand-in for a model."""

    def __init__(self, n_words, seed):
        self.n_words = n_words
        self.seed = seed

    def prefix_logits(self, z, mask, prefix):
        rng = np.random.default_rng((self.seed, len(prefix), *[p + 1 for p in prefix]))
        return rng.normal(size=self.n_words) * 2.0

    def prefix_logits_batch(self, z_batch, mask_batch, indices, prefixes):
        return np.stack([self.prefix_logits(None, None, p) for p in prefixes])


def exhaustive_best(decoder, n_words, max_len, alpha, eos_id: int = 2):
    """Score every token sequence up to max_len under the beam's own rules."""
    from signscribe.decoding import length_penalty

    best = None
    for length in range(1, max_len + 1):
        for seq in itertools.product(range(n_words), repeat=length):
            # <eos> anywhere except the end makes the sequence unreachable
            if eos_id in seq[:-1]:
                continue
            finished = seq[-1] == eos_id
            if not finished and length < max_len:
                continue  # unfinished sequences only count at the cap
            lp = 0.0
            for u in range(length):
                logits = decoder.prefix_logits(None, None, seq[:u])
                shifted = logits - logits.max()
                logq = shifted - np.log(np.exp(shifted).sum())
                lp += logq[seq[u]]
            cand = (seq, lp, finished)
            if best is None:
                best = cand
            else:
                b_seq, b_lp, b_fin = best
                # finished hypotheses strictly outrank unfinished ones
                if (finished, lp / length_penalty(length, alpha), tuple(-x for x in seq)) > (
                    b_fin, b_lp / length_penalty(len(b_seq), alpha), tuple(-x for x in b_seq)
                ):
                    best = cand
    return best


_LOG2 = math.log(2.0)


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) for Python floats; np.logaddexp's formula, bit for bit."""
    if a == b:
        return a + _LOG2  # also inf + log 2 = inf and -inf + log 2 = -inf
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    d = a - b
    if d > 0:
        return a + math.log1p(math.exp(-d))
    return b + math.log1p(math.exp(d))


def oracle_ctc_beam_search(log_probs, width: int) -> tuple[int, ...]:
    """CTC prefix beam search over one (T, K) sequence, prefix by prefix in Python floats.

    This is the scalar search the package ran before gloss decoding was
    batched: every live prefix keeps its blank-ending and symbol-ending log
    mass in a dict, each frame grows every prefix by the blank stay, the
    repeat stay and every extension, and the top `width` by (-score,
    prefix) survive. The blank is index 0.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    n_frames, k = lp.shape
    lp = lp.tolist()
    ninf = -math.inf
    beams: dict[tuple[int, ...], tuple[float, float]] = {(): (0.0, ninf)}
    for t in range(n_frames):
        grown: dict[tuple[int, ...], list[float]] = {}
        for prefix, (pb, pnb) in beams.items():
            total = log_add(pb, pnb)
            slot = grown.setdefault(prefix, [ninf, ninf])
            slot[0] = log_add(slot[0], total + lp[t][0])
            if prefix:
                # same symbol again without an intervening blank: still one symbol
                slot[1] = log_add(slot[1], pnb + lp[t][prefix[-1]])
            for c in range(1, k):
                ext = grown.setdefault(prefix + (c,), [ninf, ninf])
                contrib = (pb if prefix and c == prefix[-1] else total) + lp[t][c]
                ext[1] = log_add(ext[1], contrib)
        ranked = sorted(grown.items(), key=lambda item: (-log_add(*item[1]), item[0]))
        beams = {prefix: (pb, pnb) for prefix, (pb, pnb) in ranked[:width]}
    return min(beams.items(), key=lambda item: (-log_add(*item[1]), item[0]))[0]
