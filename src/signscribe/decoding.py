"""Inference-time search.

Gloss decoding works on frame-level log-probabilities: a greedy best-path
collapse and a prefix beam search over collapsed label sequences. The prefix
beam (`ctc_beam_search_batch`) searches a batch of sequences at once, a
whole split when `evaluation.decode_glosses` calls it, with a fixed set of
array ops per frame over the sequences still reading frames, and a sequence
decodes to the same glosses whatever batch it is in; `ctc_beam_search` is
its batch of one. Sentence decoding drives the autoregressive decoder with
one beam search, whose width-1 case is greedy decoding; the
((5+u)/6)^alpha length penalty ranks the final candidates.

Sentence decoders talk to the model through one two-method protocol rather
than raw stacks:

    start(z_batch, mask_batch) -> state
    step(state, parent_rows, tokens) -> ndarray[len(parent_rows), |W|]

start opens a decode state over a batch of sources (for the model, each
decoder layer's cross-attention keys and values, projected once). Each step
call makes row r continue row parent_rows[r] of the call before (at the
first call, source parent_rows[r]) by the word tokens[r], and returns the
scores of the next word for every row. The first call passes tokens=None:
its rows start their sentences, and the decoder feeds the start-of-sentence
token itself. Beams are reordered, repeated and dropped through
parent_rows alone, so the model's step feeds only each row's newest
position, not its whole prefix, against cached keys and values. The search
runs over a whole batch of sources in lockstep, one row per live beam of
every track still under its cap; at the first call, parent_rows may name a
source more than once. The model's stateless prefix_logits_batch, which
scores whole prefixes, is the oracle its steps are tested against.

The search runs tracks: a track is one source searched at one width up to
one length cap, and tracks may share a source. `ar_greedy_batch` runs one
width-1 track per source; `ar_beam_pools` runs each source's greedy track
and its beam track in one search, so every decoder step serves both.
Beam search prunes on raw log-probability; the length penalty enters only
when a candidate pool is ranked. So one search per width yields the pools
for every alpha (`ar_beam_pools`), and `best_hypothesis` ranks a pool.

Every decoder is deterministic: score ties break toward the lexicographically
smallest token sequence, which for single-step choices means the lowest index.
A sentence score is the running sum of log-probabilities, so greedy picks the
lowest token id among extensions whose running totals are equal as floats,
even when their own log-probabilities differ in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GLOSS_BLANK, TEXT_EOS
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class Hypothesis:
    """One decoded candidate sentence with its raw (unpenalized) score."""

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool

    def __post_init__(self):
        if self.log_prob > 1e-9:
            raise ContractError(f"hypothesis log-probability {self.log_prob} > 0")

    def words(self) -> tuple[int, ...]:
        """Tokens with the closing end-of-sentence marker stripped."""
        if self.tokens and self.tokens[-1] == TEXT_EOS:
            return self.tokens[:-1]
        return self.tokens


@dataclass(frozen=True)
class DecodeConfig:
    beam_width: int = 0
    alpha: float = 0.0
    max_len: int = 60

    def __post_init__(self):
        if self.beam_width < 0:
            raise ConfigError(f"beam width must be >= 0, got {self.beam_width}")
        if not 0.0 <= self.alpha <= 2.0:
            raise ConfigError(f"length-penalty exponent must lie in [0, 2], got {self.alpha}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")


def length_penalty(n_tokens: int, alpha: float) -> float:
    """lp(u) = ((5 + u) / 6)^alpha; identity at alpha = 0."""
    return float(((5.0 + n_tokens) / 6.0) ** alpha)


# ---------------------------------------------------------------------------
# CTC gloss decoding
# ---------------------------------------------------------------------------


def collapse_path(path) -> tuple[int, ...]:
    """Squash consecutive repeats, then drop blanks."""
    out = []
    prev = None
    for sym in path:
        if sym != prev and sym != GLOSS_BLANK:
            out.append(int(sym))
        prev = sym
    return tuple(out)


def ctc_greedy(log_probs) -> tuple[int, ...]:
    """Collapse the per-frame argmax path."""
    return collapse_path(np.argmax(np.asarray(log_probs), axis=1))


def _slot_tuple(prefixes, lengths, n, beam, sym) -> tuple[int, ...]:
    """The prefix of sequence n's beam, extended by sym unless sym is the blank."""
    base = tuple(prefixes[n, beam, :lengths[n, beam]].tolist())
    return base + (int(sym),) if sym else base


def ctc_beam_search_batch(log_probs, frame_counts, width: int) -> list[tuple[int, ...]]:
    """Prefix beam search over a batch of sequences at once.

    log_probs is (N, T, K) frame-level log-probabilities with the blank at
    index 0; sequence n reads its first frame_counts[n] frames. Each live
    prefix carries two scores: probability mass of paths ending in a blank
    and mass ending in the prefix's last symbol. Extending by a repeated
    symbol is only legal from the blank side, which is exactly the collapse
    rule.

    The rows are searched longest first, so frame t works in place on the
    leading rows that still read frames, with a fixed set of array ops over
    their width beams each: the blank stay, the repeat stay and the
    width x (K - 1) extensions. An extension that equals a live beam (that
    beam minus its last symbol is the extended prefix) merges into the
    beam's stay. The top width candidates by total score survive; ties
    order by the prefix tuple, so where the width-th and the next score are
    equal the tied candidates are ranked as tuples. No op mixes rows, so a
    sequence decodes to the same glosses whatever batch it is in, and a
    whole split can be one batch. Results come back in input order.
    """
    if width < 1:
        raise ConfigError(f"beam width must be >= 1, got {width}")
    lp = np.asarray(log_probs, dtype=np.float64)
    n, n_frames, k = lp.shape
    counts = np.asarray(frame_counts, dtype=np.int64)
    if counts.shape != (n,) or (n and (counts.min() < 0 or counts.max() > n_frames)):
        raise ContractError(f"frame_counts must be {n} counts in [0, {n_frames}]")
    order = np.argsort(-counts, kind="stable")
    lp = lp[order]
    # frame t reads the leading reading[t] rows
    reading = (counts[:, None] > np.arange(n_frames)).sum(axis=0)
    w = width
    rows = np.arange(n)[:, None]
    cols = np.arange(w)[None, :]
    ninf = -np.inf
    pb = np.full((n, w), ninf)
    pb[:, 0] = 0.0
    pnb = np.full((n, w), ninf)
    valid = np.zeros((n, w), dtype=bool)
    valid[:, 0] = True
    prefixes = np.zeros((n, w, n_frames), dtype=np.int64)  # 0-padded; symbols are >= 1
    lengths = np.zeros((n, w), dtype=np.int64)
    # candidate slots: the width stays, then each beam's K - 1 extensions
    slot_beam = np.concatenate([np.arange(w), np.repeat(np.arange(w), k - 1)])
    slot_sym = np.concatenate([np.zeros(w, dtype=np.int64), np.tile(np.arange(1, k), w)])
    no_ext = np.full((n, w * (k - 1)), ninf)
    for t in range(n_frames):
        m = int(reading[t])
        if not m:
            break
        r_m = rows[:m]
        pb_m, pnb_m, valid_m, len_m = pb[:m], pnb[:m], valid[:m], lengths[:m]
        # every prefix is 0 past the longest live one, so only its first
        # `span` symbols can differ
        span = int(len_m.max())
        frame = lp[:m, t]
        total = np.logaddexp(pb_m, pnb_m)
        last = prefixes[r_m, cols, np.maximum(len_m - 1, 0)]  # 0 for the empty prefix
        stay_b = total + frame[:, :1]
        stay_nb = np.where(len_m > 0, pnb_m + frame[r_m, last], ninf)
        repeat = np.arange(1, k) == last[:, :, None]
        ext = np.where(repeat, pb_m[:, :, None], total[:, :, None]) + frame[:, None, 1:]
        ext_valid = np.broadcast_to(valid_m[:, :, None], ext.shape).copy()
        if span:
            # beam j is beam i extended by its last symbol when j's parent equals i
            has_parent = valid_m & (len_m > 0)
            head = prefixes[:m, :, :span]
            parent = head.copy()
            nn, jj = np.nonzero(has_parent)
            parent[nn, jj, len_m[nn, jj] - 1] = 0
            match = ((head[:, :, None] == parent[:, None]).all(axis=-1)
                     & valid_m[:, :, None] & has_parent[:, None, :])
            nn, ii, jj = np.nonzero(match)
            merged = last[nn, jj] - 1
            stay_nb[nn, jj] = np.logaddexp(stay_nb[nn, jj], ext[nn, ii, merged])
            ext_valid[nn, ii, merged] = False
        # keys sort best first; NaN marks a slot that holds no candidate
        keys = np.concatenate([np.where(valid_m, -np.logaddexp(stay_b, stay_nb), np.nan),
                               np.where(ext_valid, -ext, np.nan).reshape(m, -1)], axis=1)
        if keys.shape[1] > w:
            # the best w in any order, then the next best: a tie across the
            # cut is ranked by the candidates' prefix tuples
            part = np.argpartition(keys, w, axis=1)
            chosen = part[:, :w]
            cut = keys[r_m[:, 0], part[:, w]]
            for r in np.flatnonzero(keys[r_m, chosen].max(axis=1) == cut):
                better = np.flatnonzero(keys[r] < cut[r])
                tied = sorted(np.flatnonzero(keys[r] == cut[r]).tolist(),
                              key=lambda c: _slot_tuple(prefixes, lengths, r, slot_beam[c],
                                                        slot_sym[c]))
                chosen[r] = np.concatenate([better, tied[:w - len(better)]])
        else:
            chosen = np.broadcast_to(np.arange(w), (m, w))
        src = slot_beam[chosen]
        sym = slot_sym[chosen]
        # a new prefix is at most one symbol longer than the longest old one
        new_prefixes = prefixes[r_m, src, :span + 1]
        new_lengths = len_m[r_m, src]
        new_prefixes[r_m, cols, new_lengths] += sym
        new_lengths += sym > 0
        new_valid = ~np.isnan(keys[r_m, chosen])
        # a slot left without a candidate scores -inf, so it adds nothing later
        for old, cand in ((pb_m, np.concatenate([stay_b, no_ext[:m]], axis=1)),
                          (pnb_m, np.concatenate([stay_nb, ext.reshape(m, -1)], axis=1))):
            old[...] = np.where(new_valid, cand[r_m, chosen], ninf)
        valid_m[...] = new_valid
        len_m[...] = new_lengths
        prefixes[:m, :, :span + 1] = new_prefixes
    keys = np.where(valid, -np.logaddexp(pb, pnb), np.nan)
    best = np.argsort(keys, axis=1, kind="stable")
    out = [()] * n
    for r in range(n):
        tied = np.flatnonzero(keys[r] == keys[r, best[r, 0]]).tolist()
        out[order[r]] = min(_slot_tuple(prefixes, lengths, r, j, 0) for j in tied)
    return out


def ctc_beam_search(log_probs, width: int) -> tuple[int, ...]:
    """Prefix beam search of one (T, K) sequence: ctc_beam_search_batch on a batch of one."""
    lp = np.asarray(log_probs)
    return ctc_beam_search_batch(lp[None], [lp.shape[0]], width)[0]


# ---------------------------------------------------------------------------
# Autoregressive sentence decoding
# ---------------------------------------------------------------------------


def _length_caps(z_batch, max_len) -> list[int]:
    """One generation cap per source from a single cap or a per-source list."""
    n = len(z_batch) if isinstance(z_batch, (list, tuple)) else z_batch.shape[0]
    caps = [int(max_len)] * n if np.ndim(max_len) == 0 else [int(c) for c in max_len]
    if len(caps) != n:
        raise ConfigError(f"got {len(caps)} length caps for {n} sources")
    if any(c < 1 for c in caps):
        raise ConfigError(f"max_len must be >= 1, got {min(caps)}")
    return caps


def _search(z_batch, mask_batch, decoder, tracks, forbid) -> list[list[Hypothesis]]:
    """Beam-search many tracks in lockstep; returns each track's final beams.

    A track is a (source, width, cap) triple: one search of that source at
    that width, up to that many tokens. Tracks may share a source, as a
    source's greedy rollout (width 1) and its beam do. Each step scores the
    live beams of every track still under its cap with one decoder step:
    every live beam has grown one token per step, and each names the row of
    the step before that it extends. Scores use the model's full
    log-softmax; forbidden ids are only excluded from selection, so scores
    stay comparable across widths. A row offers only its track's `width`
    best extensions, since no other can survive the cut. Pruning and
    tie-breaking stay per track, so a track's beams depend on which others
    share its batch only through the round-off of the decoder's scores. A
    track whose rows give no finite score keeps its beams from the step
    before.
    """
    state = decoder.start(z_batch, mask_batch)
    widths = [width for _, width, _ in tracks]
    caps = [cap for *_, cap in tracks]
    # a beam is (tokens, log_prob, finished, row): row is its parent's row in
    # the last step, or at the first step its source
    beams = [[((), 0.0, False, source)] for source, _, _ in tracks]
    for step in range(max(caps)):
        # a beam kept back by a step with no finite score is shorter than
        # step and stays as it is
        rows = [(i, tokens, lp, row) for i in range(len(tracks)) if step < caps[i]
                for tokens, lp, finished, row in beams[i]
                if not finished and len(tokens) == step]
        if not rows:
            break
        logits = np.asarray(
            decoder.step(state, [row for *_, row in rows],
                         [tokens[-1] for _, tokens, _, _ in rows] if step else None),
            dtype=np.float64,
        )
        shifted = logits - logits.max(axis=1, keepdims=True)
        logq = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        if forbid:
            logq[:, list(forbid)] = -np.inf
        scores = np.array([lp for _, _, lp, _ in rows])[:, None] + logq
        # a stable sort keeps the lower id first among equal scores, as the
        # final (-score, tokens) order does
        top = np.argsort(-scores, axis=1, kind="stable")[:, :max(widths)]
        best = np.take_along_axis(scores, top, axis=1)
        candidates: dict[int, list] = {}
        for r, ((i, tokens, _, _), words, totals) in enumerate(zip(rows, top.tolist(),
                                                                   best.tolist())):
            cands = candidates.get(i)
            if cands is None:  # a track's finished beams join its candidates once
                cands = candidates[i] = [beam for beam in beams[i] if beam[2]]
            cands.extend((tokens + (w,), total, w == TEXT_EOS, r)
                         for w, total in zip(words[:widths[i]], totals)
                         if math.isfinite(total))
        for i, cands in candidates.items():
            # token tuples are unique, so the order does not depend on the
            # order candidates were appended in
            cands.sort(key=lambda c: (-c[1], c[0]))
            beams[i] = cands[:widths[i]] or beams[i]
    return [[Hypothesis(*beam[:3]) for beam in track] for track in beams]


def ar_greedy(z, src_pad_mask, decoder, max_len: int, *, forbid=()) -> Hypothesis:
    """Greedy rollout of one source: ar_greedy_batch on a batch of one."""
    return ar_greedy_batch([z], [src_pad_mask], decoder, max_len, forbid=forbid)[0]


def ar_greedy_batch(z_batch, mask_batch, decoder, max_len, *,
                    forbid=()) -> list[Hypothesis]:
    """Greedy decode many sources in lockstep: the width-1 beam search.

    Each source extends by its best token until <eos> or its cap. max_len
    may be a single cap or one per source. A source decodes to the same
    tokens whichever others share its batch, and to the same score up to
    float64 round-off: the model's step projects all its rows with one
    GEMM, whose last bits depend on the number of rows.
    """
    tracks = [(i, 1, cap) for i, cap in enumerate(_length_caps(z_batch, max_len))]
    return [beams[0] for beams in _search(z_batch, mask_batch, decoder, tracks, forbid)]


def ar_beam_pools(z_batch, mask_batch, decoder, width: int, max_len, *,
                  greedy=None, forbid=()) -> list[list[Hypothesis]]:
    """Beam-search many sources in lockstep; returns each source's candidate pool.

    A pool holds the source's final beams followed by its greedy rollout;
    width 0 gives the greedy rollout alone, and width 1, whose one beam is
    the greedy rollout, runs no search of its own. Wider, each source's
    greedy track and beam track are rows of one search, so every decoder
    step serves both. greedy, one Hypothesis per source, stands in for the
    greedy tracks when the caller already has them. max_len is a single cap
    or one per source.
    """
    if width < 0:
        raise ConfigError(f"beam width must be >= 0, got {width}")
    caps = _length_caps(z_batch, max_len)
    if width <= 1:
        if greedy is None:
            greedy = ar_greedy_batch(z_batch, mask_batch, decoder, caps, forbid=forbid)
        # width 1's one beam is the greedy rollout
        return [[g] * (width + 1) for g in greedy]
    tracks = [(i, width, cap) for i, cap in enumerate(caps)]
    if greedy is None:
        tracks += [(i, 1, cap) for i, cap in enumerate(caps)]
    found = _search(z_batch, mask_batch, decoder, tracks, forbid)
    if greedy is None:
        greedy = [beams[0] for beams in found[len(caps):]]
    return [beams + [g] for beams, g in zip(found, greedy)]


def best_hypothesis(pool, alpha: float) -> Hypothesis:
    """Rank a candidate pool by log_prob / lp(len), finished hypotheses first."""
    finished = [h for h in pool if h.finished]
    return min(
        finished or pool,
        key=lambda h: (-h.log_prob / length_penalty(len(h.tokens), alpha), h.tokens),
    )


def ar_beam_search(z, src_pad_mask, decoder, cfg: DecodeConfig, *, forbid=()) -> Hypothesis:
    """Beam search of one source: ar_beam_pools on a batch of one, then ranked.

    Width 0 falls back to greedy. The greedy rollout always joins the final
    candidate pool, so at alpha = 0 the returned raw score can never fall
    below greedy's. The length penalty applies to the final ranking,
    finished or not.
    """
    (pool,) = ar_beam_pools([z], [src_pad_mask], decoder, cfg.beam_width, cfg.max_len,
                            forbid=forbid)
    return best_hypothesis(pool, cfg.alpha)
