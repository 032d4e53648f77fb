"""Inference-time search.

Gloss decoding works on frame-level log-probabilities: a greedy best-path
collapse and a prefix beam search over collapsed label sequences. Sentence
decoding drives the autoregressive decoder with one beam search, whose
width-1 case is greedy decoding; the ((5+u)/6)^alpha length penalty ranks
the final candidates.

Sentence decoders talk to the model through a two-method pathway protocol
rather than raw stacks: any object with

    start(z_batch, mask_batch) -> state
    step(state, parent_rows, tokens) -> ndarray[len(parent_rows), |W|]

start opens a decode state over a batch of sources (for the model, each
decoder layer's cross-attention keys and values, projected once). Each step
call makes row r continue row parent_rows[r] of the call before (at the
first call, source parent_rows[r]) by the word tokens[r], and returns the
scores of the next word for every row. The first call passes tokens=None:
its rows start their sentences, and the pathway feeds the start-of-sentence
token itself. Beams are reordered, repeated and dropped through
parent_rows alone, so the model's step feeds only each row's newest
position, not its whole prefix, against cached keys and values. The search
runs over a whole batch of sources in lockstep, one row per live beam of
every source still under its cap.

A decoder with only the stateless

    prefix_logits_batch(z_batch, mask_batch, indices, prefixes) -> ndarray[len(indices), |W|]

(row r scores the next token after the bos-free prefixes[r] given source
z_batch[indices[r]]; all prefixes of one call share a length) gets start
and step from a prefix-replay adapter, which tracks each row's source and
prefix and rescores whole prefixes every step. This keeps search logic
independent of embedding details and lets tests drive it with hand-built
tables; the model's own prefix_logits_batch is the oracle its steps are
tested against.

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

from .errors import ConfigError, ContractError

BLANK = 0
DEFAULT_EOS = 2


@dataclass(frozen=True)
class Hypothesis:
    """One decoded candidate sentence with its raw (unpenalized) score."""

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool

    def __post_init__(self):
        if self.log_prob > 1e-9:
            raise ContractError(f"hypothesis log-probability {self.log_prob} > 0")

    def words(self, eos_id: int = DEFAULT_EOS) -> tuple[int, ...]:
        """Tokens with the closing end-of-sentence marker stripped."""
        if self.tokens and self.tokens[-1] == eos_id:
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


def collapse_path(path, blank: int = BLANK) -> tuple[int, ...]:
    """Squash consecutive repeats, then drop blanks."""
    out = []
    prev = None
    for sym in path:
        if sym != prev and sym != blank:
            out.append(int(sym))
        prev = sym
    return tuple(out)


def ctc_greedy(log_probs) -> tuple[int, ...]:
    """Collapse the per-frame argmax path."""
    lp = log_probs.data if hasattr(log_probs, "data") else np.asarray(log_probs)
    return collapse_path(np.argmax(lp, axis=1))


_LOG2 = math.log(2.0)


def _log_add(a: float, b: float) -> float:
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


def ctc_beam_search(log_probs, width: int) -> tuple[int, ...]:
    """Prefix beam search over collapsed gloss sequences.

    Each live prefix carries two scores: probability mass of paths ending in
    a blank and mass ending in the prefix's last symbol. Extending by a
    repeated symbol is only legal from the blank side, which is exactly the
    collapse rule.
    """
    if width < 1:
        raise ConfigError(f"beam width must be >= 1, got {width}")
    lp = log_probs.data if hasattr(log_probs, "data") else np.asarray(log_probs)
    n_frames, k = lp.shape
    lp = lp.tolist()  # Python floats keep _log_add's scalar math cheap
    ninf = -np.inf
    # prefix -> (log mass ending in blank, log mass ending in last symbol)
    beams: dict[tuple[int, ...], tuple[float, float]] = {(): (0.0, ninf)}
    for t in range(n_frames):
        grown: dict[tuple[int, ...], list[float]] = {}

        def bucket(prefix):
            return grown.setdefault(prefix, [ninf, ninf])

        for prefix, (pb, pnb) in beams.items():
            total = _log_add(pb, pnb)
            slot = bucket(prefix)
            slot[0] = _log_add(slot[0], total + lp[t][BLANK])
            if prefix:
                # same symbol again without an intervening blank: still one symbol
                slot[1] = _log_add(slot[1], pnb + lp[t][prefix[-1]])
            for c in range(1, k):
                ext = bucket(prefix + (c,))
                if prefix and c == prefix[-1]:
                    contrib = pb + lp[t][c]  # repeat requires the blank side
                else:
                    contrib = total + lp[t][c]
                ext[1] = _log_add(ext[1], contrib)
        ranked = sorted(
            grown.items(), key=lambda item: (-_log_add(item[1][0], item[1][1]), item[0])
        )
        beams = {prefix: (pb, pnb) for prefix, (pb, pnb) in ranked[:width]}
    best = min(beams.items(), key=lambda item: (-_log_add(item[1][0], item[1][1]), item[0]))
    return best[0]


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


@dataclass
class _ReplayState:
    z_batch: object
    mask_batch: object
    rows: list  # (source index, bos-free prefix) per row of the last step


class _PrefixReplay:
    """The start/step pathway over a decoder that has only prefix_logits_batch.

    The state keeps each row's source and prefix, and every step rescores
    the whole prefixes with one prefix_logits_batch call.
    """

    def __init__(self, decoder):
        self.decoder = decoder

    def start(self, z_batch, mask_batch) -> _ReplayState:
        return _ReplayState(z_batch, mask_batch, [])

    def step(self, state: _ReplayState, parent_rows, tokens) -> np.ndarray:
        if tokens is None:
            state.rows = [(i, ()) for i in parent_rows]
        else:
            state.rows = [(state.rows[p][0], state.rows[p][1] + (w,))
                          for p, w in zip(parent_rows, tokens)]
        return self.decoder.prefix_logits_batch(
            state.z_batch, state.mask_batch, [i for i, _ in state.rows],
            [prefix for _, prefix in state.rows])


def _search(z_batch, mask_batch, decoder, width, caps, eos_id, forbid) -> list[list[Hypothesis]]:
    """Beam-search many sources in lockstep; returns each source's final beams.

    Each step scores the live beams of every source still under its cap with
    one decoder step: every live beam has grown one token per step, and each
    names the row of the step before that it extends. Scores use the model's
    full log-softmax; forbidden ids are only excluded from selection, so
    scores stay comparable across widths. A row offers only its `width`
    best extensions, since no other can survive the cut. Pruning and
    tie-breaking stay per source, so a source's beams never depend on which
    others share its batch. A source whose rows give no finite score keeps
    its beams from the step before.
    """
    pathway = decoder if hasattr(decoder, "step") else _PrefixReplay(decoder)
    state = pathway.start(z_batch, mask_batch)
    n = len(caps)
    # a beam is (tokens, log_prob, finished, row): row is its parent's row in
    # the last step, or at the first step its source
    beams = [[((), 0.0, False, i)] for i in range(n)]
    for step in range(max(caps)):
        # a beam kept back by a step with no finite score is shorter than
        # step and stays as it is
        rows = [(i, tokens, lp, row) for i in range(n) if step < caps[i]
                for tokens, lp, finished, row in beams[i]
                if not finished and len(tokens) == step]
        if not rows:
            break
        logits = np.asarray(
            pathway.step(state, [row for *_, row in rows],
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
        top = np.argsort(-scores, axis=1, kind="stable")[:, :width]
        best = np.take_along_axis(scores, top, axis=1)
        candidates: dict[int, list] = {}
        for r, ((i, tokens, _, _), words, totals) in enumerate(zip(rows, top.tolist(),
                                                                   best.tolist())):
            cands = candidates.setdefault(i, [beam for beam in beams[i] if beam[2]])
            cands.extend((tokens + (w,), total, w == eos_id, r)
                         for w, total in zip(words, totals) if math.isfinite(total))
        for i, cands in candidates.items():
            # token tuples are unique, so the order does not depend on the
            # order candidates were appended in
            cands.sort(key=lambda c: (-c[1], c[0]))
            beams[i] = cands[:width] or beams[i]
    return [[Hypothesis(*beam[:3]) for beam in source] for source in beams]


def ar_greedy(z, src_pad_mask, decoder, max_len: int, *,
              eos_id: int = DEFAULT_EOS, forbid=()) -> Hypothesis:
    """Greedy rollout of one source: ar_greedy_batch on a batch of one."""
    return ar_greedy_batch([z], [src_pad_mask], decoder, max_len,
                           eos_id=eos_id, forbid=forbid)[0]


def ar_greedy_batch(z_batch, mask_batch, decoder, max_len, *,
                    eos_id: int = DEFAULT_EOS, forbid=()) -> list[Hypothesis]:
    """Greedy decode many sources in lockstep: the width-1 beam search.

    Each source extends by its best token until <eos> or its cap. max_len
    may be a single cap or one per source; a source's result never depends
    on which others share its batch.
    """
    caps = _length_caps(z_batch, max_len)
    return [beams[0] for beams in _search(z_batch, mask_batch, decoder, 1, caps,
                                          eos_id, forbid)]


def ar_beam_pools(z_batch, mask_batch, decoder, width: int, max_len, *,
                  greedy=None, eos_id: int = DEFAULT_EOS, forbid=()) -> list[list[Hypothesis]]:
    """Beam-search many sources in lockstep; returns each source's candidate pool.

    A pool holds the source's final beams followed by its greedy rollout;
    width 0 gives the greedy rollout alone, and width 1, whose one beam is
    the greedy rollout, runs no search of its own. greedy, one Hypothesis per
    source, stands in for the greedy pass when the caller already has it.
    max_len is a single cap or one per source.
    """
    if width < 0:
        raise ConfigError(f"beam width must be >= 0, got {width}")
    caps = _length_caps(z_batch, max_len)
    if greedy is None:
        greedy = ar_greedy_batch(z_batch, mask_batch, decoder, caps,
                                 eos_id=eos_id, forbid=forbid)
    if width == 0:
        return [[g] for g in greedy]
    if width == 1:  # the width-1 search is the greedy pass
        return [[g, g] for g in greedy]
    beams = _search(z_batch, mask_batch, decoder, width, caps, eos_id, forbid)
    return [source + [g] for source, g in zip(beams, greedy)]


def best_hypothesis(pool, alpha: float) -> Hypothesis:
    """Rank a candidate pool by log_prob / lp(len), finished hypotheses first."""
    finished = [h for h in pool if h.finished]
    return min(
        finished or pool,
        key=lambda h: (-h.log_prob / length_penalty(len(h.tokens), alpha), h.tokens),
    )


def ar_beam_search(z, src_pad_mask, decoder, cfg: DecodeConfig, *,
                   eos_id: int = DEFAULT_EOS, forbid=()) -> Hypothesis:
    """Beam search of one source: ar_beam_pools on a batch of one, then ranked.

    Width 0 falls back to greedy. The greedy rollout always joins the final
    candidate pool, so at alpha = 0 the returned raw score can never fall
    below greedy's. The length penalty applies to the final ranking,
    finished or not.
    """
    (pool,) = ar_beam_pools([z], [src_pad_mask], decoder, cfg.beam_width, cfg.max_len,
                            eos_id=eos_id, forbid=forbid)
    return best_hypothesis(pool, cfg.alpha)
