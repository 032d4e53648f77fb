"""Recognition and translation losses, per sequence and per batch.

The recognition loss marginalizes frame-level gloss probabilities over every
alignment that collapses to the target gloss sequence (CTC). The translation
loss is word-level cross-entropy over the shifted target sentence. Both have
two modes: the one-minus-prob forms 1 - p and 1 - prod(q), and log-domain
forms -log p and -sum(log q). The linear forms vanish numerically for long
sequences, so log-domain is the default; the minimizers are identical.

One CTC lattice recursion gives both the prefix (alpha) and the suffix
(beta) variables: beta is alpha of the mirrored lattice.

The per-sequence forms are the oracles the batch forms are checked against.
LossWeights holds lambda_R and lambda_T; model.batch_losses forms the joint
objective lambda_R * L_R + lambda_T * L_T from the batch forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError, VocabularyError

BLANK = 0

MODES = ("log-domain", "one-minus-prob")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(f"unknown loss mode {mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class CtcTarget:
    """A gloss sequence plus its blank-interleaved extension.

    extended[even] is always the blank, extended[odd] walks the glosses in
    order, so the extension has length 2N+1.
    """

    glosses: tuple[int, ...]
    extended: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        glosses = tuple(int(g) for g in self.glosses)
        if any(g == BLANK for g in glosses):
            raise ContractError("gloss targets must not contain the blank")
        object.__setattr__(self, "glosses", glosses)
        ext = [BLANK]
        for g in glosses:
            ext.extend((g, BLANK))
        object.__setattr__(self, "extended", tuple(ext))

    @property
    def n(self) -> int:
        return len(self.glosses)

    @property
    def min_frames(self) -> int:
        """Shortest frame count that can emit this target.

        Each gloss needs a frame; adjacent repeats additionally need a blank
        frame between them.
        """
        repeats = sum(1 for a, b in zip(self.glosses, self.glosses[1:]) if a == b)
        return self.n + repeats

    def feasible(self, n_frames: int) -> bool:
        return n_frames >= self.min_frames


def _as_target(target) -> CtcTarget:
    return target if isinstance(target, CtcTarget) else CtcTarget(tuple(target))


def _ctc_lattice(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Log-space prefix variables alpha[t, s] over the extended sequence ext.

    emit[t, s] is the log-probability of emitting ext[s] at frame t. The skip
    transition s-2 -> s is legal only between distinct non-blank labels.
    """
    n_frames, s = emit.shape
    skip_ok = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])  # indexed by s - 2
    alpha = np.full((n_frames, s), -np.inf)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        step = np.full(s, -np.inf)
        step[1:] = prev[:-1]
        skip = np.full(s, -np.inf)
        skip[2:] = np.where(skip_ok, prev[:-2], -np.inf)
        alpha[t] = np.logaddexp(np.logaddexp(prev, step), skip) + emit[t]
    return alpha


def ctc_log_prob(log_probs, target) -> Tensor:
    """log p(target | frames) marginalized over all collapse-equivalent paths.

    log_probs holds per-frame log-probabilities with the blank in column 0.
    Infeasible targets (too few frames) give an exact -inf with no gradient.
    The prefix recursion runs over the extended sequence in log space; the
    backward pass reuses it together with the same recursion run on the
    mirrored lattice, so the whole op is recorded as one fused node.
    """
    x = log_probs if isinstance(log_probs, Tensor) else Tensor(log_probs)
    target = _as_target(target)
    lp = x.data
    if lp.ndim != 2:
        raise DimensionError(f"expected a T x K log-prob matrix, got shape {x.shape}")
    n_frames, k = lp.shape
    if target.glosses and max(target.glosses) >= k:
        raise VocabularyError(
            f"gloss id {max(target.glosses)} out of range for {k} output columns"
        )
    if not target.feasible(n_frames):
        return Tensor(-np.inf)

    ext = np.asarray(target.extended)
    s = len(ext)
    emit = lp[:, ext]  # (T, S)
    alpha = _ctc_lattice(emit, ext)
    logp = np.logaddexp.reduce(alpha[-1, -2:])  # end on the last label or blank

    def bwd(g):
        if not np.isfinite(logp):
            return (np.zeros_like(lp),)
        # a suffix of the lattice is a prefix of its mirror image
        beta = _ctc_lattice(emit[::-1, ::-1], ext[::-1])[::-1, ::-1]
        # alpha and beta both include the emission at t; drop one copy
        occupancy = alpha + beta - emit
        acc = np.full((n_frames, k), -np.inf)
        t_idx = np.repeat(np.arange(n_frames), s)
        np.logaddexp.at(acc, (t_idx, np.tile(ext, n_frames)), occupancy.ravel())
        return (np.exp(acc - logp) * g,)

    return ad.custom_op(np.asarray(logp), (x,), bwd)


def recognition_loss(log_p: Tensor, mode: str = "log-domain") -> Tensor:
    """Loss on the marginal gloss-sequence probability; 0 iff p = 1."""
    _check_mode(mode)
    lp = log_p if isinstance(log_p, Tensor) else Tensor(log_p)
    if mode == "one-minus-prob":
        return 1.0 - ad.exp(lp)
    return ad.neg(lp)


def translation_loss(word_logits: Tensor, reference, mode: str = "log-domain") -> Tensor:
    """Word-level loss of a decoded sentence against its reference.

    Row u of word_logits scores the prediction for reference[u]; the
    reference includes the closing end-of-sentence token.
    """
    _check_mode(mode)
    ref = np.asarray(reference, dtype=np.int64)
    if word_logits.ndim != 2 or word_logits.shape[0] != ref.shape[0]:
        raise DimensionError(
            f"got {word_logits.shape[0] if word_logits.ndim == 2 else word_logits.shape} "
            f"logit rows for {ref.shape[0]} reference tokens"
        )
    logq = ad.log_softmax(word_logits, axis=-1)
    picked = ad.take_along_last(logq, ref)
    total = ad.tensor_sum(picked)
    if mode == "one-minus-prob":
        return 1.0 - ad.exp(total)
    return ad.neg(total)


@dataclass(frozen=True)
class LossWeights:
    lambda_r: float
    lambda_t: float

    def __post_init__(self):
        if self.lambda_r < 0 or self.lambda_t < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.lambda_r == 0 and self.lambda_t == 0:
            raise ConfigError("at least one loss weight must be positive")


def recognition_loss_batch(
    gloss_log_probs: Tensor,
    frame_counts,
    targets,
    mode: str = "log-domain",
) -> tuple[Tensor | None, list[int]]:
    """Average per-sequence recognition loss over the feasible batch members.

    gloss_log_probs is (B, T_max, K); frame_counts gives each sample's real
    length. Returns (loss, skipped) where skipped lists the batch indices
    whose targets cannot fit their frame count; loss is None if none fit.
    """
    _check_mode(mode)
    losses = []
    skipped: list[int] = []
    for i, (t_i, raw) in enumerate(zip(frame_counts, targets)):
        target = _as_target(raw)
        if not target.feasible(int(t_i)):
            skipped.append(i)
            continue
        logp = ctc_log_prob(gloss_log_probs[i, : int(t_i)], target)
        losses.append(recognition_loss(logp, mode))
    if not losses:
        return None, skipped
    total = losses[0]
    for term in losses[1:]:
        total = total + term
    return total * (1.0 / len(losses)), skipped


def translation_loss_batch(
    word_logits: Tensor,
    references: np.ndarray,
    pad_id: int,
    mode: str = "log-domain",
) -> Tensor:
    """Batch translation loss.

    Log-domain averages -log q over all non-padded reference tokens; the
    one-minus-prob mode averages the per-sequence 1 - prod(q) over the batch.
    references is (B, U_max) padded with pad_id.
    """
    _check_mode(mode)
    refs = np.asarray(references, dtype=np.int64)
    if word_logits.ndim != 3 or word_logits.shape[:2] != refs.shape:
        raise DimensionError(
            f"word logits {word_logits.shape} do not cover references {refs.shape}"
        )
    real = refs != pad_id
    if not real.any():
        raise ContractError("batch contains no real target tokens")
    logq = ad.log_softmax(word_logits, axis=-1)
    picked = ad.take_along_last(logq, np.where(real, refs, 0))
    picked = ad.masked_fill(picked, ~real, 0.0)
    if mode == "one-minus-prob":
        per_seq = 1.0 - ad.exp(ad.tensor_sum(picked, axis=1))
        return ad.tensor_mean(per_seq)
    return ad.neg(ad.tensor_sum(picked)) * (1.0 / int(real.sum()))
