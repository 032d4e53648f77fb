"""Recognition and translation losses, per sequence and per batch.

The recognition loss marginalizes frame-level gloss probabilities over every
alignment that collapses to the target gloss sequence (CTC). The translation
loss is word-level cross-entropy over the shifted target sentence. Both are
trained in the log domain, -log p and -sum(log q). The paper writes them as
1 - p and 1 - prod(q); those forms have the same minimizers but vanish
numerically for long sequences.

One CTC lattice recursion gives both the prefix (alpha) and the suffix
(beta) variables: beta is alpha of the mirrored lattice. The recursion runs
on a batch at once: recognition_loss_batch reads the frames padded to
(B, T_max) (the lattice is the one place outside attention where a training
step sees padding), pads the extended targets to (B, 2 * N_max + 1),
mirrors each sample within its own frame count and target length, and
records the whole batch loss as one tape node.
ctc_log_prob is the batch-of-one call of the same recursion. The batch
cross-entropy reads packed rows too: one per real target token.

The per-sequence forms are the oracles the batch forms are checked against:
summing ctc_log_prob terms in batch order reproduces recognition_loss_batch
bit for bit, value and gradient.
LossWeights holds lambda_R and lambda_T; model.batch_losses forms the joint
objective lambda_R * L_R + lambda_T * L_T from the batch forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import GLOSS_BLANK
from .errors import ConfigError, ContractError, DimensionError, VocabularyError


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
        if any(g == GLOSS_BLANK for g in glosses):
            raise ContractError("gloss targets must not contain the blank")
        object.__setattr__(self, "glosses", glosses)
        ext = [GLOSS_BLANK]
        for g in glosses:
            ext.extend((g, GLOSS_BLANK))
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


def _ctc_lattice(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Log-space prefix variables alpha[t, b, s] of B lattices at once.

    emit[t, b, s] is the log-probability of emitting ext[b, s] at frame t. The
    skip transition s-2 -> s is legal only between distinct non-blank labels.
    A cell depends only on earlier frames and lower states, so padding after a
    lattice's last frame or last state never reaches its real cells. NaN
    emissions propagate without a warning; the caller sees a NaN loss.
    """
    n_frames, b, s = emit.shape
    skip_ok = (ext[:, 2:] != GLOSS_BLANK) & (ext[:, 2:] != ext[:, :-2])  # indexed by s - 2
    alpha = np.full((n_frames, b, s), -np.inf)
    alpha[0, :, :2] = emit[0, :, :2]
    step = np.full((b, s), -np.inf)
    skip = np.full((b, s), -np.inf)
    with np.errstate(invalid="ignore"):
        for t in range(1, n_frames):
            prev = alpha[t - 1]
            step[:, 1:] = prev[:, :-1]
            np.copyto(skip[:, 2:], prev[:, :-2], where=skip_ok)
            out = alpha[t]
            np.logaddexp(prev, step, out=out)
            np.logaddexp(out, skip, out=out)
            out += emit[t]
    return alpha


def _ctc_batch(lp: np.ndarray, frame_counts: np.ndarray, targets: list[CtcTarget]):
    """log p(target_b | frames_b) for B feasible members, and its gradient.

    lp is (B, T_max, K); member b uses its first frame_counts[b] frames. The
    extended targets are padded to (B, 2 * N_max + 1). Returns (logp, grad)
    where grad(g) maps the (B,) upstream gradient to a (B, T_max, K) one; a
    member whose logp is not finite gets a zero gradient.
    """
    n_b, t_max, k = lp.shape
    frames = np.asarray(frame_counts, dtype=np.int64)
    states = np.array([2 * t.n + 1 for t in targets], dtype=np.int64)
    s_max = int(states.max())
    ext = np.full((n_b, s_max), GLOSS_BLANK, dtype=np.int64)
    for b, target in enumerate(targets):
        ext[b, : states[b]] = target.extended
    rows = np.arange(n_b)
    emit = np.take_along_axis(lp, ext[:, None, :], axis=2)  # (B, T, S)
    emit = np.ascontiguousarray(emit.transpose(1, 0, 2))  # frame-major for the recursion
    alpha = _ctc_lattice(emit, ext)
    last_t = frames - 1
    # end on the last label or on the closing blank
    last = alpha[last_t, rows, states - 1]
    label = alpha[last_t, rows, np.maximum(states - 2, 0)]
    with np.errstate(invalid="ignore"):
        logp = np.where(states >= 2, np.logaddexp(label, last), last)

    def grad(g: np.ndarray) -> np.ndarray:
        live = np.isfinite(logp)
        # a suffix of a lattice is a prefix of its mirror image: reverse each
        # member's frames within t_b and its states within S_b
        t_grid = np.arange(t_max)[:, None]
        s_grid = np.arange(s_max)[None, :]
        t_rev = np.where(t_grid < frames, last_t - t_grid, t_grid)  # (T, B)
        s_last = states[:, None] - 1
        s_rev = np.where(s_grid <= s_last, s_last - s_grid, s_grid)  # (B, S)
        mirror = (t_rev[:, :, None], rows[None, :, None], s_rev[None, :, :])
        beta = _ctc_lattice(emit[mirror], np.take_along_axis(ext, s_rev, axis=1))[mirror]
        # only real cells of live members count: padded ones can hold -inf - -inf
        real = ((t_grid < frames)[:, :, None] & (s_grid < states[:, None])[None]
                & live[None, :, None])
        # alpha and beta both include the emission at t; drop one copy
        occupancy = alpha[real] + beta[real] - emit[real]
        t_idx, b_idx, s_idx = np.nonzero(real)
        acc = np.full((n_b, t_max, k), -np.inf)
        np.logaddexp.at(acc, (b_idx, t_idx, ext[b_idx, s_idx]), occupancy)
        scale = np.where(live, g, 0.0)[:, None, None]
        return np.exp(acc - np.where(live, logp, 0.0)[:, None, None]) * scale

    return logp, grad


def ctc_log_prob(log_probs, target: CtcTarget) -> Tensor:
    """log p(target | frames) marginalized over all collapse-equivalent paths.

    log_probs holds per-frame log-probabilities with the blank in column 0.
    Infeasible targets (too few frames) give an exact -inf with no gradient.
    This is the batch-of-one call of the lattice recognition_loss_batch runs:
    the prefix recursion over the extended sequence in log space, with the
    backward pass reusing it on the mirrored lattice, recorded as one node.
    """
    x = log_probs if isinstance(log_probs, Tensor) else Tensor(log_probs)
    lp = x.data
    if lp.ndim != 2:
        raise DimensionError(f"expected a T x K log-prob matrix, got shape {x.shape}")
    n_frames, k = lp.shape
    _check_glosses(target, k)
    if not target.feasible(n_frames):
        return Tensor(-np.inf)
    logp, grad = _ctc_batch(lp[None], np.array([n_frames]), [target])
    return ad.custom_op(np.asarray(logp[0]), (x,), lambda g: (grad(np.reshape(g, 1))[0],))


def _check_glosses(target: CtcTarget, k: int) -> None:
    if target.glosses and max(target.glosses) >= k:
        raise VocabularyError(
            f"gloss id {max(target.glosses)} out of range for {k} output columns"
        )


def translation_loss(word_logits: Tensor, reference) -> Tensor:
    """Word-level loss -sum(log q) of a decoded sentence against its reference.

    Row u of word_logits scores the prediction for reference[u]; the
    reference includes the closing end-of-sentence token.
    """
    ref = np.asarray(reference, dtype=np.int64)
    if word_logits.ndim != 2 or word_logits.shape[0] != ref.shape[0]:
        raise DimensionError(
            f"got {word_logits.shape[0] if word_logits.ndim == 2 else word_logits.shape} "
            f"logit rows for {ref.shape[0]} reference tokens"
        )
    logq = ad.log_softmax(word_logits, axis=-1)
    picked = ad.take_along_last(logq, ref)
    return ad.neg(ad.tensor_sum(picked))


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
    targets: list[CtcTarget],
) -> tuple[Tensor | None, list[int]]:
    """Average per-sequence recognition loss -log p over the feasible members.

    gloss_log_probs is (B, T_max, K); frame_counts gives each sample's real
    length. Returns (loss, skipped) where skipped lists the batch indices
    whose targets cannot fit their frame count; loss is None if none fit.
    One lattice serves all feasible members, and the loss is one tape node.
    The per-member terms are summed in batch order, then scaled by 1/n, so
    the value and gradient equal those of summing the per-sequence forms.
    """
    x = gloss_log_probs
    if x.ndim != 3:
        raise DimensionError(f"expected B x T x K log-probs, got shape {x.shape}")
    n_frames, k = x.shape[1:]
    rows: list[int] = []
    counts: list[int] = []
    live_targets: list[CtcTarget] = []
    skipped: list[int] = []
    for i, (t_i, target) in enumerate(zip(frame_counts, targets)):
        t_i = int(t_i)
        if not target.feasible(t_i):
            skipped.append(i)
            continue
        if not 1 <= t_i <= n_frames:
            raise DimensionError(f"sample {i}: {t_i} frames outside 1..{n_frames}")
        _check_glosses(target, k)
        rows.append(i)
        counts.append(t_i)
        live_targets.append(target)
    if not rows:
        return None, skipped

    lp = x.data[rows]
    logp, ctc_grad = _ctc_batch(lp, np.array(counts), live_targets)
    terms = -logp
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    scale = 1.0 / len(rows)

    def bwd(g):
        g_term = g * scale
        g_logp = np.full(len(rows), -g_term)
        gx = np.zeros_like(x.data)
        gx[rows] = ctc_grad(g_logp)
        return (gx,)

    return ad.custom_op(np.asarray(total * scale), (x,), bwd), skipped


def translation_loss_batch(word_logits: Tensor, references) -> Tensor:
    """Batch translation loss: -log q averaged over every real target token.

    word_logits (N, V) and references (N,) hold one row per real target
    token of the batch, packed: padded positions are not passed at all.
    """
    refs = np.asarray(references, dtype=np.int64)
    if refs.ndim != 1:
        raise DimensionError(f"expected packed (N,) references, got shape {refs.shape}")
    if not refs.size:
        raise ContractError("batch contains no real target tokens")
    return translation_loss(word_logits, refs) * (1.0 / refs.size)
