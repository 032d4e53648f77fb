"""Encoder and decoder attention stacks.

The encoder self-attends over embedded frame sequences and exposes a linear
projection to per-frame gloss logits (column 0 is the CTC blank). The decoder
runs causal self-attention over embedded target words, cross-attention over
encoder outputs, and projects to word logits. Residual order is post-norm:
sublayer, then add, then layer norm, with one extra norm closing each stack.

All forwards accept a single sequence (S, d) or a batch (B, S, d). Disallowed
attention logits are filled with a large negative constant rather than -inf so
every stored value stays finite; the fill underflows to an exact zero weight
after softmax, which keeps masking bitwise-exact.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError

MASK_FILL = -1e30
DEFAULT_D_FF = 2048


class NormParams:
    """Learnable gain and bias for one layer-norm site."""

    def __init__(self, d: int):
        self.gain = ad.ones(d)
        self.bias = ad.zeros(d)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "gain", self.gain
        yield "bias", self.bias


class AttentionParams:
    """Projection weights for one multi-head attention site.

    The per-head query/key/value projections are stored as single d x d
    matrices; head h owns the column slice [h*d/H, (h+1)*d/H).
    """

    def __init__(self, d: int, n_heads: int, rng: np.random.Generator):
        if d % n_heads != 0:
            raise ConfigError(f"model dimension {d} not divisible by {n_heads} heads")
        self.d = d
        self.n_heads = n_heads
        self.wq = ad.xavier_uniform((d, d), rng)
        self.bq = ad.zeros(d)
        self.wk = ad.xavier_uniform((d, d), rng)
        self.bk = ad.zeros(d)
        self.wv = ad.xavier_uniform((d, d), rng)
        self.bv = ad.zeros(d)
        self.wo = ad.xavier_uniform((d, d), rng)
        self.bo = ad.zeros(d)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            yield name, getattr(self, name)


class FeedForwardParams:
    """Two-layer position-wise FFN, d -> d_ff -> d with ReLU between."""

    def __init__(self, d: int, d_ff: int, rng: np.random.Generator):
        self.w1 = ad.xavier_uniform((d, d_ff), rng)
        self.b1 = ad.zeros(d_ff)
        self.w2 = ad.xavier_uniform((d_ff, d), rng)
        self.b2 = ad.zeros(d)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name in ("w1", "b1", "w2", "b2"):
            yield name, getattr(self, name)


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., S, d) -> (..., H, S, d/H)."""
    *lead, s, d = x.shape
    x = x.reshape((*lead, s, n_heads, d // n_heads))
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return x.transpose(axes)


def _merge_heads(x: Tensor) -> Tensor:
    """(..., H, S, d/H) -> (..., S, d)."""
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    x = x.transpose(axes)
    *lead, s, h, dh = x.shape
    return x.reshape((*lead, s, h * dh))


def _project_keys_values(keys_values: Tensor, attn: AttentionParams) -> tuple[Tensor, Tensor]:
    """One attention site's keys and values of a (..., K, d) input, each (..., H, K, d/H)."""
    k = _split_heads(ad.linear(keys_values, attn.wk, attn.bk), attn.n_heads)
    v = _split_heads(ad.linear(keys_values, attn.wv, attn.bv), attn.n_heads)
    return k, v


def _checked_mask(mask) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if not np.all(mask.any(axis=-1)):
        raise ContractError("attention mask leaves a query row with no keys")
    return mask


def multi_head_attention(
    queries: Tensor,
    keys_values,
    mask,
    attn: AttentionParams,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """Scaled dot-product attention with H heads.

    keys_values is the (..., K, d) input to attend over, or its keys and
    values already projected and split into heads, as a (k, v) pair of
    (..., H, K, d/H) tensors (a DecoderCache holds such pairs).

    mask[q, k] true means query position q may attend to key position k; it
    may be (Q, K), (B, Q, K), or anything broadcastable to that, or None for
    unrestricted attention. Every query row must keep at least one key; a
    mask that comes with a projected pair is not checked again, as whoever
    projected the pair checked it then.
    """
    projected = isinstance(keys_values, tuple)
    if mask is not None and not projected:
        mask = _checked_mask(mask)

    dh = attn.d // attn.n_heads
    q = _split_heads(ad.linear(queries, attn.wq, attn.bq), attn.n_heads)
    k, v = keys_values if projected else _project_keys_values(keys_values, attn)

    kt_axes = list(range(k.ndim))
    kt_axes[-2], kt_axes[-1] = kt_axes[-1], kt_axes[-2]
    logits = ad.matmul(q, k.transpose(kt_axes)) * (1.0 / np.sqrt(dh))
    if mask is not None:
        fill = ~mask
        if fill.ndim == 3:  # (B, Q, K) gains a head axis
            fill = fill[:, None]
        logits = ad.masked_fill(logits, fill, MASK_FILL)
    weights = ad.softmax(logits, axis=-1)
    if train and dropout_rate > 0.0:
        weights = ad.dropout(weights, dropout_rate, rng)
    ctx = _merge_heads(ad.matmul(weights, v))
    return ad.linear(ctx, attn.wo, attn.bo)


def _feed_forward(
    x: Tensor,
    ffn: FeedForwardParams,
    train: bool,
    rng: np.random.Generator | None,
    dropout_rate: float,
) -> Tensor:
    h = ad.relu(ad.linear(x, ffn.w1, ffn.b1))
    if train and dropout_rate > 0.0:
        h = ad.dropout(h, dropout_rate, rng)
    return ad.linear(h, ffn.w2, ffn.b2)


class EncoderBlock:
    def __init__(self, d: int, n_heads: int, d_ff: int, rng: np.random.Generator):
        self.attn = AttentionParams(d, n_heads, rng)
        self.ffn = FeedForwardParams(d, d_ff, rng)
        self.norm1 = NormParams(d)
        self.norm2 = NormParams(d)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for sub in ("attn", "ffn", "norm1", "norm2"):
            for name, p in getattr(self, sub).named_parameters():
                yield f"{sub}.{name}", p


class DecoderBlock:
    def __init__(self, d: int, n_heads: int, d_ff: int, rng: np.random.Generator):
        self.self_attn = AttentionParams(d, n_heads, rng)
        self.cross_attn = AttentionParams(d, n_heads, rng)
        self.ffn = FeedForwardParams(d, d_ff, rng)
        self.norm1 = NormParams(d)
        self.norm2 = NormParams(d)
        self.norm3 = NormParams(d)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for sub in ("self_attn", "cross_attn", "ffn", "norm1", "norm2", "norm3"):
            for name, p in getattr(self, sub).named_parameters():
                yield f"{sub}.{name}", p


class EncoderStack:
    """L encoder blocks, a closing layer norm, and the gloss projection."""

    def __init__(
        self,
        n_layers: int,
        d: int,
        n_heads: int,
        d_ff: int,
        n_gloss_out: int,
        rng: np.random.Generator,
    ):
        if n_layers < 1:
            raise ConfigError(f"encoder needs at least one layer, got {n_layers}")
        self.d = d
        self.blocks = [EncoderBlock(d, n_heads, d_ff, rng) for _ in range(n_layers)]
        self.final_norm = NormParams(d)
        self.gloss_w = ad.xavier_uniform((d, n_gloss_out), rng)
        self.gloss_b = ad.zeros(n_gloss_out)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for i, block in enumerate(self.blocks):
            for name, p in block.named_parameters():
                yield f"layers.{i}.{name}", p
        for name, p in self.final_norm.named_parameters():
            yield f"final_norm.{name}", p
        yield "gloss_proj.weight", self.gloss_w
        yield "gloss_proj.bias", self.gloss_b


class DecoderStack:
    """L decoder blocks, a closing layer norm, and the word projection."""

    def __init__(
        self,
        n_layers: int,
        d: int,
        n_heads: int,
        d_ff: int,
        n_words: int,
        rng: np.random.Generator,
    ):
        if n_layers < 1:
            raise ConfigError(f"decoder needs at least one layer, got {n_layers}")
        self.d = d
        self.blocks = [DecoderBlock(d, n_heads, d_ff, rng) for _ in range(n_layers)]
        self.final_norm = NormParams(d)
        self.word_w = ad.xavier_uniform((d, n_words), rng)
        self.word_b = ad.zeros(n_words)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for i, block in enumerate(self.blocks):
            for name, p in block.named_parameters():
                yield f"layers.{i}.{name}", p
        for name, p in self.final_norm.named_parameters():
            yield f"final_norm.{name}", p
        yield "word_proj.weight", self.word_w
        yield "word_proj.bias", self.word_b


def _key_mask(pad_mask, batched: bool):
    """Lift a real-position mask over keys to an attention mask shape."""
    if pad_mask is None:
        return None
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if batched:
        return pad_mask[:, None, :]  # (B, 1, K), broadcasts over queries
    return pad_mask[None, :]  # (1, K)


def run_encoder(
    f_hat: Tensor,
    pad_mask,
    stack: EncoderStack,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """Self-attend embedded frames into contextual representations z.

    Padded positions are excluded from every key set, so representations at
    real positions never depend on padding content.
    """
    batched = f_hat.ndim == 3
    mask = _key_mask(pad_mask, batched)
    x = f_hat
    for block in stack.blocks:
        a = multi_head_attention(
            x, x, mask, block.attn, train=train, rng=rng, dropout_rate=dropout_rate
        )
        x = ad.layer_norm(x + a, block.norm1.gain, block.norm1.bias)
        f = _feed_forward(x, block.ffn, train, rng, dropout_rate)
        x = ad.layer_norm(x + f, block.norm2.gain, block.norm2.bias)
    return ad.layer_norm(x, stack.final_norm.gain, stack.final_norm.bias)


def gloss_logits(z: Tensor, stack: EncoderStack) -> Tensor:
    """Per-frame gloss scores; column 0 is reserved for the CTC blank."""
    return ad.linear(z, stack.gloss_w, stack.gloss_b)


class DecoderCache:
    """Keys and values that incremental decoding reuses from step to step.

    One cache serves a batch of encoded sources z (B, S, d). Each layer's
    cross-attention keys and values are projected from z once, here, and
    the key mask is checked once, here. The cache then holds rows, one per
    hypothesis being extended: `select` makes each row continue a row of
    the call before (before the first call, row i is source i), and each
    run_decoder call appends the positions it feeds.

    The cache keeps the self-attention keys and values of every position
    fed, so a decoding step feeds only each row's new position. Cached
    logits equal a whole-prefix forward's up to round-off: a one-row
    product may run on another BLAS kernel than the matrix product over the
    prefix, and round differently. Inference only: nothing in the cache is
    on a tape.
    """

    def __init__(self, z: Tensor, src_pad_mask, stack: DecoderStack):
        self._src_mask = _checked_mask(_key_mask(src_pad_mask, True))  # (B, 1, S)
        self._cross = [_project_keys_values(z, block.cross_attn) for block in stack.blocks]
        self.sources = np.arange(z.shape[0])  # the source each row decodes
        self.cross = self._cross  # per layer, gathered per row
        self.cross_mask = self._src_mask
        # per layer, (R, H, length, d/H); no position yet
        self.self_kv = [(k.data[..., :0, :], v.data[..., :0, :]) for k, v in self._cross]

    @property
    def length(self) -> int:
        """Positions whose keys and values every row keeps."""
        return self.self_kv[-1][0].shape[-2]

    def select(self, parent_rows) -> None:
        """Row r now continues row parent_rows[r]; a row may be picked many times."""
        parents = np.asarray(parent_rows, dtype=np.int64)
        sources = self.sources[parents]
        if not np.array_equal(sources, self.sources):
            self.cross = [(Tensor(k.data[sources]), Tensor(v.data[sources]))
                          for k, v in self._cross]
            self.cross_mask = self._src_mask[sources]
        self.sources = sources
        self.self_kv = [(k[parents], v[parents]) for k, v in self.self_kv]

    def extend(self, layer: int, x: Tensor, attn: AttentionParams) -> tuple[Tensor, Tensor]:
        """One layer's keys and values for attending from new positions x (R, U, d).

        Returns the kept positions' followed by x's, and keeps them all.
        """
        new_k, new_v = _project_keys_values(x, attn)
        old_k, old_v = self.self_kv[layer]
        k = np.concatenate([old_k, new_k.data], axis=-2)
        v = np.concatenate([old_v, new_v.data], axis=-2)
        self.self_kv[layer] = k, v
        return Tensor(k), Tensor(v)


def run_decoder(
    m_hat: Tensor,
    z: Tensor,
    src_pad_mask,
    stack: DecoderStack,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Causally decode embedded target words against encoder outputs.

    Row u of the returned word logits depends only on target rows <= u and z,
    which is what lets one forward pass score a whole shifted sequence.

    With a cache, m_hat (R, U, d) holds the positions that follow the
    cache.length ones each row keeps: self-attention also reads the kept
    keys and values, and cross-attention reads the cache's, so z and
    src_pad_mask are unused.
    """
    batched = m_hat.ndim == 3
    u = m_hat.shape[-2]
    past = 0 if cache is None else cache.length
    causal = np.tril(np.ones((u, past + u), dtype=bool), k=past)
    src_mask = _key_mask(src_pad_mask, batched) if cache is None else cache.cross_mask
    x = m_hat
    for i, block in enumerate(stack.blocks):
        keys = x if cache is None else cache.extend(i, x, block.self_attn)
        a = multi_head_attention(
            x, keys, causal, block.self_attn, train=train, rng=rng, dropout_rate=dropout_rate
        )
        x = ad.layer_norm(x + a, block.norm1.gain, block.norm1.bias)
        c = multi_head_attention(
            x, z if cache is None else cache.cross[i], src_mask, block.cross_attn,
            train=train, rng=rng, dropout_rate=dropout_rate,
        )
        x = ad.layer_norm(x + c, block.norm2.gain, block.norm2.bias)
        f = _feed_forward(x, block.ffn, train, rng, dropout_rate)
        x = ad.layer_norm(x + f, block.norm3.gain, block.norm3.bias)
    h = ad.layer_norm(x, stack.final_norm.gain, stack.final_norm.bias)
    return ad.linear(h, stack.word_w, stack.word_b)
