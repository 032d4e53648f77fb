"""Encoder and decoder attention stacks.

The encoder self-attends over embedded frame sequences and exposes a linear
projection to per-frame gloss logits (column 0 is the CTC blank). The decoder
runs causal self-attention over embedded target words, cross-attention over
encoder outputs, and projects to word logits. Residual order is post-norm:
sublayer, then add, then layer norm, with one extra norm closing each stack.

Activations between attention sites are packed real rows, (N, d): the
positions a Rows layout marks real, in row-major order, so a ragged batch's
projections, feed-forward layers and layer norms compute no padded position.
Only attention sees the padded (..., S, d) layout: each site scatters its
queries, keys and values into it (one row scatter each, whose padded rows
are zeros) and gathers the weighted values back out before the output
projection. With nothing padded, as for a single sequence or a cached decode
step, the scatter and the gather are reshapes. Every stack is given its
input's layout, and every attention site its projected heads. Disallowed
attention logits are filled with a large negative constant rather than -inf so
every stored value stays finite; the fill underflows to an exact zero weight
after softmax, which keeps masking bitwise-exact and keeps padded keys from
reaching any real row.

On the tape, the scores, mask fill, softmax, attention dropout and weighting
of the values are one `autodiff.attention` node per attention site, and each
residual add is taken by the layer norm that follows it (`residual=`). Both
give the bits of the separate ops they replace.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError

MASK_FILL = -1e30
DEFAULT_D_FF = 2048


class Rows:
    """Where the real positions of a padded (..., S) layout sit.

    mask[..., s] is true at real positions. Packed rows are those positions
    in row-major order, (N, f); index holds their flat positions, or None
    when every position is real, and then packing and unpacking are
    reshapes. One Rows serves every layer of a batch's stack.
    """

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)
        real = self.mask.ravel()
        self.index = None if real.all() else np.flatnonzero(real)

    @property
    def positions(self) -> np.ndarray:
        """Each packed row's position within its sequence, (N,)."""
        return np.nonzero(self.mask)[-1]

    def pack(self, a) -> np.ndarray:
        """A constant (..., S, *f) array's real rows, (N, *f); records nothing."""
        a = np.asarray(a)
        flat = a.reshape(-1, *a.shape[self.mask.ndim:])
        return flat if self.index is None else flat[self.index]

    def gather(self, x: Tensor) -> Tensor:
        """(..., S, f) -> the packed real rows (N, f)."""
        if self.index is None:
            return x.reshape((-1, x.shape[-1]))
        return ad.gather_rows(x, self.index)

    def scatter(self, x: Tensor) -> Tensor:
        """Packed rows (N, f) -> (..., S, f), with zeros at padded positions."""
        if self.index is None:
            return x.reshape((*self.mask.shape, x.shape[-1]))
        return ad.scatter_rows(x, self.index, self.mask.shape)


class NormParams(ad.Params):
    """Learnable gain and bias for one layer-norm site."""

    def __init__(self, d: int):
        self.gain = ad.ones(d)
        self.bias = ad.zeros(d)


class Linear(ad.Params):
    """An affine projection's (d_in, d_out) weight and (d_out,) bias."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = ad.xavier_uniform((d_in, d_out), rng)
        self.bias = ad.zeros(d_out)


class AttentionParams(ad.Params):
    """Projection weights for one multi-head attention site.

    The per-head query/key/value projections are stored as single d x d
    matrices; head h owns the column slice [h*d/H, (h+1)*d/H).
    """

    def __init__(self, d: int, n_heads: int, rng: np.random.Generator):
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


class FeedForwardParams(ad.Params):
    """Two-layer position-wise FFN, d -> d_ff -> d with ReLU between."""

    def __init__(self, d: int, d_ff: int, rng: np.random.Generator):
        self.w1 = ad.xavier_uniform((d, d_ff), rng)
        self.b1 = ad.zeros(d_ff)
        self.w2 = ad.xavier_uniform((d_ff, d), rng)
        self.b2 = ad.zeros(d)


def _split_heads(x: Tensor, n_heads: int, rows: Rows) -> Tensor:
    """Packed rows (N, d) -> (..., H, S, d/H) in the padded layout of rows, zero at pads."""
    if rows.index is not None:
        x = ad.scatter_rows(x, rows.index, rows.mask.shape)
    x = x.reshape((*rows.mask.shape, n_heads, x.shape[-1] // n_heads))
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return x.transpose(axes)


def _merge_heads(x: Tensor, rows: Rows) -> Tensor:
    """(..., H, S, d/H) in the padded layout of rows -> packed real rows (N, d)."""
    axes = list(range(x.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    x = x.transpose(axes)
    *lead, s, h, dh = x.shape
    if rows.index is None:
        return x.reshape((-1, h * dh))
    return ad.gather_rows(x.reshape((*lead, s, h * dh)), rows.index)


def _queries(x: Tensor, rows: Rows, attn: AttentionParams) -> Tensor:
    """One attention site's queries of packed rows x (N, d), (..., H, Q, d/H)."""
    return _split_heads(ad.linear(x, attn.wq, attn.bq), attn.n_heads, rows)


def _keys_values(x: Tensor, rows: Rows, attn: AttentionParams) -> tuple[Tensor, Tensor]:
    """One attention site's keys and values of packed rows x (N, d), each (..., H, K, d/H)."""
    k = _split_heads(ad.linear(x, attn.wk, attn.bk), attn.n_heads, rows)
    v = _split_heads(ad.linear(x, attn.wv, attn.bv), attn.n_heads, rows)
    return k, v


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask,
    attn: AttentionParams,
    rows: Rows,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """Scaled dot-product attention with H heads, from projected heads to packed rows.

    q holds the queries, (..., H, Q, d/H), in the padded layout of rows; k
    and v hold the keys and values, each (..., H, K, d/H) (_queries and
    _keys_values project them from packed rows; a DecoderCache holds them
    for the positions it keeps). Returns the packed (N, d) output rows, one
    per real query position of rows.

    mask[..., q, k] true means query position q may attend to key position
    k. It is a boolean (..., Q, K) array, or one of rank >= 2 that
    broadcasts to that, or None for unrestricted attention; it gains the
    head axis here. Nothing here checks it: every query row must keep at
    least one key, and the stack that builds a mask checks that once
    (_key_mask).

    The heads' scaled scores, mask fill, softmax, dropout (in training) and
    weighted values are one autodiff.attention node.
    """
    dh = attn.d // attn.n_heads
    fill = None if mask is None else ~mask[..., None, :, :]  # (..., 1, Q, K)
    ctx = _merge_heads(ad.attention(
        q, k, v, 1.0 / np.sqrt(dh), fill, MASK_FILL,
        dropout_rate=dropout_rate if train else 0.0, rng=rng,
    ), rows)
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


class EncoderBlock(ad.Params):
    def __init__(self, d: int, n_heads: int, d_ff: int, rng: np.random.Generator):
        self.attn = AttentionParams(d, n_heads, rng)
        self.ffn = FeedForwardParams(d, d_ff, rng)
        self.norm1 = NormParams(d)
        self.norm2 = NormParams(d)


class DecoderBlock(ad.Params):
    def __init__(self, d: int, n_heads: int, d_ff: int, rng: np.random.Generator):
        self.self_attn = AttentionParams(d, n_heads, rng)
        self.cross_attn = AttentionParams(d, n_heads, rng)
        self.ffn = FeedForwardParams(d, d_ff, rng)
        self.norm1 = NormParams(d)
        self.norm2 = NormParams(d)
        self.norm3 = NormParams(d)


class EncoderStack(ad.Params):
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
        self.layers = [EncoderBlock(d, n_heads, d_ff, rng) for _ in range(n_layers)]
        self.final_norm = NormParams(d)
        self.gloss_proj = Linear(d, n_gloss_out, rng)


class DecoderStack(ad.Params):
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
        self.layers = [DecoderBlock(d, n_heads, d_ff, rng) for _ in range(n_layers)]
        self.final_norm = NormParams(d)
        self.word_proj = Linear(d, n_words, rng)


def _key_mask(pad_mask) -> np.ndarray | None:
    """Lift a (..., K) mask of real keys to an attention mask (..., 1, K).

    The query axis it gains broadcasts over every query; a mask with every
    key real lifts to None, which fills nothing. This is the one mask check
    of a stack: a row that keeps no key raises ContractError.
    """
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if not np.all(pad_mask.any(axis=-1)):
        raise ContractError("attention mask leaves a query row with no keys")
    return None if pad_mask.all() else pad_mask[..., None, :]


def run_encoder(
    f_hat: Tensor,
    rows: Rows,
    stack: EncoderStack,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """Self-attend embedded frames into contextual representations z.

    f_hat is the packed (N, d) rows of the layout rows; z is packed (N, d)
    rows too. Padded positions are in no key set and no row, so
    representations at real positions never depend on padding content.
    """
    x = f_hat
    mask = _key_mask(rows.mask)
    for block in stack.layers:
        a = multi_head_attention(
            _queries(x, rows, block.attn), *_keys_values(x, rows, block.attn), mask,
            block.attn, rows, train=train, rng=rng, dropout_rate=dropout_rate,
        )
        x = ad.layer_norm(x, block.norm1.gain, block.norm1.bias, residual=a)
        f = _feed_forward(x, block.ffn, train, rng, dropout_rate)
        x = ad.layer_norm(x, block.norm2.gain, block.norm2.bias, residual=f)
    return ad.layer_norm(x, stack.final_norm.gain, stack.final_norm.bias)


def gloss_logits(z: Tensor, stack: EncoderStack) -> Tensor:
    """Per-frame gloss scores; column 0 is reserved for the CTC blank."""
    return ad.linear(z, stack.gloss_proj.weight, stack.gloss_proj.bias)


def _cross_keys_values(z: Tensor, src_rows: Rows, stack: DecoderStack
                       ) -> tuple[list[tuple[Tensor, Tensor]], np.ndarray | None]:
    """Every decoder layer's cross-attention (k, v) of packed source rows z.

    Returns the per-layer pairs, each (B, H, S, d/H) in the padded layout of
    src_rows, and the source key mask lifted and checked once (_key_mask).
    """
    src_mask = _key_mask(src_rows.mask)
    return [_keys_values(z, src_rows, block.cross_attn) for block in stack.layers], src_mask


class DecoderCache:
    """Keys and values that incremental decoding reuses from step to step.

    One cache serves a batch of encoded sources z (B, S, d). Each layer's
    cross-attention keys and values are projected from z once, here, and
    the source key mask is lifted and checked once, here (_key_mask). The
    cache then holds rows, one per hypothesis being extended: `select`
    makes each row continue a row of the call before (before the first
    call, row i is source i), and each run_decoder call appends the
    positions it feeds.

    The cache keeps the self-attention keys and values of every position
    fed, so a decoding step feeds only each row's new position. It also
    holds each layer's self-attention wq|wk|wv as one (d, 3d) matrix and
    bq|bk|bv as one (3d,) bias, joined once, here: a step projects its new
    positions' queries, keys and values with one product per layer. Each
    output column is the same dot product over d as in the separate
    projections. Joining once is safe because a cache is inference only and
    lives for one search, so no weight changes under it; nothing in the
    cache is on a tape.

    Cached logits equal a whole-prefix forward's up to round-off: a step
    projects its rows' new positions as one matrix product, which may run
    on another BLAS kernel than the product over a whole prefix and round
    differently. For the same reason a row's logits depend on how many rows
    share the step, again only up to round-off.
    """

    def __init__(self, z: Tensor, src_pad_mask, stack: DecoderStack):
        src = Rows(src_pad_mask)
        # per layer (k, v), each (B, H, S, d/H); (B, 1, S), or None if nothing is padded
        self._cross, self._src_mask = _cross_keys_values(src.gather(z), src, stack)
        self._in_proj = [  # per layer: (d, 3d) weight, (3d,) bias, heads
            (Tensor(np.concatenate([a.wq.data, a.wk.data, a.wv.data], axis=1)),
             Tensor(np.concatenate([a.bq.data, a.bk.data, a.bv.data])), a.n_heads)
            for a in (block.self_attn for block in stack.layers)
        ]
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
        """Row r now continues row parent_rows[r]; a row may be picked many times.

        When every row continues itself, as at every greedy step until a
        row finishes, nothing is gathered or copied.
        """
        parents = np.asarray(parent_rows, dtype=np.int64)
        if len(parents) == len(self.sources) and np.array_equal(
                parents, np.arange(len(parents))):
            return
        sources = self.sources[parents]
        if not np.array_equal(sources, self.sources):
            self.cross = [(Tensor(k.data[sources]), Tensor(v.data[sources]))
                          for k, v in self._cross]
            self.cross_mask = None if self._src_mask is None else self._src_mask[sources]
        self.sources = sources
        self.self_kv = [(k[parents], v[parents]) for k, v in self.self_kv]

    def extend(self, layer: int, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """One layer's self-attention heads for new positions x, packed (R * U, d).

        Row r's U new positions are rows r * U to r * U + U - 1 of x.
        Returns x's queries (R, H, U, d/H), and the keys and values of the
        kept positions followed by x's, each (R, H, length + U, d/H); it
        keeps those keys and values.
        """
        w, b, n_heads = self._in_proj[layer]
        qkv = ad.linear(x, w, b).data  # (R * U, 3d)
        d3 = qkv.shape[-1]
        heads = qkv.reshape(len(self.sources), -1, 3, n_heads, d3 // (3 * n_heads))
        q, new_k, new_v = heads.transpose(2, 0, 3, 1, 4)  # each (R, H, U, d/H)
        old_k, old_v = self.self_kv[layer]
        k = np.concatenate([old_k, new_k], axis=-2)
        v = np.concatenate([old_v, new_v], axis=-2)
        self.self_kv[layer] = k, v
        return Tensor(q), Tensor(k), Tensor(v)


def run_decoder(
    m_hat: Tensor,
    rows: Rows,
    z: Tensor | None,
    src_rows: Rows | None,
    stack: DecoderStack,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Causally decode embedded target words against encoder outputs.

    m_hat is the packed (N, d) target rows of the layout rows and z the
    packed source rows of the layout src_rows. Returns packed (N, V) word
    logits. Row u of a sequence's logits depends only on its target rows
    <= u and z, which is what lets one forward pass score a whole shifted
    sequence.

    With a cache, m_hat holds the positions that follow the cache.length
    ones each row keeps, every one real: self-attention also reads the kept
    keys and values, and cross-attention reads the cache's, so z and
    src_rows are unused (pass None).
    """
    x = m_hat
    u = rows.mask.shape[-1]
    if cache is None:
        cross, src_mask = _cross_keys_values(z, src_rows, stack)
        causal = np.tril(np.ones((u, u), dtype=bool))
    else:
        cross, src_mask = cache.cross, cache.cross_mask
        # a one-position step may attend to every kept position; the causal
        # mask keeps each row's own position, so it needs no check
        past = cache.length
        causal = None if u == 1 else np.tril(np.ones((u, past + u), dtype=bool), k=past)
    for i, block in enumerate(stack.layers):
        qkv = (cache.extend(i, x) if cache is not None else
               (_queries(x, rows, block.self_attn), *_keys_values(x, rows, block.self_attn)))
        a = multi_head_attention(
            *qkv, causal, block.self_attn, rows,
            train=train, rng=rng, dropout_rate=dropout_rate,
        )
        x = ad.layer_norm(x, block.norm1.gain, block.norm1.bias, residual=a)
        c = multi_head_attention(
            _queries(x, rows, block.cross_attn), *cross[i], src_mask, block.cross_attn, rows,
            train=train, rng=rng, dropout_rate=dropout_rate,
        )
        x = ad.layer_norm(x, block.norm2.gain, block.norm2.bias, residual=c)
        f = _feed_forward(x, block.ffn, train, rng, dropout_rate)
        x = ad.layer_norm(x, block.norm3.gain, block.norm3.bias, residual=f)
    h = ad.layer_norm(x, stack.final_norm.gain, stack.final_norm.bias)
    return ad.linear(h, stack.word_proj.weight, stack.word_proj.bias)
