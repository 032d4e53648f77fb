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
projection. With nothing padded, as for a single sequence, the scatter and
the gather are reshapes. Every stack is given its input's layout, and every
attention site its projected heads. Disallowed
attention logits are filled with a large negative constant rather than -inf so
every stored value stays finite; the fill underflows to an exact zero weight
after softmax, which keeps masking bitwise-exact and keeps padded keys from
reaching any real row.

On the tape, the scores, mask fill, softmax, attention dropout and weighting
of the values are one `autodiff.attention` node per attention site, and each
residual add is taken by the layer norm that follows it (`residual=`). Both
give the bits of the separate ops they replace.

A cached decode step (DecoderCache.step) feeds one position per row and
runs off the tape: on plain arrays, with no Rows layout, through the same
forward kernels the tape ops call (`kernels`), so it records nothing and
computes the bits the ops would.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import kernels
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
    _keys_values project them from packed rows). Returns the packed (N, d)
    output rows, one per real query position of rows.

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
    """Incremental decoding of a batch of sources, one new position per row a step.

    One cache serves a batch of encoded sources z (B, S, d). Each layer's
    cross-attention keys and values are projected from z once, here, and
    the source key mask is lifted and checked once, here (_key_mask). The
    cache then holds rows, one per hypothesis being extended: `select`
    makes each row continue a row of the step before (before the first
    step, row i is source i), and `step` feeds each row's new position.

    The cache keeps the self-attention keys and values of every position
    fed, so a step computes only the rows' new positions. It also holds
    each layer's self-attention wq|wk|wv as one (d, 3d) matrix and bq|bk|bv
    as one (3d,) bias, joined once, here: a step projects its new
    positions' queries, keys and values with one product per layer. Each
    output column is the same dot product over d as in the separate
    projections. Joining once is safe because a cache is inference only and
    lives for one search, so no weight changes under it.

    Everything the cache holds is a plain array, and `step` runs on plain
    arrays through the forward kernels of the tape ops (kernels.affine,
    kernels.layer_norm, kernels.attention_probs), so a step records nothing,
    even under an active autodiff.Graph.

    Cached logits equal a whole-prefix forward's up to round-off: a step
    projects its rows' new positions as one matrix product, which may run
    on another BLAS kernel than the product over a whole prefix and round
    differently. For the same reason a row's logits depend on how many rows
    share the step, again only up to round-off.
    """

    def __init__(self, z: Tensor, src_pad_mask, stack: DecoderStack):
        src = Rows(src_pad_mask)
        cross, src_mask = _cross_keys_values(src.gather(z), src, stack)
        self.stack = stack
        self.d = z.shape[-1]
        # per layer (k, v), each (B, H, S, d/H), and the fill of the scores
        # the source padding hides, (B, 1, 1, S), or None if nothing is padded
        self._cross = [(k.data, v.data) for k, v in cross]
        self._cross_fill = None if src_mask is None else ~src_mask[..., None, :, :]
        self._in_proj = [  # per layer: (d, 3d) weight, (3d,) bias
            (np.concatenate([a.wq.data, a.wk.data, a.wv.data], axis=1),
             np.concatenate([a.bq.data, a.bk.data, a.bv.data]))
            for a in (block.self_attn for block in stack.layers)
        ]
        self.sources = np.arange(z.shape[0])  # the source each row decodes
        self.cross = self._cross  # per layer, gathered per row
        self.cross_fill = self._cross_fill
        # per layer, (R, H, length, d/H); no position yet
        self.self_kv = [(k[..., :0, :], v[..., :0, :]) for k, v in self._cross]

    @property
    def length(self) -> int:
        """Positions whose keys and values every row keeps."""
        return self.self_kv[-1][0].shape[-2]

    def select(self, parent_rows) -> None:
        """Row r now continues row parent_rows[r]; a row may be picked many times.

        When every row continues itself, as at every greedy step until a
        row finishes, nothing is gathered or copied. A parent that is no
        row of the step before is a ContractError.
        """
        parents = np.asarray(parent_rows, dtype=np.int64)
        n = len(self.sources)
        if len(parents) == n and np.array_equal(parents, np.arange(n)):
            return
        if parents.ndim != 1 or (parents.size and (parents.min() < 0 or parents.max() >= n)):
            raise ContractError(f"parent rows {parents.tolist()} are not all rows of "
                                f"the {n} the step before kept")
        sources = self.sources[parents]
        if not np.array_equal(sources, self.sources):
            self.cross = [(k[sources], v[sources]) for k, v in self._cross]
            self.cross_fill = None if self._cross_fill is None else self._cross_fill[sources]
        self.sources = sources
        self.self_kv = [(k[parents], v[parents]) for k, v in self.self_kv]

    def step(self, m: np.ndarray) -> np.ndarray:
        """Word logits (R, V) after each row's new position, m (R, d).

        Row r of m is row r's embedded word plus its position vector. The
        step keeps the new positions' self-attention keys and values, and
        needs no causal mask: a new position may attend to every kept one.
        """
        if m.shape != (len(self.sources), self.d):
            raise ContractError(f"a step feeds one (d,) position for each of the "
                                f"{len(self.sources)} rows, got shape {m.shape}")
        x = m
        for i, block in enumerate(self.stack.layers):
            q, k, v = self._self_heads(i, x, block.self_attn.n_heads)
            x = _norm(x, block.norm1, _attend(q, k, v, None, block.self_attn))
            cross = block.cross_attn
            q = kernels.affine(x, cross.wq.data, cross.bq.data)
            # (R, H, 1, d/H), the view _split_heads makes
            q = q.reshape(len(x), 1, cross.n_heads, -1).transpose(0, 2, 1, 3)
            x = _norm(x, block.norm2, _attend(q, *self.cross[i], self.cross_fill, cross))
            ffn = block.ffn
            h = np.maximum(kernels.affine(x, ffn.w1.data, ffn.b1.data), 0.0)
            x = _norm(x, block.norm3, kernels.affine(h, ffn.w2.data, ffn.b2.data))
        final, proj = self.stack.final_norm, self.stack.word_proj
        h = kernels.layer_norm(x, final.gain.data, final.bias.data)[0]
        return kernels.affine(h, proj.weight.data, proj.bias.data)

    def _self_heads(self, layer: int, x: np.ndarray, n_heads: int):
        """One layer's self-attention heads for the new positions x (R, d).

        Returns x's queries (R, H, 1, d/H), and the keys and values of the
        kept positions followed by x's, each (R, H, length + 1, d/H); it
        keeps those keys and values.
        """
        w, b = self._in_proj[layer]
        qkv = kernels.affine(x, w, b)  # (R, 3d)
        heads = qkv.reshape(len(x), 1, 3, n_heads, -1)
        q, new_k, new_v = heads.transpose(2, 0, 3, 1, 4)  # each (R, H, 1, d/H)
        old_k, old_v = self.self_kv[layer]
        k = np.concatenate([old_k, new_k], axis=-2)
        v = np.concatenate([old_v, new_v], axis=-2)
        self.self_kv[layer] = k, v
        return q, k, v


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, fill,
            attn: AttentionParams) -> np.ndarray:
    """A step's attention output rows (R, d) from heads q (R, H, 1, d/H) and k, v.

    The arithmetic of multi_head_attention without dropout: the heads'
    weighted values, merged, then the output projection.
    """
    probs = kernels.attention_probs(q, k, 1.0 / np.sqrt(attn.d // attn.n_heads), fill,
                                    MASK_FILL)
    ctx = np.matmul(probs, v).transpose(0, 2, 1, 3)  # (R, 1, H, d/H)
    return kernels.affine(ctx.reshape(len(ctx), -1), attn.wo.data, attn.bo.data)


def _norm(x: np.ndarray, norm: NormParams, residual: np.ndarray) -> np.ndarray:
    return kernels.layer_norm(x, norm.gain.data, norm.bias.data, residual=residual)[0]


def run_decoder(
    m_hat: Tensor,
    rows: Rows,
    z: Tensor,
    src_rows: Rows,
    stack: DecoderStack,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """Causally decode embedded target words against encoder outputs, teacher-forced.

    m_hat is the packed (N, d) target rows of the layout rows and z the
    packed source rows of the layout src_rows. Returns packed (N, V) word
    logits. Row u of a sequence's logits depends only on its target rows
    <= u and z, which is what lets one forward pass score a whole shifted
    sequence. Incremental decoding, one position at a time, is
    DecoderCache.step, which runs on plain arrays and records nothing.
    """
    x = m_hat
    u = rows.mask.shape[-1]
    cross, src_mask = _cross_keys_values(z, src_rows, stack)
    causal = np.tril(np.ones((u, u), dtype=bool))
    for i, block in enumerate(stack.layers):
        a = multi_head_attention(
            _queries(x, rows, block.self_attn), *_keys_values(x, rows, block.self_attn),
            causal, block.self_attn, rows, train=train, rng=rng, dropout_rate=dropout_rate,
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
