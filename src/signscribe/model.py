"""The joint recognition-translation model.

One encoder-decoder network serves four training protocols:

    sign2gloss       frames -> encoder -> CTC over glosses
    sign2text        frames -> encoder -> decoder -> words (no CTC)
    sign2gloss+text  frames -> encoder -> both heads, jointly supervised
    gloss2text       gloss tokens -> encoder -> decoder -> words

All components are constructed unconditionally so checkpoints share one
layout; the protocol only selects which forward paths run and which
parameters receive optimizer updates; encode alone picks frames or glosses
as encoder input. The gloss projection spans the full
gloss vocabulary, so its column 0 is the CTC blank and column 1 is the
(never-targeted) gloss pad.

The model exposes the decoding pathway the search routines expect. start
builds a decode state for a batch of encoder outputs, projecting each
decoder layer's cross-attention keys and values once; step grows every
row's prefix by one word and returns the next-word logits, feeding only the
row's newest position against the cached keys and values. prefix_logits_batch
scores the next word after whole bos-free prefixes with one teacher-forced
forward each: it is the oracle the cached steps are tested against (they
agree up to round-off), and prefix_logits is its batch of one.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TEXT_BOS
from .embeddings import SpatialEmbedder, WordEmbedder, positional_encoding
from .errors import ConfigError, ContractError
from .losses import (
    CtcTarget,
    LossWeights,
    recognition_loss_batch,
    translation_loss_batch,
)
from .transformer import (
    DEFAULT_D_FF,
    DecoderCache,
    DecoderStack,
    EncoderStack,
    Rows,
    gloss_logits,
    run_encoder,
    run_decoder,
)

PROTOCOLS = ("sign2gloss", "sign2text", "sign2gloss+text", "gloss2text")

# The three facts that tell the protocols apart: which train the CTC gloss
# head, which train the decoder, and which encode glosses instead of frames.
RECOGNITION = ("sign2gloss", "sign2gloss+text")
TRANSLATION = ("sign2text", "sign2gloss+text", "gloss2text")
GLOSS_INPUT = ("gloss2text",)

# Parameter-name prefixes excluded from optimization, per protocol: the
# decoder and word table unless it translates, the gloss head unless it
# recognizes, and whichever encoder input (frames or glosses) it never reads.
_FROZEN_PREFIXES = {
    protocol: (("decoder.", "words.") if protocol not in TRANSLATION else ())
    + (("encoder.gloss_proj.",) if protocol not in RECOGNITION else ())
    + (("spatial.",) if protocol in GLOSS_INPUT else ("gloss_words.",))
    for protocol in PROTOCOLS
}


def check_sizes(sizes: dict) -> None:
    """The model's build rules, checked for every size in sizes.

    sizes holds d, n_heads and dropout, and may hold more. Each size but
    dropout is a positive int (a bool is not one); d is even, for the
    sine/cosine position table, and splits into n_heads heads; dropout is a
    finite number in [0, 1). A broken rule is a ConfigError naming the field.
    """
    for name, value in sizes.items():
        if name != "dropout" and (type(value) is not int or value < 1):
            raise ConfigError(f"model size {name!r} is not a positive integer: {value!r}")
    d, heads, dropout = sizes["d"], sizes["n_heads"], sizes["dropout"]
    if d % 2:
        raise ConfigError(f"model size 'd' is not even, as the position table needs: {d}")
    if d % heads:
        raise ConfigError(f"model size 'd' does not split into {heads} heads: {d}")
    if (isinstance(dropout, bool) or not isinstance(dropout, (int, float))
            or not 0.0 <= dropout < 1.0):
        raise ConfigError(f"model size 'dropout' is not a number in [0, 1): {dropout!r}")


class JointModel(ad.Params):
    """Spatial/word embedders plus transformer encoder and decoder stacks.

    Its sizes obey check_sizes, which the constructor runs before any draw.
    """

    def __init__(
        self,
        *,
        d_in: int,
        d: int,
        n_heads: int,
        n_enc_layers: int,
        n_dec_layers: int,
        n_glosses: int,
        n_words: int,
        d_ff: int = DEFAULT_D_FF,
        dropout: float = 0.1,
        seed: int | None = 0,
    ):
        """An integer seed draws Xavier-uniform weights; None leaves them zero.

        None is for a model whose every weight is about to be overwritten,
        as when a checkpoint is restored: it skips the draws.
        """
        sizes = {"d_in": d_in, "d": d, "n_heads": n_heads, "n_enc_layers": n_enc_layers,
                 "n_dec_layers": n_dec_layers, "n_glosses": n_glosses, "n_words": n_words,
                 "d_ff": d_ff, "dropout": dropout}
        check_sizes(sizes)
        rng = None if seed is None else np.random.default_rng(seed)
        self.d_in = d_in
        self.d = d
        self.n_glosses = n_glosses
        self.n_words = n_words
        self.dropout = dropout
        self.hyperparams = sizes
        self.spatial = SpatialEmbedder(d_in, d, rng)
        self.gloss_words = WordEmbedder(n_glosses, d, rng)
        self.words = WordEmbedder(n_words, d, rng)
        self.encoder = EncoderStack(n_enc_layers, d, n_heads, d_ff, n_glosses, rng)
        self.decoder = DecoderStack(n_dec_layers, d, n_heads, d_ff, n_words, rng)
        self._pe = np.empty((0, d))

    # -- parameter bookkeeping ---------------------------------------------

    def named_buffers(self) -> dict[str, np.ndarray]:
        """Persistent non-trainable state (batch-norm running statistics).

        Named here, as ndarrays are no parameters: the position table _pe,
        also an ndarray, is never stored.
        """
        return {
            "spatial.bn_running_mean": self.spatial.bn_running_mean,
            "spatial.bn_running_var": self.spatial.bn_running_var,
        }

    def trainable_parameters(self, protocol: str) -> dict[str, Tensor]:
        frozen = _FROZEN_PREFIXES.get(protocol)
        if frozen is None:
            raise ConfigError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
        return {
            name: p
            for name, p in self.named_parameters().items()
            if not name.startswith(frozen)
        }

    # -- forward passes ------------------------------------------------------

    def _positions(self, length: int) -> np.ndarray:
        """Position vectors 0..length-1: rows of one table, regrown to twice a longer need."""
        if length > len(self._pe):
            self._pe = positional_encoding(max(64, 2 * length), self.d).data
        return self._pe[:length]

    def _embed_rows(self, x: Tensor, rows: Rows, train: bool, rng) -> Tensor:
        """Packed embedded rows plus each one's position vector, then dropout."""
        x = x + Tensor(self._positions(rows.mask.shape[-1])[rows.positions])
        if train and self.dropout > 0.0:
            if rng is None:
                raise ContractError("training forward passes need an rng for dropout")
            x = ad.dropout(x, self.dropout, rng)
        return x

    def _encode_frame_rows(self, features, rows: Rows, train: bool, rng) -> Tensor:
        x = ad.as_tensor(features)
        f = self.spatial.embed_batch(rows.gather(x), train=train)
        return run_encoder(self._embed_rows(f, rows, train, rng), rows, self.encoder,
                           train=train, rng=rng, dropout_rate=self.dropout)

    def encode_frames(self, features, src_mask, *, train: bool = False, rng=None) -> Tensor:
        """Frames (..., T, d_in) with pad mask (..., T) -> representations z (..., T, d).

        Only real frames are computed; z is zero at padded frames.
        """
        rows = Rows(src_mask)
        return rows.scatter(self._encode_frame_rows(features, rows, train, rng))

    def _encode_rows(self, batch, protocol: str, *, train: bool = False, rng=None):
        """Encode a Batch from the protocol's input -> (packed z (N, d), its Rows).

        Gloss input reads an empty gloss row as one <pad> token, so every
        row keeps a key to attend to.
        """
        if protocol not in GLOSS_INPUT:
            rows = Rows(batch.src_mask)
            return self._encode_frame_rows(batch.features, rows, train, rng), rows
        mask = batch.gloss_mask.copy()
        mask[:, 0] |= ~mask.any(axis=1)
        rows = Rows(mask)
        m = self._embed_rows(self.gloss_words.embed(rows.pack(batch.gloss_ids)), rows,
                             train, rng)
        return run_encoder(m, rows, self.encoder, train=train, rng=rng,
                           dropout_rate=self.dropout), rows

    def encode(self, batch, protocol: str, *, train: bool = False, rng=None):
        """Encode a Batch from the protocol's input -> (z (B, S, d), key mask)."""
        z, rows = self._encode_rows(batch, protocol, train=train, rng=rng)
        return rows.scatter(z), rows.mask

    def frame_gloss_log_probs(self, z: Tensor) -> Tensor:
        """Per-frame log-distribution over the gloss vocabulary (column 0 = blank)."""
        return ad.log_softmax(gloss_logits(z, self.encoder), axis=-1)

    def _word_rows(self, text_in, rows: Rows, z: Tensor, src_rows: Rows, train: bool,
                   rng) -> Tensor:
        """Packed word logits (N, V) for the real positions of text_in under rows."""
        m = self._embed_rows(self.words.embed(rows.pack(text_in)), rows, train, rng)
        return run_decoder(m, rows, z, src_rows, self.decoder, train=train, rng=rng,
                           dropout_rate=self.dropout)

    def word_logits(self, text_in, z: Tensor, src_mask, *, train: bool = False, rng=None) -> Tensor:
        """Teacher-forced word scores (..., U, V) for shifted target rows (..., U).

        Every target position is read as real; z (..., S, d) is read at the
        real positions of src_mask only.
        """
        text_in = np.asarray(text_in, dtype=np.int64)
        rows = Rows(np.ones(text_in.shape, dtype=bool))
        src_rows = Rows(src_mask)
        return rows.scatter(self._word_rows(text_in, rows, src_rows.gather(z), src_rows,
                                            train, rng))

    # -- decoding pathway ------------------------------------------------------

    def start(self, z_batch, mask_batch) -> DecoderCache:
        """A decode state for sources z_batch, one row per source and no word yet.

        z_batch is a (B, S, d) batch or a list of (S, d) sources. Each
        decoder layer's cross-attention keys and values are projected here,
        once for every step that follows.
        """
        return DecoderCache(Tensor(_stacked(z_batch)), mask_batch, self.decoder)

    def step(self, state: DecoderCache, parent_rows, tokens) -> np.ndarray:
        """Next-word logits after each row's prefix grows by one word.

        Row r continues row parent_rows[r] of the step before, or source
        parent_rows[r] at the first step, and appends tokens[r]. At the
        first step tokens is None: the rows start their sentences, so the
        word fed is <bos>. Each step feeds one position per row, (R, d):
        the word's table row plus the position's row of the position table.
        It runs on plain arrays and records nothing (DecoderCache.step).
        A tokens list of another length than parent_rows, or a parent row
        the step before did not keep, is a ContractError.
        """
        if tokens is not None and len(tokens) != len(parent_rows):
            raise ContractError(f"a step takes one token per parent row, got "
                                f"{len(tokens)} tokens for {len(parent_rows)} rows")
        ids = (np.full(len(parent_rows), TEXT_BOS) if tokens is None
               else self.words.indices(tokens))
        state.select(parent_rows)
        t = state.length
        return state.step(self.words.table.data[ids] + self._positions(t + 1)[t])

    def prefix_logits(self, z, src_mask, prefix) -> np.ndarray:
        """Next-word logits after a bos-free prefix, for one source sequence."""
        return self.prefix_logits_batch([z], [src_mask], [0], [prefix])[0]

    def prefix_logits_batch(self, z_batch, mask_batch, indices, prefixes) -> np.ndarray:
        """Next-word logits for sources z_batch[indices], one prefix each.

        z_batch is a (B, S, d) batch or a list of (S, d) sources; an index
        may repeat, as when several beams extend one source. The prefixes
        share a length, so the rows need no target padding. Each call runs
        the whole teacher-forced forward over [<bos>, *prefix]: this is the
        stateless oracle that start/step must agree with.
        """
        if len(indices) != len(prefixes):
            raise ContractError("one prefix per source index")
        lengths = {len(p) for p in prefixes}
        if len(lengths) > 1:
            raise ContractError("batched prefixes must share a length")
        idx = np.asarray(indices, dtype=np.int64)
        z = Tensor(_stacked(z_batch)[idx])
        mask = np.asarray(mask_batch, dtype=bool)[idx]
        tokens = np.array([[TEXT_BOS, *p] for p in prefixes], dtype=np.int64)
        logits = self.word_logits(tokens, z, mask)
        return np.asarray(logits.data[:, -1, :])


def _stacked(z_batch) -> np.ndarray:
    """Encoder outputs as one (B, S, d) array, from a batch or a list of sources."""
    if isinstance(z_batch, (list, tuple)):
        return np.stack([z.data if isinstance(z, Tensor) else np.asarray(z) for z in z_batch])
    return z_batch.data if isinstance(z_batch, Tensor) else np.asarray(z_batch)


def batch_losses(
    model: JointModel,
    batch,
    weights: LossWeights,
    protocol: str,
    *,
    train: bool = False,
    rng=None,
):
    """Run the protocol's forward paths over one batch.

    Returns (total, recognition, translation, skipped): total is None only
    when every active loss term is unavailable (all CTC targets infeasible
    under a recognition-only protocol); skipped lists batch indices whose
    CTC targets cannot fit their frame counts.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")

    z, src_rows = model._encode_rows(batch, protocol, train=train, rng=rng)

    loss_r = None
    skipped: list[int] = []
    if protocol in RECOGNITION:
        # the lattice reads frames padded to (B, T_max)
        log_p = src_rows.scatter(model.frame_gloss_log_probs(z))
        targets = [
            CtcTarget(tuple(int(g) for g in batch.gloss_ids[i, :n]))
            for i, n in enumerate(batch.gloss_counts)
        ]
        loss_r, skipped = recognition_loss_batch(log_p, batch.frame_counts, targets)

    loss_t = None
    if protocol in TRANSLATION:
        rows = Rows(batch.text_mask)
        logits = model._word_rows(batch.text_in, rows, z, src_rows, train, rng)
        loss_t = translation_loss_batch(logits, rows.pack(batch.text_out))

    parts = []
    if loss_r is not None and weights.lambda_r > 0:
        parts.append(loss_r * weights.lambda_r)
    if loss_t is not None and weights.lambda_t > 0:
        parts.append(loss_t * weights.lambda_t)
    total = None
    for part in parts:
        total = part if total is None else total + part
    return total, loss_r, loss_t, skipped
