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
from .data import TEXT_BOS, TEXT_PAD
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


class JointModel:
    """Spatial/word embedders plus transformer encoder and decoder stacks."""

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
        seed: int = 0,
    ):
        if not 0.0 <= dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {dropout}")
        rng = np.random.default_rng(seed)
        self.d_in = d_in
        self.d = d
        self.n_glosses = n_glosses
        self.n_words = n_words
        self.dropout = dropout
        self.hyperparams = {
            "d_in": d_in,
            "d": d,
            "n_heads": n_heads,
            "n_enc_layers": n_enc_layers,
            "n_dec_layers": n_dec_layers,
            "n_glosses": n_glosses,
            "n_words": n_words,
            "d_ff": d_ff,
            "dropout": dropout,
        }
        self.spatial = SpatialEmbedder(d_in, d, rng)
        self.gloss_words = WordEmbedder(n_glosses, d, rng)
        self.words = WordEmbedder(n_words, d, rng)
        self.encoder = EncoderStack(n_enc_layers, d, n_heads, d_ff, n_glosses, rng)
        self.decoder = DecoderStack(n_dec_layers, d, n_heads, d_ff, n_words, rng)
        self._pe_cache: dict[int, Tensor] = {}

    # -- parameter bookkeeping ---------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {
            "spatial.weight": self.spatial.weight,
            "spatial.bias": self.spatial.bias,
            "spatial.bn_gain": self.spatial.bn_gain,
            "spatial.bn_bias": self.spatial.bn_bias,
            "gloss_words.table": self.gloss_words.table,
            "words.table": self.words.table,
        }
        for name, p in self.encoder.named_parameters():
            out[f"encoder.{name}"] = p
        for name, p in self.decoder.named_parameters():
            out[f"decoder.{name}"] = p
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        """Persistent non-trainable state (batch-norm running statistics)."""
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

    def _positions(self, length: int) -> Tensor:
        pe = self._pe_cache.get(length)
        if pe is None:
            pe = positional_encoding(length, self.d)
            self._pe_cache[length] = pe
        return pe

    def _embed_sequence(self, x: Tensor, train: bool, rng) -> Tensor:
        x = x + self._positions(x.shape[-2])
        if train and self.dropout > 0.0:
            if rng is None:
                raise ContractError("training forward passes need an rng for dropout")
            x = ad.dropout(x, self.dropout, rng)
        return x

    def encode_frames(self, features, src_mask, *, train: bool = False, rng=None) -> Tensor:
        """Frames (B, T, d_in) or (T, d_in) with pad mask -> representations z."""
        x = features if isinstance(features, Tensor) else Tensor(np.asarray(features, dtype=np.float64))
        mask = np.asarray(src_mask, dtype=bool)
        self.spatial.train_mode = train
        if x.ndim == 2:
            f = self.spatial.embed(x)
        else:
            f = self.spatial.embed_batch(x, mask)
        f = self._embed_sequence(f, train, rng)
        return run_encoder(f, mask, self.encoder, train=train, rng=rng,
                           dropout_rate=self.dropout)

    def encode_glosses(self, gloss_ids, src_mask, *, train: bool = False, rng=None) -> Tensor:
        """Gloss token ids (B, N) or (N,) -> representations z (text-input protocol)."""
        m = self.gloss_words.embed(gloss_ids)
        m = self._embed_sequence(m, train, rng)
        return run_encoder(m, np.asarray(src_mask, dtype=bool), self.encoder,
                           train=train, rng=rng, dropout_rate=self.dropout)

    def encode(self, batch, protocol: str, *, train: bool = False, rng=None):
        """Encode a Batch from the protocol's input -> (z, key mask).

        Gloss input reads an empty gloss row as one <pad> token, so every
        row keeps a key to attend to.
        """
        if protocol in GLOSS_INPUT:
            mask = batch.gloss_mask.copy()
            mask[:, 0] |= ~mask.any(axis=1)
            return self.encode_glosses(batch.gloss_ids, mask, train=train, rng=rng), mask
        z = self.encode_frames(batch.features, batch.src_mask, train=train, rng=rng)
        return z, batch.src_mask

    def frame_gloss_log_probs(self, z: Tensor) -> Tensor:
        """Per-frame log-distribution over the gloss vocabulary (column 0 = blank)."""
        return ad.log_softmax(gloss_logits(z, self.encoder), axis=-1)

    def word_logits(self, text_in, z: Tensor, src_mask, *, train: bool = False, rng=None) -> Tensor:
        """Teacher-forced word scores for shifted target rows."""
        m = self.words.embed(text_in)
        m = self._embed_sequence(m, train, rng)
        return run_decoder(m, z, np.asarray(src_mask, dtype=bool), self.decoder,
                           train=train, rng=rng, dropout_rate=self.dropout)

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
        word fed is <bos>. Each step feeds one position per row.
        """
        state.select(parent_rows)
        words = np.full(len(state.sources), TEXT_BOS) if tokens is None else tokens
        t = state.length
        m = self.words.embed(np.asarray(words, dtype=np.int64)[:, None])
        m = m + self._positions(t + 1).data[t]
        logits = run_decoder(m, None, None, self.decoder, cache=state)
        return np.asarray(logits.data[:, -1, :])

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

    z, src_mask = model.encode(batch, protocol, train=train, rng=rng)

    loss_r = None
    skipped: list[int] = []
    if protocol in RECOGNITION:
        log_p = model.frame_gloss_log_probs(z)
        targets = [
            CtcTarget(tuple(int(g) for g in batch.gloss_ids[i, :n]))
            for i, n in enumerate(batch.gloss_counts)
        ]
        loss_r, skipped = recognition_loss_batch(log_p, batch.frame_counts, targets)

    loss_t = None
    if protocol in TRANSLATION:
        logits = model.word_logits(batch.text_in, z, src_mask, train=train, rng=rng)
        loss_t = translation_loss_batch(logits, batch.text_out, TEXT_PAD)

    parts = []
    if loss_r is not None and weights.lambda_r > 0:
        parts.append(loss_r * weights.lambda_r)
    if loss_t is not None and weights.lambda_t > 0:
        parts.append(loss_t * weights.lambda_t)
    total = None
    for part in parts:
        total = part if total is None else total + part
    return total, loss_r, loss_t, skipped
