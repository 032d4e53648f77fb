"""Source and target embeddings.

Frame features go through a linear projection, batch normalization over
every real frame of the batch, and a ReLU. Target words are looked up in a
learned table (a linear layer over one-hot vectors). Both take and return
packed rows, one per real position, and get sinusoidal position vectors
added by the caller before entering the attention stacks.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, VocabularyError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def positional_encoding(length: int, d: int) -> Tensor:
    """Phase-shifted sine/cosine position table for an even d.

    pe[pos, 2i] = sin(pos / 10000^(2i/d)), pe[pos, 2i+1] = cos(pos / 10000^(2i/d)).
    """
    pos = np.arange(length, dtype=np.float64)[:, None]
    inv_freq = 10000.0 ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    angles = pos * inv_freq
    pe = np.empty((length, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return Tensor(pe)


class WordEmbedder(ad.Params):
    """Token-index to vector lookup backed by a |vocab| x d table."""

    def __init__(self, vocab_size: int, d: int, rng: np.random.Generator):
        self.table = ad.xavier_uniform((vocab_size, d), rng)

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    def indices(self, tokens) -> np.ndarray:
        """tokens as an int64 array of table rows; one out of range is a VocabularyError."""
        idx = np.asarray(tokens, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab_size):
            raise VocabularyError(
                f"token index out of range for vocabulary of size {self.vocab_size}"
            )
        return idx

    def embed(self, tokens) -> Tensor:
        return ad.embedding(self.table, self.indices(tokens))


def _batch_norm_time(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch-normalize per feature over the frames x (n, d), every row a real frame.

    The frames are the packed real positions of every sequence in the batch,
    so the statistics cover the batch's time axes and no padding. The
    backward pass carries the full batch-statistic coupling. Returns the
    output with the per-feature mean and variance it normalized with.
    """
    n = x.shape[0]
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = xhat * gain.data + bias.data
    gain_data = gain.data

    def bwd(g):
        gg = g * gain_data
        s1 = gg.sum(axis=0)
        s2 = (gg * xhat).sum(axis=0)
        gx = gg * inv_std
        gx -= inv_std * (s1 / n + xhat * (s2 / n))
        dgain = (g * xhat).sum(axis=0)
        dbias = g.sum(axis=0)
        return gx, dgain, dbias

    return ad.custom_op(out, (x, gain, bias), bwd), mu, var


class SpatialEmbedder(ad.Params):
    """Linear projection + batch norm over the time axis + ReLU for frame features."""

    def __init__(self, d_in: int, d: int, rng: np.random.Generator):
        self.d_in = d_in
        self.weight = ad.xavier_uniform((d_in, d), rng)
        self.bias = ad.zeros(d)
        self.bn_gain = ad.ones(d)
        self.bn_bias = ad.zeros(d)
        self.bn_running_mean = np.zeros(d)
        self.bn_running_var = np.ones(d)
        self.bn_momentum = BN_MOMENTUM
        self.bn_eps = BN_EPS

    def embed_batch(self, frames: Tensor, *, train: bool = False) -> Tensor:
        """A batch's real frames, packed (N, d_in), -> (N, d).

        In training the batch statistics are taken over all N rows, so every
        row must be a real frame, and the running statistics move toward
        them; in evaluation the running statistics normalize.
        """
        if frames.ndim != 2 or frames.shape[-1] != self.d_in:
            raise DimensionError(
                f"expected packed frames (N, {self.d_in}), got shape {frames.shape}"
            )
        h = ad.linear(frames, self.weight, self.bias)
        if train:
            normed, mu, var = _batch_norm_time(h, self.bn_gain, self.bn_bias, self.bn_eps)
            m = self.bn_momentum
            self.bn_running_mean = (1 - m) * self.bn_running_mean + m * mu
            self.bn_running_var = (1 - m) * self.bn_running_var + m * var
        else:
            scale = 1.0 / np.sqrt(self.bn_running_var + self.bn_eps)
            shift = Tensor(-self.bn_running_mean * scale)
            normed = (h * Tensor(scale) + shift) * self.bn_gain + self.bn_bias
        return ad.relu(normed)

    def embed(self, frames, *, train: bool = False) -> Tensor:
        """Single sequence (T, d_in) -> (T, d)."""
        return self.embed_batch(ad.as_tensor(frames), train=train)
