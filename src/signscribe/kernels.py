"""Forward kernels on plain float64 arrays.

These are the forward arithmetic of the tape ops `autodiff.linear`,
`autodiff.layer_norm` and `autodiff.attention`, and of the cached decoder
step, which records nothing (`transformer.DecoderCache.step`). Both call
them, so the two compute the same bits from the same arrays. Nothing here
checks shapes or records anything: the ops check their operands, and the
decoder step builds its own.
"""

from __future__ import annotations

import numpy as np

LAYER_NORM_EPS = 1e-6


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b over the last axis of x, as one 2-D GEMM over x's folded leading axes."""
    out = x.reshape(-1, x.shape[-1]) @ w
    out += b  # the same sum as (x @ w) + b, without a second output array
    return out.reshape(*x.shape[:-1], w.shape[1])


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               eps: float = LAYER_NORM_EPS, residual: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x + residual - mu) / sqrt(var + eps) * gain + bias over the last axis.

    Returns the output, the normalized input xhat and 1 / sqrt(var + eps),
    the two the op's backward reads.
    """
    d = x.shape[-1]
    xs = x if residual is None else x + residual
    # np.add.reduce(...) / d is the sum and division ndarray.mean makes, so the
    # same bits, without its Python wrapper; var is np.var's mean of squares
    xhat = xs - np.add.reduce(xs, axis=-1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = xhat * gain
    out += bias
    return out, xhat, inv_std


def attention_probs(q: np.ndarray, k: np.ndarray, scale: float, fill=None,
                    fill_value: float = -1e30) -> np.ndarray:
    """softmax(q @ kᵀ * scale) over the keys, (..., Q, K).

    Where the boolean fill (broadcast to (..., Q, K)) is true, the scaled
    score is replaced by fill_value before the softmax. The weighted values
    are np.matmul(probs, v).
    """
    probs = np.matmul(q, np.swapaxes(k, -1, -2))
    probs *= scale
    if fill is not None:
        np.copyto(probs, fill_value, where=fill)
    # the softmax, in place
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs
