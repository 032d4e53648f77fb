"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations executed while a :class:`Graph` is active are recorded on its
tape (define-by-run); :func:`backward` replays the tape in reverse insertion
order and accumulates gradients into the participating leaves. Without an
active graph every operation is a plain numpy computation, which is what
inference-time code paths use.

The ops are the ones some model path records, and no others: :func:`add`,
:func:`mul`, :func:`neg`, :func:`relu`, :func:`tensor_sum`,
:func:`reshape`, :func:`transpose`, :func:`linear`, :func:`log_softmax`,
:func:`layer_norm`, :func:`attention`, :func:`embedding`,
:func:`gather_rows`, :func:`scatter_rows`, :func:`take_along_last`,
:func:`dropout`, and :func:`custom_op` for the fused losses and batch norm.
:func:`linear` is the fused affine op the model's projections use: one tape
node for ``x @ W + b``, whose backward folds the leading axes into a single
weight-gradient GEMM. :func:`attention` is one node from queries, keys and
values to the weighted values, and :func:`layer_norm` can take a residual
add. The forward arithmetic of :func:`linear`, :func:`layer_norm` and
:func:`attention` is the array kernels of :mod:`signscribe.kernels`
(``affine``, ``layer_norm`` and ``attention_probs``), which the cached
decoder step calls too, off the tape; attention dropout stays in the op.
:func:`add`, :func:`mul` and :func:`linear` build no gradient for a
parent that does not require one. Gradient ownership: :func:`backward`
never writes into a gradient array, and every leaf's ``grad`` owns memory
no other leaf's ``grad`` shares.

:class:`Params` is the base of every parameter group: it names each
parameter by its attribute path, the name it is trained and stored under.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ContractError, DimensionError

_GRAPH_STACK: list["Graph"] = []


def active_graph() -> "Graph | None":
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


class Graph:
    """Recording tape for one forward pass.

    Nodes are the op-output tensors in insertion order, which is a valid
    topological order because an op can only consume already-built tensors.
    A graph and its tensors belong to a single worker; distinct graphs are
    fully independent.
    """

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _GRAPH_STACK.pop()
        assert popped is self, "graphs must be exited in LIFO order"


class Tensor:
    """A dense multi-dimensional float64 array, optionally tracked for autodiff.

    Leaves are tensors created directly (parameters, inputs); op outputs
    additionally carry their parents and a backward closure. ``grad`` is
    populated by :func:`backward` and always matches ``data``'s shape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def is_leaf(self) -> bool:
        return self._backward is None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars and ndarrays are lifted to constant tensors.
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


class Params:
    """A group of parameters, each named by its attribute path.

    named_parameters walks the group's attributes in assignment order: a
    Tensor attribute is a parameter under its attribute name, a nested
    group's parameters are named `attr.name`, and a list's items
    `attr.i` or `attr.i.name`. Nothing else (an int, dict or ndarray) is a
    parameter. The walk runs per model build, save or restore, never per step.
    """

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for attr, value in vars(self).items():
            items = ([(f"{attr}.{i}", v) for i, v in enumerate(value)]
                     if isinstance(value, list) else [(attr, value)])
            for name, v in items:
                if isinstance(v, Tensor):
                    out[name] = v
                elif isinstance(v, Params):
                    out.update((f"{name}.{n}", p) for n, p in v.named_parameters().items())
        return out


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _record(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result, appending it to the active tape when grads are needed."""
    graph = active_graph()
    if graph is not None and any(p.requires_grad for p in parents):
        out = Tensor(out_data, requires_grad=True)
        out._parents = parents
        out._backward = backward_fn
        graph.nodes.append(out)
        return out
    return Tensor(out_data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(graph: Graph, loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Leaves that appear on the tape but do not feed the loss receive zero
    gradients. Replaying is deterministic: fixed node order, fixed
    accumulation order, so repeated calls produce bit-identical grads.

    Gradient arrays are never written to: a parent's first gradient is kept
    as the op returned it (ops may hand one array to several parents) and
    later ones are summed out of place. A leaf whose gradient shares memory
    with one already written out gets a copy, so no two leaves' ``grad``
    alias each other.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(graph.nodes):
        out_grad = grads.pop(id(node), None)
        if out_grad is None or node._backward is None:
            continue
        parent_grads = node._backward(out_grad)
        for parent, pgrad in zip(node._parents, parent_grads):
            if not parent.requires_grad or pgrad is None:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = np.asarray(pgrad, dtype=np.float64)
            else:
                # a sum of 0-d arrays is a NumPy scalar; keep every grad an array
                grads[id(parent)] = np.asarray(acc + pgrad)
    # Write out leaf grads; untouched-but-recorded leaves get zeros.
    seen: set[int] = set()
    owners: set[int] = set()
    for node in graph.nodes:
        for parent in node._parents:
            if parent.requires_grad and parent.is_leaf() and id(parent) not in seen:
                seen.add(id(parent))
                acc = grads.get(id(parent))
                if acc is None:
                    parent.grad = np.zeros_like(parent.data)
                    continue
                owner = acc
                while isinstance(owner.base, np.ndarray):
                    owner = owner.base
                if id(owner) in owners:
                    acc = acc.copy()
                else:
                    owners.add(id(owner))
                parent.grad = acc


# ---------------------------------------------------------------------------
# Elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        return (_unbroadcast(g * b_data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a_data, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _record(-a.data, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    # np.maximum passes NaN through and, with x first, turns -0.0 into 0.0; the
    # backward masks NaN, which fails the comparison
    return _record(np.maximum(a.data, 0.0), (a,), lambda g: (g * mask,))


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    in_shape = a.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _record(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b over the last axis of x, recorded as one node.

    The leading axes of x fold into rows, so the forward is one 2-D GEMM
    plus the bias, and the backward's input and weight gradients one GEMM
    each and its bias gradient one column sum. Over rows of several
    positions the forward is bitwise np.matmul(x, w) + b; over (R, 1, d)
    rows it is one GEMM where np.matmul runs R vector products, and it can
    round differently from them in the last bits.
    """
    if x.ndim < 2 or w.ndim != 2:
        raise DimensionError(
            f"linear needs x of >=2 dims and a 2-d weight, got {x.shape} @ {w.shape}"
        )
    if x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(f"linear shapes disagree: {x.shape} @ {w.shape} + {b.shape}")
    x_data, w_data = x.data, w.data
    out = kernels.affine(x_data, w_data, b.data)

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x_data.reshape(-1, x_data.shape[-1])
        return ((g2 @ w_data.T).reshape(x_data.shape) if x.requires_grad else None,
                x2.T @ g2 if w.requires_grad else None,
                g2.sum(axis=0) if b.requires_grad else None)

    return _record(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# Fused neural-net ops
# ---------------------------------------------------------------------------


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = kernels.LAYER_NORM_EPS,
               *, residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain and bias.

    eps sits inside the square root: y = (x - mu) / sqrt(var + eps) * gain + bias.
    With a residual, the input is x + residual, added in this one node: both
    get the input's gradient, the same array, as an add node would give them.
    """
    d = x.shape[-1]
    if residual is not None and residual.shape != x.shape:
        raise DimensionError(f"layer_norm residual {residual.shape} must match {x.shape}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}"
        )
    gain_data = gain.data
    out, xhat, inv_std = kernels.layer_norm(
        x.data, gain_data, bias.data, eps, None if residual is None else residual.data)

    def bwd(g):
        gg = g * gain_data
        gx = gg - np.add.reduce(gg, axis=-1, keepdims=True) / d
        gg *= xhat
        gx -= xhat * (np.add.reduce(gg, axis=-1, keepdims=True) / d)
        gx *= inv_std
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead) if lead else g * xhat
        dbias = g.sum(axis=lead) if lead else g.copy()
        return (gx, dgain, dbias) if residual is None else (gx, gx, dgain, dbias)

    parents = (x, gain, bias) if residual is None else (x, residual, gain, bias)
    return _record(out, parents, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, fill=None,
              fill_value: float = -1e30, dropout_rate: float = 0.0,
              rng: np.random.Generator | None = None) -> Tensor:
    """Scaled dot-product attention softmax(q @ kᵀ * scale) @ v as one node.

    q is (..., Q, dk), k is (..., K, dk) and v is (..., K, dv), with the same
    leading axes. Where the boolean fill (broadcast to (..., Q, K)) is true,
    the scaled score is replaced by fill_value before the softmax. With a
    dropout rate, the attention weights pass through inverted dropout
    before they weight v. The forward keeps the order of the composed ops
    (matmul, scale, fill, softmax, dropout, matmul), and the backward is
    their closed form, dS = P * (dP - rowsum(dP * P)), so both are bitwise
    what the composed graph computes. That graph's matmul, masked fill and
    softmax are reference ops of the tests, not of this module.
    """
    if not (q.ndim == k.ndim == v.ndim >= 2):
        raise DimensionError(f"attention needs operands of one rank >= 2, got "
                             f"{q.shape}, {k.shape}, {v.shape}")
    if (q.shape[:-2] != k.shape[:-2] or k.shape[:-1] != v.shape[:-1]
            or q.shape[-1] != k.shape[-1]):
        raise DimensionError(f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    q_data, k_data, v_data = q.data, k.data, v.data
    probs = kernels.attention_probs(q_data, k_data, scale, fill, fill_value)
    weights = probs
    if dropout_rate > 0.0:
        factor = (rng.random(probs.shape) >= dropout_rate) * (1.0 / (1.0 - dropout_rate))
        weights = probs * factor
    out = np.matmul(weights, v_data)

    def bwd(g):
        g_weights = np.matmul(g, np.swapaxes(v_data, -1, -2))
        gv = np.matmul(np.swapaxes(weights, -1, -2), g)
        if dropout_rate > 0.0:
            g_weights *= factor
        dot = (probs * g_weights).sum(axis=-1, keepdims=True)
        g_weights -= dot
        g_scores = probs * g_weights
        if fill is not None:
            np.copyto(g_scores, 0.0, where=fill)
        g_scores *= scale
        gq = np.matmul(g_scores, k_data)
        gk = np.swapaxes(np.matmul(np.swapaxes(q_data, -1, -2), g_scores), -1, -2)
        return gq, gk, gv

    return _record(out, (q, k, v), bwd)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup: out[i] = table[indices[i]]. Backward scatter-adds."""
    idx = np.asarray(indices)
    out = table.data[idx]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), bwd)


def _place_rows(rows: np.ndarray, index: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """(N, f) rows at the flat positions index of a zero (*lead, f) array."""
    out = np.zeros((int(np.prod(lead)), rows.shape[-1]))
    out[index] = rows
    return out.reshape(*lead, rows.shape[-1])


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """The rows of x (..., f) at flat positions index, packed as (N, f).

    The leading axes of x fold into rows in C order. The backward is
    scatter_rows: each row's gradient goes back to its position, and the
    rows not gathered get zeros.
    """
    lead = x.shape[:-1]
    out = x.data.reshape(-1, x.shape[-1])[index]
    return _record(out, (x,), lambda g: (_place_rows(g, index, lead),))


def scatter_rows(x: Tensor, index: np.ndarray, lead: tuple[int, ...]) -> Tensor:
    """Packed rows x (N, f) placed at flat positions index of a zero (*lead, f) tensor.

    The backward is gather_rows: the gradient rows at index, packed.
    """
    out = _place_rows(x.data, index, lead)
    return _record(out, (x,), lambda g: (g.reshape(-1, g.shape[-1])[index],))


def take_along_last(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one entry per row along the last axis: out[...] = x[..., indices[...]]."""
    idx = np.asarray(indices)
    out = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        return (gx,)

    return _record(out, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: keep-mask scaled by 1/(1-rate), so eval needs no rescale."""
    if rate <= 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    factor = keep * scale
    return _record(x.data * factor, (x,), lambda g: (g * factor,))


def custom_op(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Record an externally computed op (used for fused losses)."""
    return _record(out_data, parents, backward_fn)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator | None) -> Tensor:
    """Xavier/Glorot uniform init: U(-a, a) with a = sqrt(6/(fan_in+fan_out)).

    rng None draws nothing and gives zeros, for weights about to be overwritten.
    """
    if rng is None:
        return zeros(shape)
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros(shape: tuple[int, ...] | int, requires_grad: bool = True) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: tuple[int, ...] | int, requires_grad: bool = True) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
