import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import autodiff as ad
from signscribe import data
from signscribe.data import GLOSS_SPECIALS, TEXT_SPECIALS, Sample, Vocabulary
from signscribe.errors import ContractError, DimensionError
from signscribe.evaluation import evaluate_corpus
from signscribe.losses import LossWeights
from signscribe.model import PROTOCOLS, JointModel, batch_losses

from conftest import assert_grad_close, finite_difference_grad, getitem, masked_fill, matmul, softmax


def scalar_loss_grad(build, x0):
    """Analytic grad of a scalar graph built by `build` from a leaf with value x0."""
    x = ad.Tensor(x0, requires_grad=True)
    with ad.Graph() as g:
        loss = build(x)
        ad.backward(g, loss)
    return x.grad, float(loss.data)


# ---------------------------------------------------------------------------
# matmul, a reference op of conftest.py
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = ad.Tensor(np.eye(2))
    b = ad.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_zero():
    out = matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[0.0], [0.0]]))
    assert np.array_equal(out.data, [[0.0]])


def test_matmul_hand_case():
    # [[1,2],[3,4]] @ [[5],[6]] worked by hand: rows dot column.
    out = matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3, 2))
    b = rng.normal(size=(4, 2, 5))
    out = matmul(ad.Tensor(a), ad.Tensor(b)).data
    for i in range(4):
        np.testing.assert_allclose(out[i], a[i] @ b[i], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# softmax (a reference op of conftest.py) and log_softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(ad.Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)


def test_softmax_overflow_safe():
    np.testing.assert_allclose(softmax(ad.Tensor([1000.0, 1000.0])).data, [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    out = softmax(ad.Tensor([0.0, np.log(3.0)])).data
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=9),
)
def test_softmax_sums_to_one(values):
    out = softmax(ad.Tensor(values)).data
    assert np.all(out > 0) or np.isclose(out.sum(), 1.0)
    assert abs(out.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_input():
    out = ad.layer_norm(ad.Tensor([5.0, 5.0]), ad.Tensor([1.0, 1.0]), ad.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.0], atol=1e-9)


def test_layer_norm_two_point():
    # mean 2, population std 1 -> normalized to [-1, 1] at eps=0
    out = ad.layer_norm(ad.Tensor([1.0, 3.0]), ad.Tensor([1.0, 1.0]), ad.Tensor([0.0, 0.0]), eps=0.0)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-12)


def test_layer_norm_affine_dominates():
    out = ad.layer_norm(ad.Tensor([2.0, 9.0]), ad.Tensor([0.0, 0.0]), ad.Tensor([7.0, 7.0]))
    np.testing.assert_allclose(out.data, [7.0, 7.0], atol=1e-15)


def test_layer_norm_normalizes_before_affine():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 8)) * 3 + 2
    out = ad.layer_norm(ad.Tensor(x), ad.ones(8, False), ad.zeros(8, False), eps=1e-14).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-8)


def test_relu_passes_nan_and_zeroes_the_rest():
    x = np.array([np.nan, -0.0, -1.0, 2.0])
    out = ad.relu(ad.Tensor(x)).data
    assert np.isnan(out[0])
    # bitwise what np.where(x > 0, x, 0.0) gives on every non-NaN input
    assert out[1:].tobytes() == np.array([0.0, 0.0, 2.0]).tobytes()
    grad, _ = scalar_loss_grad(lambda t: ad.relu(t).sum(), np.array([-0.0, -1.0, 2.0]))
    assert np.array_equal(grad, [0.0, 0.0, 1.0])


def awkward_values(shape, seed):
    """Random values salted with NaN, +-0.0 and large magnitudes (no overflow in x - max)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 30.0, 1e120], size=shape)
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=3 * max(1, flat.size // 16), replace=False)
    third = len(picks) // 3
    flat[picks[:third]] = np.nan
    flat[picks[third:2 * third]] = 0.0
    flat[picks[2 * third:]] = -0.0
    return x


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_relu_is_bitwise_the_where_formula(seed):
    x = awkward_values((6, 5, 16), seed)
    assert_same_bits(ad.relu(ad.Tensor(x)).data, np.where(x <= 0, 0.0, x))


@pytest.mark.parametrize("seed", range(4))
def test_softmax_is_bitwise_the_exp_over_sum_formula(seed):
    x = awkward_values((6, 5, 16), 10 + seed)
    for axis in (-1, 1):
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        assert_same_bits(softmax(ad.Tensor(x), axis=axis).data,
                         e / e.sum(axis=axis, keepdims=True))


@pytest.mark.parametrize("seed", range(4))
def test_layer_norm_is_bitwise_the_var_formula_forward_and_backward(seed):
    rng = np.random.default_rng(20 + seed)
    x = awkward_values((6, 5, 16), 20 + seed)
    gain, bias, g = rng.normal(size=16), rng.normal(size=16), rng.normal(size=x.shape)
    # the formulas the op used before it centred once and scaled in place
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
    gg = g * gain
    gx = inv_std * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    leaves = [ad.Tensor(v, requires_grad=True) for v in (x, gain, bias)]
    with ad.Graph() as graph:
        out = ad.layer_norm(*leaves)
        ad.backward(graph, (out * ad.Tensor(g)).sum())
    assert_same_bits(out.data, xhat * gain + bias)
    assert_same_bits(leaves[0].grad, gx)
    assert_same_bits(leaves[1].grad, (g * xhat).sum(axis=(0, 1)))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    grad, _ = scalar_loss_grad(lambda x: x.sum(), np.arange(6.0).reshape(2, 3))
    assert np.array_equal(grad, np.ones((2, 3)))


def test_backward_zero_scale_gives_zeros():
    grad, _ = scalar_loss_grad(lambda x: (x * 0.0).sum(), np.arange(4.0))
    assert np.array_equal(grad, np.zeros(4))


def test_backward_requires_scalar_loss():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Graph() as g:
        y = x * 2.0
        with pytest.raises(ContractError):
            ad.backward(g, y)


def test_backward_unreachable_leaf_gets_zero_grad():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    y = ad.Tensor([3.0], requires_grad=True)
    with ad.Graph() as g:
        _ = x * 2.0  # recorded but not feeding the loss
        loss = (y * y).sum()
        ad.backward(g, loss)
    assert np.array_equal(x.grad, np.zeros(2))
    np.testing.assert_allclose(y.grad, [6.0])


def test_backward_softmax_cross_entropy_matches_fd():
    logits0 = np.array([0.3, -1.2, 0.8])

    def build(x):
        logp = ad.log_softmax(x)
        return -getitem(logp, 1)

    grad, _ = scalar_loss_grad(build, logits0)

    def f(x):
        s = x - x.max()
        return -(s[1] - np.log(np.exp(s).sum()))

    fd = finite_difference_grad(f, logits0)
    assert_grad_close(grad, fd, rel_tol=1e-6)


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 5))
    w0 = rng.normal(size=(5, 3))

    def run():
        x = ad.Tensor(x0, requires_grad=True)
        w = ad.Tensor(w0, requires_grad=True)
        with ad.Graph() as g:
            h = ad.relu(matmul(x, w))
            loss = softmax(h, axis=-1).sum() + (h * h).sum()
            ad.backward(g, loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_backward_repeated_on_same_graph_is_identical():
    x = ad.Tensor([0.5, -0.25, 2.0], requires_grad=True)
    with ad.Graph() as g:
        loss = (softmax(x) * x).sum()
        ad.backward(g, loss)
        first = x.grad.copy()
        ad.backward(g, loss)
    assert np.array_equal(first, x.grad)


# ---------------------------------------------------------------------------
# Finite-difference sweep over every differentiable op
# ---------------------------------------------------------------------------


def _fd_case(name, build, shape, seed, points=None):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)

    def f(x):
        return float(build(ad.Tensor(x)).data)

    grad, _ = scalar_loss_grad(build, x0)
    fd = finite_difference_grad(f, x0)
    assert_grad_close(grad, fd)


WEIGHT = np.random.default_rng(99).normal(size=(4, 3))
WEIGHT_3D = np.random.default_rng(98).normal(size=(3, 4, 2))
MASK = np.array([[False, True, False, True]] * 3)
IDX = np.array([2, 0, 1])
ROWS = np.array([4, 0, 5])


# One row per op; the ops a model path records come from autodiff, the
# reference ops from conftest.py.
FD_CASES = [
    ("add", lambda x: (x + x * 2.0 + 1.5).sum(), (3, 4)),
    ("mul", lambda x: (x * x).sum(), (3, 4)),
    ("neg", lambda x: (-x).sum(), (5,)),
    ("relu", lambda x: ad.relu(x).sum(), (3, 4)),
    ("sum_axis", lambda x: (x.sum(axis=0) * 2.0).sum(), (3, 4)),
    ("reshape", lambda x: (x.reshape(12) * x.reshape((12,))).sum(), (3, 4)),
    ("transpose", lambda x: (x.transpose((1, 0)) * WEIGHT).sum(), (3, 4)),
    ("getitem", lambda x: (getitem(x, np.s_[1:, :2]) * 3.0).sum(), (3, 4)),
    ("matmul", lambda x: matmul(x, ad.Tensor(WEIGHT)).sum(), (3, 4)),
    ("matmul_weight", lambda x: matmul(ad.Tensor(WEIGHT), x).sum(), (3, 4)),
    ("softmax", lambda x: (softmax(x, axis=-1) * WEIGHT[:3, :]).sum(), (3, 3)),
    ("log_softmax", lambda x: (ad.log_softmax(x, axis=-1) * WEIGHT[:3, :]).sum(), (3, 3)),
    (
        "layer_norm",
        lambda x: (ad.layer_norm(x, ad.Tensor([1.1, 0.9, 1.3, 0.8]), ad.Tensor([0.1, -0.2, 0.0, 0.4])) * WEIGHT.T).sum(),
        (3, 4),
    ),
    ("take_along_last", lambda x: ad.take_along_last(x, IDX).sum(), (3, 4)),
    ("masked_fill", lambda x: (softmax(masked_fill(x, MASK, -1e30), axis=-1) * WEIGHT.T).sum(), (3, 4)),
    # (1, 2, 0) is not its own inverse, so a backward that undid it with
    # the same axes would put gradients in the wrong places
    ("transpose_cycle", lambda x: (x.transpose((1, 2, 0)) * WEIGHT_3D).sum(), (2, 3, 4)),
    # each is the other's backward; rows 1, 2 and 3 of the (2, 3) layout
    # are padding: gathered from nowhere, scattered as zeros
    ("gather_rows", lambda x: (ad.gather_rows(x, ROWS) * WEIGHT.T).sum(), (2, 3, 4)),
    ("scatter_rows",
     lambda x: (ad.scatter_rows(x, ROWS, (2, 3)) * WEIGHT_3D.transpose(2, 0, 1)).sum(),
     (3, 4)),
]

# Each case keeps the id pytest numbered by table position while rows 1, 3,
# 6, 7, 9 and 10 (sub, div, exp, log, mean and mean_axis) were in the table,
# so no case is renamed by their removal.
_FD_SLOTS = [i for i in range(len(FD_CASES) + 6) if i not in (1, 3, 6, 7, 9, 10)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name,build,shape", [
    pytest.param(*case, id=f"{case[0]}-<lambda>-shape{slot}")
    for slot, case in zip(_FD_SLOTS, FD_CASES)
])
def test_op_gradients_match_finite_differences(name, build, shape, seed):
    _fd_case(name, build, shape, seed)


@pytest.mark.parametrize("seed", range(4))
def test_layer_norm_gain_bias_gradients(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(3, 4))
    g0 = rng.normal(size=4)
    b0 = rng.normal(size=4)

    def build(gain_t, bias_t):
        return (ad.layer_norm(ad.Tensor(x0), gain_t, bias_t) * WEIGHT.T).sum()

    gain = ad.Tensor(g0, requires_grad=True)
    bias = ad.Tensor(b0, requires_grad=True)
    with ad.Graph() as g:
        ad.backward(g, build(gain, bias))
    fd_gain = finite_difference_grad(lambda v: float(build(ad.Tensor(v), ad.Tensor(b0)).data), g0)
    fd_bias = finite_difference_grad(lambda v: float(build(ad.Tensor(g0), ad.Tensor(v)).data), b0)
    assert_grad_close(gain.grad, fd_gain)
    assert_grad_close(bias.grad, fd_bias)


@pytest.mark.parametrize("seed", range(3))
def test_embedding_gradient_scatter_adds(seed):
    rng = np.random.default_rng(seed)
    table0 = rng.normal(size=(5, 3))
    idx = np.array([1, 4, 1, 0])

    def build(t):
        return (ad.embedding(t, idx) * rngw).sum()

    rngw = np.random.default_rng(seed + 50).normal(size=(4, 3))
    table = ad.Tensor(table0, requires_grad=True)
    with ad.Graph() as g:
        ad.backward(g, build(table))
    fd = finite_difference_grad(lambda v: float(build(ad.Tensor(v)).data), table0)
    assert_grad_close(table.grad, fd)


def test_dropout_inverted_scaling_and_grad():
    rng = np.random.default_rng(11)
    x = ad.Tensor(np.ones((1000,)), requires_grad=True)
    with ad.Graph() as g:
        out = ad.dropout(x, 0.25, np.random.default_rng(5))
        kept = out.data > 0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
        ad.backward(g, out.sum())
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.75)
    np.testing.assert_allclose(x.grad[~kept], 0.0)
    assert abs(kept.mean() - 0.75) < 0.05
    del rng


def test_no_graph_means_no_recording():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    assert not y.requires_grad and y.is_leaf()


# ---------------------------------------------------------------------------
# linear: one node for x @ W + b
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4), (7, 1, 4)])
@pytest.mark.parametrize("record", [False, True])
def test_linear_forward_is_bitwise_matmul_plus_bias(x_shape, record):
    # rows of several positions give np.matmul's bits; one-position rows
    # (a decode step's) are one GEMM over all rows, not one product per row
    rng = np.random.default_rng(20)
    x0, w0, b0 = rng.normal(size=x_shape), rng.normal(size=(4, 6)), rng.normal(size=6)
    if x_shape[-2] == 1:
        want = (x0.reshape(-1, 4) @ w0 + b0).reshape(x_shape[:-1] + (6,))
    else:
        want = np.matmul(x0, w0) + b0
    x, w, b = (ad.Tensor(v, requires_grad=record) for v in (x0, w0, b0))
    with ad.Graph() as g:
        out = ad.linear(x, w, b)
    assert np.array_equal(out.data, want)
    assert len(g.nodes) == (1 if record else 0)
    assert np.array_equal(ad.linear(ad.Tensor(x0), ad.Tensor(w0), ad.Tensor(b0)).data, want)


@pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4), (2, 3, 2, 4)])
def test_linear_gradients_match_composed_ops(x_shape):
    rng = np.random.default_rng(21)
    x0, w0, b0 = rng.normal(size=x_shape), rng.normal(size=(4, 6)), rng.normal(size=6)
    upstream = rng.normal(size=x_shape[:-1] + (6,))

    def grads(op):
        leaves = [ad.Tensor(v, requires_grad=True) for v in (x0, w0, b0)]
        with ad.Graph() as g:
            ad.backward(g, (op(*leaves) * upstream).sum())
        return [t.grad for t in leaves]

    fused = grads(ad.linear)
    composed = grads(lambda x, w, b: matmul(x, w) + b)
    for got, want in zip(fused, composed):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("which", range(3))
def test_linear_gradients_match_finite_differences(which):
    rng = np.random.default_rng(22 + which)
    values = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)]
    weights = rng.normal(size=(2, 3, 5))

    def build(t):
        args = [ad.Tensor(v) for v in values]
        args[which] = t
        return (ad.linear(*args) * weights).sum()

    grad, _ = scalar_loss_grad(build, values[which])
    fd = finite_difference_grad(lambda v: float(build(ad.Tensor(v)).data), values[which])
    assert_grad_close(grad, fd)


def test_linear_shape_errors():
    x, w = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        ad.linear(x, ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        ad.linear(x, w, ad.Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ad.linear(ad.Tensor(np.zeros(3)), w, ad.Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        ad.linear(x, ad.Tensor(np.zeros((1, 3, 4))), ad.Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# constant parents: no gradient is built for them
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op,shapes", [
    (ad.add, [(2, 3, 4), (3, 4)]),  # a batch plus constant positions
    (ad.add, [(3, 4), (2, 3, 4)]),
    (ad.mul, [(2, 3, 4), (2, 3, 4)]),
    (ad.linear, [(2, 3, 4), (4, 5), (5,)]),
])
def test_constant_parents_get_none_and_the_rest_keep_their_bits(op, shapes):
    rng = np.random.default_rng(25)
    values = [rng.normal(size=s) for s in shapes]
    out_shape = op(*(ad.Tensor(v) for v in values)).shape
    upstream = rng.normal(size=out_shape)

    def grads(trainable):
        parents = [ad.Tensor(v, requires_grad=t) for v, t in zip(values, trainable)]
        with ad.Graph() as g:
            out = op(*parents)
            ad.backward(g, (out * upstream).sum())
        return [p.grad for p in parents], out._backward(upstream)

    everything, _ = grads([True] * len(values))
    for constant in range(len(values)):
        trainable = [i != constant for i in range(len(values))]
        got, returned = grads(trainable)
        assert returned[constant] is None
        for i in range(len(values)):
            if trainable[i]:
                assert_same_bits(got[i], everything[i])


# ---------------------------------------------------------------------------
# attention and the residual layer norm: one node each
# ---------------------------------------------------------------------------


def composed_attention(q, k, v, scale, fill=None, fill_value=0.0, dropout_rate=0.0, rng=None):
    """The attention ops as they were recorded before the fused node."""
    axes = list(range(k.ndim))
    axes[-2], axes[-1] = axes[-1], axes[-2]
    scores = matmul(q, k.transpose(axes)) * scale
    if fill is not None:
        scores = masked_fill(scores, fill, fill_value)
    weights = softmax(scores, axis=-1)
    if dropout_rate > 0.0:
        weights = ad.dropout(weights, dropout_rate, rng)
    return matmul(weights, v)


ATTENTION_CASES = {"unmasked": (False, 0.0), "masked": (True, 0.0), "dropout": (True, 0.3)}


@pytest.mark.parametrize("case", ATTENTION_CASES)
@pytest.mark.parametrize("shapes", [
    ((2, 3, 4, 5), (2, 3, 6, 5), (2, 3, 6, 7), (2, 1, 4, 6)),  # batch, heads; fill per item
    ((3, 4, 5), (3, 6, 5), (3, 6, 5), (4, 6)),  # heads only; one fill for all
])
def test_attention_is_bitwise_the_composed_ops(case, shapes):
    masked, rate = ATTENTION_CASES[case]
    *operand_shapes, fill_shape = shapes
    rng = np.random.default_rng(26)
    values = [rng.normal(size=s) * 3.0 for s in operand_shapes]
    fill = None
    if masked:
        fill = rng.random(fill_shape) < 0.5
        fill[..., 0] = False  # every query keeps a key
    upstream = rng.normal(size=operand_shapes[0][:-1] + operand_shapes[2][-1:])

    def run(op):
        leaves = [ad.Tensor(v, requires_grad=True) for v in values]
        with ad.Graph() as g:
            out = op(*leaves, 1.0 / np.sqrt(5), fill, -1e30, dropout_rate=rate,
                     rng=np.random.default_rng(27))
            ad.backward(g, (out * upstream).sum())
        return out.data, [t.grad for t in leaves], len(g.nodes) - 2  # not the loss's

    got, got_grads, got_nodes = run(ad.attention)
    want, want_grads, want_nodes = run(composed_attention)
    assert_same_bits(got, want)
    for a, b in zip(got_grads, want_grads):
        assert_same_bits(a, b)
    assert got_nodes == 1
    # transpose, matmul, scale, [fill], softmax, [dropout], matmul
    assert want_nodes == 5 + masked + (rate > 0.0)


def test_attention_shape_errors():
    q, k = ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(DimensionError):
        ad.attention(q, k, ad.Tensor(np.zeros((2, 4, 4))), 1.0)  # keys and values disagree
    with pytest.raises(DimensionError):
        ad.attention(q, ad.Tensor(np.zeros((2, 5, 3))), ad.Tensor(np.zeros((2, 5, 4))), 1.0)
    with pytest.raises(DimensionError):
        ad.attention(q, ad.Tensor(np.zeros((1, 5, 4))), ad.Tensor(np.zeros((1, 5, 4))), 1.0)
    with pytest.raises(DimensionError):
        ad.attention(q, ad.Tensor(np.zeros((5, 4))), ad.Tensor(np.zeros((5, 4))), 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_residual_layer_norm_is_bitwise_norm_of_the_sum(seed):
    rng = np.random.default_rng(28 + seed)
    x, a = awkward_values((6, 5, 16), 28 + seed), rng.normal(size=(6, 5, 16))
    gain, bias, g = rng.normal(size=16), rng.normal(size=16), rng.normal(size=x.shape)

    def run(fused):
        leaves = [ad.Tensor(v, requires_grad=True) for v in (x, a, gain, bias)]
        xt, at, gt, bt = leaves
        with ad.Graph() as graph:
            if fused:
                out = ad.layer_norm(xt, gt, bt, residual=at)
            else:
                out = ad.layer_norm(xt + at, gt, bt)
            ad.backward(graph, (out * ad.Tensor(g)).sum())
        return out.data, [t.grad for t in leaves], len(graph.nodes) - 2  # not the loss's

    got, got_grads, got_nodes = run(True)
    want, want_grads, want_nodes = run(False)
    assert_same_bits(got, want)
    for b, c in zip(got_grads, want_grads):
        assert_same_bits(b, c)
    assert (got_nodes, want_nodes) == (1, 2)
    with pytest.raises(DimensionError):
        ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias),
                      residual=ad.Tensor(a[:, :1]))


# ---------------------------------------------------------------------------
# backward: gradient ownership
# ---------------------------------------------------------------------------


def copying_backward(graph, loss):
    """backward as it was before gradients were kept without copies."""
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(graph.nodes):
        out_grad = grads.pop(id(node), None)
        if out_grad is None or node._backward is None:
            continue
        for parent, pgrad in zip(node._parents, node._backward(out_grad)):
            if not parent.requires_grad or pgrad is None:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = np.array(pgrad, dtype=np.float64, copy=True)
            else:
                acc += pgrad
    seen = set()
    for node in graph.nodes:
        for parent in node._parents:
            if parent.requires_grad and parent.is_leaf() and id(parent) not in seen:
                seen.add(id(parent))
                acc = grads.get(id(parent))
                parent.grad = np.zeros_like(parent.data) if acc is None else acc


def leaf_grads_both_ways(graph, loss, leaves):
    ad.backward(graph, loss)
    new = [t.grad for t in leaves]
    copying_backward(graph, loss)
    return new, [t.grad for t in leaves]


def assert_no_shared_grads(grads):
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_add_hands_one_gradient_to_two_leaves_without_aliasing():
    a = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    c = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    with ad.Graph() as g:
        # add passes one array to a and b; reshape passes a view of it on to c
        loss = ((a + b) * 2.0 + c.reshape((2, 3))).sum()
        ad.backward(g, loss)
    assert_no_shared_grads([a.grad, b.grad, c.grad])
    a.grad += 1.0  # a leaf's grad is its own to change
    assert np.array_equal(a.grad, np.full((2, 3), 3.0))
    assert np.array_equal(b.grad, np.full((2, 3), 2.0))
    assert np.array_equal(c.grad, np.ones((3, 2)))
    with ad.Graph() as g:
        loss = ((a + b) * 2.0 + c.reshape((2, 3))).sum()
        new, old = leaf_grads_both_ways(g, loss, [a, b, c])
    for got, want in zip(new, old):
        assert np.array_equal(got, want)


def test_mixed_graph_grads_bitwise_equal_copying_backward():
    rng = np.random.default_rng(23)
    x = ad.Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    bias = ad.Tensor(rng.normal(size=6), requires_grad=True)
    gain = ad.Tensor(rng.normal(size=6), requires_grad=True)
    table = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    leaves = [x, w, bias, gain, table]
    with ad.Graph() as g:
        h = matmul(x, w) + bias
        h = ad.layer_norm(h + x, gain, bias)
        att = softmax(matmul(h, h.transpose((0, 2, 1))), axis=-1)
        h = matmul(att, h) + ad.embedding(table, np.array([[0, 1, 1, 4]] * 2))
        tail = np.s_[:, 1:]
        loss = ((getitem(h, tail) * getitem(h, tail)).sum() + ad.relu(h).sum() * 0.1
                + (w * w).sum())
        new, old = leaf_grads_both_ways(g, loss, leaves)
    for got, want in zip(new, old):
        assert np.array_equal(got, want)
    assert_no_shared_grads(new)


def test_model_step_grads_bitwise_equal_copying_backward():
    rng = np.random.default_rng(24)
    gloss = Vocabulary({"A", "B", "C"}, GLOSS_SPECIALS)
    text = Vocabulary({"u", "v", "w"}, TEXT_SPECIALS)
    samples = [
        Sample("s0", rng.normal(size=(7, 5)).astype(np.float32), ("A", "B", "B"), ("u", "v")),
        Sample("s1", rng.normal(size=(4, 5)).astype(np.float32), ("C",), ("w", "u", "w")),
        Sample("s2", rng.normal(size=(5, 5)).astype(np.float32), ("A", "C"), ("v",)),
    ]
    batch = data.make_batch(samples, gloss, text)
    model = JointModel(d_in=5, d=8, n_heads=2, n_enc_layers=2, n_dec_layers=2,
                       n_glosses=len(gloss), n_words=len(text), d_ff=16, dropout=0.1, seed=3)
    params = list(model.named_parameters().values())
    with ad.Graph() as g:
        total, *_ = batch_losses(model, batch, LossWeights(5.0, 1.0), "sign2gloss+text",
                                 train=True, rng=np.random.default_rng(4))
        new, old = leaf_grads_both_ways(g, total, params)
    for got, want in zip(new, old):
        assert np.array_equal(got, want)
    assert_no_shared_grads(new)


def test_params_names_each_tensor_by_its_attribute_path():
    class Leaf(ad.Params):
        def __init__(self):
            self.w = ad.zeros(2)
            self.size = 2  # an int, an ndarray and a dict hold no parameter
            self.stats = np.zeros(2)
            self.meta = {"w": ad.zeros(2)}

    class Tree(ad.Params):
        def __init__(self):
            self.b = ad.ones(1)
            self.leaf = Leaf()
            self.layers = [Leaf(), Leaf()]
            self.tables = [ad.zeros(3)]

    t = Tree()
    named = t.named_parameters()
    assert list(named) == ["b", "leaf.w", "layers.0.w", "layers.1.w", "tables.0"]
    assert named["layers.1.w"] is t.layers[1].w
    assert named["tables.0"] is t.tables[0]


# ---------------------------------------------------------------------------
# the op set: every op is recorded by a model path and checked by criterion 2
# ---------------------------------------------------------------------------

# public functions of autodiff that build tensors or run the tape, not ops
_NOT_OPS = {"active_graph", "as_tensor", "backward", "xavier_uniform", "zeros", "ones"}


def test_every_op_is_recorded_by_a_model_path_and_checked_by_criterion_2(monkeypatch):
    from test_acceptance import _OPS

    ops = sorted(name for name, f in vars(ad).items()
                 if inspect.isfunction(f) and f.__module__ == ad.__name__
                 and not name.startswith("_") and name not in _NOT_OPS)
    called = set()

    def wrap(name, op):
        def wrapped(*args, **kwargs):
            called.add(name)
            return op(*args, **kwargs)
        return wrapped

    for name in ops:
        monkeypatch.setattr(ad, name, wrap(name, getattr(ad, name)))
    rng = np.random.default_rng(40)
    gloss = Vocabulary({"A", "B", "C"}, GLOSS_SPECIALS)
    text = Vocabulary({"u", "v", "w"}, TEXT_SPECIALS)
    samples = [  # ragged in frames, glosses and words
        Sample("s0", rng.normal(size=(5, 3)).astype(np.float32), ("A", "B"), ("u", "v", "w")),
        Sample("s1", rng.normal(size=(3, 3)).astype(np.float32), ("C",), ("w",)),
        Sample("s2", rng.normal(size=(4, 3)).astype(np.float32), ("B", "A", "C"), ("v", "u")),
    ]
    batch = data.make_batch(samples, gloss, text)
    for protocol in PROTOCOLS:
        model = JointModel(d_in=3, d=4, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                           n_glosses=len(gloss), n_words=len(text), d_ff=8, dropout=0.2,
                           seed=1)
        with ad.Graph() as g:
            total, *_ = batch_losses(model, batch, LossWeights(5.0, 1.0), protocol,
                                     train=True, rng=np.random.default_rng(2))
            ad.backward(g, total)
    for width in (0, 3):
        evaluate_corpus(model, samples, gloss, text, "sign2gloss+text", beam_width=width,
                        max_len_cap=4)
    assert called == set(ops), f"no model path records {sorted(set(ops) - called)}"
    # embedding and custom_op (the fused CTC and cross-entropy) have checks of
    # their own in criterion 2; every other op is named by an _OPS row
    rows = [name for name, _ in _OPS]
    unchecked = [op for op in ops if op not in ("embedding", "custom_op")
                 and not any(row == op or row.startswith(op + "_") for row in rows)]
    assert not unchecked, f"criterion 2 has no row for {unchecked}"
