"""Embedding layer tests: projections, batch norm over time, position vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import autodiff as ad
from signscribe import embeddings as emb
from signscribe.autodiff import Graph, Tensor
from signscribe.errors import DimensionError, VocabularyError
from signscribe.transformer import Rows

from conftest import assert_grad_close, finite_difference_grad

RNG = np.random.default_rng(7)


def make_spatial(d_in, d, seed=0):
    return emb.SpatialEmbedder(d_in, d, np.random.default_rng(seed))


class TestPositionalEncoding:
    def test_pos_zero_is_zeros_and_ones(self):
        pe = emb.positional_encoding(4, 8).data
        assert np.all(pe[0, 0::2] == 0.0)
        assert np.all(pe[0, 1::2] == 1.0)

    def test_pos_one_d_two(self):
        pe = emb.positional_encoding(2, 2).data
        assert pe[1] == pytest.approx([0.8415, 0.5403], abs=1e-4)

    def test_range(self):
        pe = emb.positional_encoding(500, 32).data
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_short_table_is_a_prefix_of_a_long_one_bitwise(self, d):
        # a model slices one shared table, so every length must read the same bits
        long = emb.positional_encoding(600, d).data
        for length in range(1, 301):
            assert emb.positional_encoding(length, d).data.tobytes() == \
                long[:length].tobytes(), length

    def test_rows_pairwise_distinct(self):
        # Sampled pairs across the full usable position range.
        pe = emb.positional_encoding(10000, 8).data
        idx = RNG.choice(10000, size=(200, 2), replace=True)
        for a, b in idx:
            if a != b:
                assert not np.array_equal(pe[a], pe[b])

    def test_wavelength_structure(self):
        # First pair oscillates with period 2*pi; last pair is near-constant early on.
        pe = emb.positional_encoding(100, 64).data
        assert pe[:, 0] == pytest.approx(np.sin(np.arange(100)), abs=1e-12)
        assert np.all(np.abs(pe[:20, -2]) < 0.01)


class TestWordEmbedder:
    def test_known_table_lookup(self):
        we = emb.WordEmbedder(5, 3, np.random.default_rng(1))
        table = np.arange(15, dtype=float).reshape(5, 3)
        we.table = Tensor(table)
        out = we.embed([1, 3])
        assert np.array_equal(out.data, table[[1, 3]])

    def test_zero_row(self):
        we = emb.WordEmbedder(4, 6, np.random.default_rng(2))
        we.table.data[0] = 0.0
        assert np.all(we.embed([0]).data == 0.0)

    def test_repeated_token_identical_rows(self):
        we = emb.WordEmbedder(4, 6, np.random.default_rng(3))
        out = we.embed([2, 2]).data
        assert np.array_equal(out[0], out[1])

    def test_out_of_range(self):
        we = emb.WordEmbedder(4, 6, np.random.default_rng(4))
        with pytest.raises(VocabularyError):
            we.embed([4])
        with pytest.raises(VocabularyError):
            we.embed([-1])

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_pure_function_of_tokens_and_table(self, tokens):
        we = emb.WordEmbedder(10, 4, np.random.default_rng(5))
        a = we.embed(tokens).data
        b = we.embed(tokens).data
        assert np.array_equal(a, b)
        assert np.array_equal(a, we.table.data[np.asarray(tokens)])

    def test_gradient_scatters_into_table(self):
        we = emb.WordEmbedder(6, 3, np.random.default_rng(6))
        with Graph() as g:
            out = we.embed([1, 1, 4])
            loss = ad.tensor_sum(out * out)
            ad.backward(g, loss)
        num = finite_difference_grad(
            lambda t: float((t[[1, 1, 4]] ** 2).sum()), we.table.data
        )
        assert_grad_close(we.table.grad, num)


class TestSpatialEmbedder:
    def test_eval_identity_then_relu(self):
        se = make_spatial(2, 2)
        se.weight = Tensor(np.eye(2))
        out = se.embed(np.array([[-2.0, 3.0]]), train=False)
        assert out.data[0] == pytest.approx([0.0, 3.0], abs=1e-4)

    def test_train_constant_rows_fall_to_bn_bias(self):
        se = make_spatial(3, 4, seed=8)
        se.bn_bias = Tensor(np.array([-1.0, 0.0, 0.5, 2.0]))
        frames = np.tile(np.array([0.3, -1.2, 0.7]), (5, 1))
        out = se.embed(frames, train=True).data
        expect = np.maximum(se.bn_bias.data, 0.0)
        assert out == pytest.approx(np.tile(expect, (5, 1)), abs=1e-9)

    def test_matches_straight_line_recomputation(self):
        # Independent reimplementation of linear -> BN over time -> ReLU.
        se = make_spatial(3, 4, seed=9)
        frames = np.random.default_rng(10).normal(size=(4, 3))
        out = se.embed(frames, train=True).data

        h = frames @ se.weight.data + se.bias.data
        mu = h.mean(axis=0)
        var = h.var(axis=0)
        xhat = (h - mu) / np.sqrt(var + emb.BN_EPS)
        expect = np.maximum(xhat * se.bn_gain.data + se.bn_bias.data, 0.0)
        assert out == pytest.approx(expect, abs=1e-12)

    def test_nonnegative_output(self):
        se = make_spatial(5, 6, seed=11)
        for t in (1, 3, 9):
            frames = RNG.normal(size=(t, 5)) * 3
            assert np.all(se.embed(frames, train=True).data >= 0.0)
            assert np.all(se.embed(frames, train=False).data >= 0.0)

    def test_dimension_mismatch(self):
        se = make_spatial(3, 4)
        with pytest.raises(DimensionError):
            se.embed(np.zeros((2, 5)))

    def test_running_stats_updated_in_train_only(self):
        se = make_spatial(3, 4, seed=12)
        frames = RNG.normal(size=(6, 3))
        before = se.bn_running_mean.copy()
        se.embed(frames, train=False)
        assert np.array_equal(se.bn_running_mean, before)
        se.embed(frames, train=True)
        assert not np.array_equal(se.bn_running_mean, before)
        assert np.all(se.bn_running_var > 0)

    def test_running_stats_converge_on_repeated_batch(self):
        # Repeatedly normalizing the same batch drives running stats to the batch stats.
        se = make_spatial(2, 2, seed=13)
        frames = np.random.default_rng(14).normal(size=(8, 2))
        h = frames @ se.weight.data + se.bias.data
        for _ in range(200):
            se.embed(frames, train=True)
        assert se.bn_running_mean == pytest.approx(h.mean(axis=0), abs=1e-8)
        assert se.bn_running_var == pytest.approx(h.var(axis=0), abs=1e-8)

    def test_padding_isolation_in_train_mode(self):
        # Masked frames must not influence the stats used for real frames:
        # the layout packs them away before the embedder sees the batch.
        se = make_spatial(3, 4, seed=15)
        rng = np.random.default_rng(16)
        real = rng.normal(size=(2, 3, 3))
        padded = np.concatenate([real, 999.0 * np.ones((2, 2, 3))], axis=1)
        mask = np.zeros((2, 5), dtype=bool)
        mask[:, :3] = True
        out_padded = se.embed_batch(Rows(mask).gather(Tensor(padded)), train=True).data
        se2 = make_spatial(3, 4, seed=15)
        out_real = se2.embed_batch(Tensor(real.reshape(6, 3)), train=True).data
        assert np.array_equal(out_padded, out_real)

    @pytest.mark.parametrize("wrt", ["input", "weight", "bn_gain", "bn_bias"])
    def test_train_mode_gradients(self, wrt):
        se = make_spatial(3, 4, seed=17)
        frames = np.random.default_rng(18).normal(size=(5, 3))
        params = {
            "input": None,
            "weight": se.weight,
            "bn_gain": se.bn_gain,
            "bn_bias": se.bn_bias,
        }

        def forward(x):
            s = make_spatial(3, 4, seed=17)
            s.weight = Tensor(se.weight.data.copy())
            s.bn_gain = Tensor(se.bn_gain.data.copy())
            s.bn_bias = Tensor(se.bn_bias.data.copy())
            if wrt == "input":
                inp = x
            else:
                inp = frames
                if wrt == "weight":
                    s.weight = Tensor(x)
                elif wrt == "bn_gain":
                    s.bn_gain = Tensor(x)
                elif wrt == "bn_bias":
                    s.bn_bias = Tensor(x)
            out = s.embed(np.asarray(inp), train=True)
            # Square keeps the loss smooth; ReLU kinks sit at measure-zero points.
            return float((out.data ** 2).sum())

        target = params[wrt]
        with Graph() as g:
            x = Tensor(frames, requires_grad=True)
            out = se.embed_batch(x, train=True)
            loss = ad.tensor_sum(out * out)
            ad.backward(g, loss)
        if wrt == "input":
            analytic, point = x.grad, frames
        else:
            analytic, point = target.grad, target.data
        num = finite_difference_grad(lambda v: forward(v), point)
        assert_grad_close(analytic, num)

    def test_eval_mode_gradients(self):
        se = make_spatial(3, 4, seed=19)
        se.bn_running_mean = np.array([0.1, -0.2, 0.3, 0.0])
        se.bn_running_var = np.array([1.5, 0.7, 2.0, 1.0])
        frames = np.random.default_rng(20).normal(size=(4, 3))
        with Graph() as g:
            x = Tensor(frames, requires_grad=True)
            out = se.embed_batch(x, train=False)
            loss = ad.tensor_sum(out * out)
            ad.backward(g, loss)

        def f(v):
            h = v @ se.weight.data + se.bias.data
            xh = (h - se.bn_running_mean) / np.sqrt(se.bn_running_var + emb.BN_EPS)
            y = np.maximum(xh * se.bn_gain.data + se.bn_bias.data, 0.0)
            return float((y ** 2).sum())

        assert_grad_close(x.grad, finite_difference_grad(f, frames))

    def test_batched_matches_per_sample_in_eval_mode(self):
        # Eval mode normalizes per frame with fixed stats, so batching is a no-op.
        se = make_spatial(3, 4, seed=21)
        se.bn_running_mean = np.array([0.1, -0.2, 0.3, 0.0])
        se.bn_running_var = np.array([1.5, 0.7, 2.0, 1.0])
        rng = np.random.default_rng(22)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(5, 3))
        padded = np.zeros((2, 5, 3))
        padded[0, :3] = a
        padded[1] = b
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
        packed = Rows(mask).gather(Tensor(padded))  # packed rows, a then b
        out = se.embed_batch(packed, train=False).data
        assert out[:3] == pytest.approx(se.embed(a, train=False).data, abs=1e-12)
        assert out[3:] == pytest.approx(se.embed(b, train=False).data, abs=1e-12)
