"""Attention stack tests: head math, masking, causality, composition oracles."""

import numpy as np
import pytest

from signscribe import autodiff as ad
from signscribe import transformer as tf
from signscribe.autodiff import Graph, Tensor
from signscribe.errors import ContractError

from conftest import assert_grad_close, finite_difference_grad

D, H, DFF = 8, 2, 16


def make_attn(seed=0, d=D, heads=H):
    return tf.AttentionParams(d, heads, np.random.default_rng(seed))


def all_real(*shape):
    """The layout of a padded (*shape) batch with every position real."""
    return tf.Rows(np.ones(shape, dtype=bool))


def attend(queries, keys_values, mask, attn, rows, key_rows):
    """One attention site on packed rows, projected as the stacks project them."""
    q = tf._queries(queries, rows, attn)
    return tf.multi_head_attention(q, *tf._keys_values(keys_values, key_rows, attn),
                                   mask, attn, rows)


# --- numpy reference implementations, kept deliberately naive -----------------


def ref_layer_norm(x, gain, bias, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def ref_mha(q_in, kv_in, mask, attn):
    """Per-head loop over explicit column slices."""
    dh = attn.d // attn.n_heads
    q = q_in @ attn.wq.data + attn.bq.data
    k = kv_in @ attn.wk.data + attn.bk.data
    v = kv_in @ attn.wv.data + attn.bv.data
    heads = []
    for h in range(attn.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        if mask is not None:
            logits = np.where(mask, logits, -np.inf)
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w = w / w.sum(axis=-1, keepdims=True)
        heads.append(w @ v[:, cols])
    return np.concatenate(heads, axis=-1) @ attn.wo.data + attn.bo.data


def ref_encoder_layer(x, mask, block):
    a = ref_mha(x, x, mask, block.attn)
    x = ref_layer_norm(x + a, block.norm1.gain.data, block.norm1.bias.data)
    f = np.maximum(x @ block.ffn.w1.data + block.ffn.b1.data, 0.0)
    f = f @ block.ffn.w2.data + block.ffn.b2.data
    return ref_layer_norm(x + f, block.norm2.gain.data, block.norm2.bias.data)


def ref_decoder_layer(x, z, causal, src_mask, block):
    a = ref_mha(x, x, causal, block.self_attn)
    x = ref_layer_norm(x + a, block.norm1.gain.data, block.norm1.bias.data)
    c = ref_mha(x, z, src_mask, block.cross_attn)
    x = ref_layer_norm(x + c, block.norm2.gain.data, block.norm2.bias.data)
    f = np.maximum(x @ block.ffn.w1.data + block.ffn.b1.data, 0.0)
    f = f @ block.ffn.w2.data + block.ffn.b2.data
    return ref_layer_norm(x + f, block.norm3.gain.data, block.norm3.bias.data)


class TestMultiHeadAttention:
    def test_single_position_passes_value_through(self):
        attn = make_attn(1)
        x = Tensor(np.random.default_rng(2).normal(size=(1, D)))
        out = attend(x, x, None, attn, all_real(1), all_real(1)).data
        v = x.data @ attn.wv.data + attn.bv.data
        expect = v @ attn.wo.data + attn.bo.data
        assert np.array_equal(out, expect)

    def test_identical_keys_split_weight_evenly(self):
        # 0.5/0.5 over two identical rows reduces to the single-key output.
        attn = make_attn(3)
        rng = np.random.default_rng(4)
        row = rng.normal(size=(1, D))
        q = Tensor(rng.normal(size=(2, D)))
        doubled = attend(q, Tensor(np.vstack([row, row])), None, attn,
                         all_real(2), all_real(2)).data
        single = attend(q, Tensor(row), None, attn, all_real(2), all_real(1)).data
        assert doubled == pytest.approx(single, abs=1e-12)

    def test_matches_per_head_reference(self):
        attn = make_attn(5)
        rng = np.random.default_rng(6)
        q = rng.normal(size=(3, D))
        kv = rng.normal(size=(4, D))
        mask = np.array(
            [[1, 1, 0, 1], [1, 1, 1, 1], [0, 1, 1, 0]], dtype=bool
        )
        out = attend(Tensor(q), Tensor(kv), mask, attn, all_real(3), all_real(4)).data
        assert out == pytest.approx(ref_mha(q, kv, mask, attn), abs=1e-12)

    def test_batched_matches_per_sample(self):
        attn = make_attn(7)
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(3, 4, D))
        mask = rng.random((3, 4, 4)) < 0.7
        mask[..., 0] = True  # keep every query row satisfiable
        # every position real: the packed rows are 4 per sample
        packed = Tensor(xs.reshape(12, D))
        out = attend(packed, packed, mask, attn,
                     all_real(3, 4), all_real(3, 4)).data.reshape(3, 4, D)
        for b in range(3):
            assert out[b] == pytest.approx(ref_mha(xs[b], xs[b], mask[b], attn), abs=1e-12)

    def test_gradients_flow_through_attention(self):
        attn = make_attn(10, d=4, heads=2)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4))
        mask = np.tril(np.ones((3, 3), dtype=bool))

        def f(w):
            saved = attn.wq.data
            attn.wq.data = w
            out = ref_mha(x, x, mask, attn)
            attn.wq.data = saved
            return float((out ** 2).sum())

        with Graph() as g:
            xt = Tensor(x, requires_grad=True)
            out = attend(xt, xt, mask, attn, all_real(3), all_real(3))
            ad.backward(g, ad.tensor_sum(out * out))
        assert_grad_close(attn.wq.grad, finite_difference_grad(f, attn.wq.data))

        def fx(v):
            return float((ref_mha(v, v, mask, attn) ** 2).sum())

        assert_grad_close(xt.grad, finite_difference_grad(fx, x))


class TestEncoder:
    def make_stack(self, n_layers=2, n_gloss=5, seed=20):
        return tf.EncoderStack(n_layers, D, H, DFF, n_gloss, np.random.default_rng(seed))

    def test_single_frame_is_finite(self):
        stack = self.make_stack()
        z = tf.run_encoder(Tensor(np.random.default_rng(21).normal(size=(1, D))), all_real(1),
                           stack)
        assert z.shape == (1, D)
        assert np.all(np.isfinite(z.data))

    def test_preserves_length(self):
        stack = self.make_stack()
        for t in (1, 2, 7):
            z = tf.run_encoder(Tensor(np.zeros((t, D))), all_real(t), stack)
            assert z.shape == (t, D)

    def test_matches_layer_composition(self):
        # Two-layer stack equals hand-composing the per-layer reference twice.
        stack = self.make_stack(n_layers=2, seed=22)
        x = np.random.default_rng(23).normal(size=(3, D))
        z = tf.run_encoder(Tensor(x), all_real(3), stack).data
        h = ref_encoder_layer(x, None, stack.layers[0])
        h = ref_encoder_layer(h, None, stack.layers[1])
        expect = ref_layer_norm(h, stack.final_norm.gain.data, stack.final_norm.bias.data)
        assert z == pytest.approx(expect, abs=1e-12)

    def test_padding_content_cannot_leak(self):
        # Same padded length, wildly different padding content: bitwise
        # equal, and bitwise the unpadded sequence (padded keys weigh 0).
        stack = self.make_stack(seed=24)
        rng = np.random.default_rng(25)
        real = rng.normal(size=(3, D))
        rows = tf.Rows(np.array([1, 1, 1, 0, 0], dtype=bool))
        a = np.vstack([real, np.zeros((2, D))])
        b = np.vstack([real, 1e6 * np.ones((2, D))])
        za = rows.scatter(tf.run_encoder(rows.gather(Tensor(a)), rows, stack)).data
        zb = rows.scatter(tf.run_encoder(rows.gather(Tensor(b)), rows, stack)).data
        assert np.array_equal(za[:3], zb[:3])
        assert np.array_equal(za[:3], tf.run_encoder(Tensor(real), all_real(3), stack).data)
        assert np.all(za[3:] == 0.0)

    def test_batched_padding_isolation(self):
        # one packed batch equals each sequence encoded alone
        stack = self.make_stack(seed=26)
        rng = np.random.default_rng(27)
        x = rng.normal(size=(2, 4, D))
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
        y = x.copy()
        y[0, 2:] = -777.0
        rows = tf.Rows(mask)
        za = tf.run_encoder(rows.gather(Tensor(x)), rows, stack).data
        zb = tf.run_encoder(rows.gather(Tensor(y)), rows, stack).data
        assert za.shape == (6, D)
        assert np.array_equal(za, zb)
        alone = [tf.run_encoder(Tensor(x[0, :2]), all_real(2), stack).data,
                 tf.run_encoder(Tensor(x[1]), all_real(4), stack).data]
        assert za[:2] == pytest.approx(alone[0], abs=1e-12)
        assert za[2:] == pytest.approx(alone[1], abs=1e-12)

    def test_eval_determinism(self):
        stack = self.make_stack(seed=28)
        x = Tensor(np.random.default_rng(29).normal(size=(4, D)))
        assert np.array_equal(
            tf.run_encoder(x, all_real(4), stack).data, tf.run_encoder(x, all_real(4), stack).data
        )

    def test_all_padding_rejected(self):
        stack = self.make_stack()
        with pytest.raises(ContractError):
            tf.run_encoder(Tensor(np.zeros((0, D))), tf.Rows(np.zeros(2, dtype=bool)), stack)


class TestGlossLogits:
    def test_zero_projection_gives_zero_logits(self):
        stack = tf.EncoderStack(1, D, H, DFF, 4, np.random.default_rng(30))
        stack.gloss_proj.weight = Tensor(np.zeros((D, 4)))
        stack.gloss_proj.bias = Tensor(np.zeros(4))
        out = tf.gloss_logits(Tensor(np.random.default_rng(31).normal(size=(3, D))), stack)
        assert np.all(out.data == 0.0)

    def test_identity_projection_copies_rows(self):
        stack = tf.EncoderStack(1, D, H, DFF, D, np.random.default_rng(32))
        stack.gloss_proj.weight = Tensor(np.eye(D))
        stack.gloss_proj.bias = Tensor(np.zeros(D))
        z = np.random.default_rng(33).normal(size=(2, D))
        assert np.array_equal(tf.gloss_logits(Tensor(z), stack).data, z)

    def test_matmul_oracle(self):
        stack = tf.EncoderStack(1, D, H, DFF, 6, np.random.default_rng(34))
        z = np.random.default_rng(35).normal(size=(5, D))
        expect = z @ stack.gloss_proj.weight.data + stack.gloss_proj.bias.data
        assert tf.gloss_logits(Tensor(z), stack).data == pytest.approx(expect, abs=1e-14)


class TestDecoder:
    def make_stack(self, n_layers=1, n_words=7, seed=40):
        return tf.DecoderStack(n_layers, D, H, DFF, n_words, np.random.default_rng(seed))

    def encode(self, t=3, seed=41):
        rng = np.random.default_rng(seed)
        return Tensor(rng.normal(size=(t, D)))

    def test_bos_only_step_is_finite(self):
        stack = self.make_stack()
        logits = tf.run_decoder(Tensor(np.zeros((1, D))), all_real(1), self.encode(), all_real(3),
                                stack)
        assert logits.shape == (1, 7)
        assert np.all(np.isfinite(logits.data))

    def test_preserves_target_length(self):
        stack = self.make_stack()
        for u in (1, 2, 5):
            logits = tf.run_decoder(Tensor(np.zeros((u, D))), all_real(u), self.encode(),
                                    all_real(3), stack)
            assert logits.shape == (u, 7)

    def test_future_positions_cannot_leak(self):
        # Bitwise causality: rows <= u never see edits at rows > u.
        stack = self.make_stack(n_layers=2, seed=42)
        rng = np.random.default_rng(43)
        z = self.encode(seed=44)
        m = rng.normal(size=(4, D))
        for u in range(3):
            other = m.copy()
            other[u + 1 :] = rng.normal(size=(3 - u, D)) * 50
            la = tf.run_decoder(Tensor(m), all_real(4), z, all_real(3), stack).data
            lb = tf.run_decoder(Tensor(other), all_real(4), z, all_real(3), stack).data
            assert np.array_equal(la[: u + 1], lb[: u + 1])

    def test_matches_loop_reference(self):
        stack = self.make_stack(n_layers=2, seed=45)
        rng = np.random.default_rng(46)
        m = rng.normal(size=(2, D))
        z = rng.normal(size=(2, D))
        src_mask = np.array([True, True])
        out = tf.run_decoder(Tensor(m), all_real(2), Tensor(z), tf.Rows(src_mask), stack).data

        causal = np.tril(np.ones((2, 2), dtype=bool))
        h = ref_decoder_layer(m, z, causal, src_mask[None, :], stack.layers[0])
        h = ref_decoder_layer(h, z, causal, src_mask[None, :], stack.layers[1])
        h = ref_layer_norm(h, stack.final_norm.gain.data, stack.final_norm.bias.data)
        expect = h @ stack.word_proj.weight.data + stack.word_proj.bias.data
        assert out == pytest.approx(expect, abs=1e-12)

    def test_source_padding_isolated_from_decoder(self):
        stack = self.make_stack(seed=47)
        rng = np.random.default_rng(48)
        m = rng.normal(size=(3, D))
        z = rng.normal(size=(4, D))
        z_dirty = z.copy()
        z_dirty[2:] = 1e5
        src = tf.Rows(np.array([1, 1, 0, 0], dtype=bool))
        la = tf.run_decoder(Tensor(m), all_real(3), src.gather(Tensor(z)), src, stack).data
        lb = tf.run_decoder(Tensor(m), all_real(3), src.gather(Tensor(z_dirty)), src, stack).data
        assert np.array_equal(la, lb)
        # and the padded keys weigh nothing: bitwise the unpadded source
        unpadded = tf.run_decoder(Tensor(m), all_real(3), Tensor(z[:2]), all_real(2), stack).data
        assert np.array_equal(la, unpadded)

    def test_batched_matches_per_sample(self):
        stack = self.make_stack(n_layers=1, seed=49)
        rng = np.random.default_rng(50)
        m = rng.normal(size=(2, 3, D))
        z = rng.normal(size=(2, 4, D))
        src_mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        src = tf.Rows(src_mask)
        rows = all_real(2, 3)
        out = tf.run_decoder(rows.gather(Tensor(m)), rows, src.gather(Tensor(z)), src,
                             stack).data.reshape(2, 3, -1)
        for b in range(2):
            n = src_mask[b].sum()
            single = tf.run_decoder(
                Tensor(m[b]), all_real(3), Tensor(z[b][src_mask[b]]), all_real(n), stack
            ).data
            assert out[b] == pytest.approx(single, abs=1e-12)

    def test_source_row_without_keys_rejected(self):
        # the uncached decoder checks its source mask once, before any layer
        stack = self.make_stack()
        rows = all_real(2, 3)
        m = rows.gather(Tensor(np.zeros((2, 3, D))))
        src = tf.Rows(np.array([[1, 1, 0, 0], [0, 0, 0, 0]], dtype=bool))
        with pytest.raises(ContractError):
            tf.run_decoder(m, rows, src.gather(Tensor(np.zeros((2, 4, D)))), src, stack)

    def test_gradients_reach_all_parameter_groups(self):
        # One backward pass touches every decoder parameter (no dead wiring).
        stack = self.make_stack(n_layers=1, seed=51)
        enc = tf.EncoderStack(1, D, H, DFF, 5, np.random.default_rng(52))
        rng = np.random.default_rng(53)
        frames = Tensor(rng.normal(size=(3, D)), requires_grad=True)
        m = Tensor(rng.normal(size=(2, D)), requires_grad=True)
        with Graph() as g:
            z = tf.run_encoder(frames, all_real(3), enc)
            logits = tf.run_decoder(m, all_real(2), z, all_real(3), stack)
            ad.backward(g, ad.tensor_sum(logits * logits))
        for name, p in stack.named_parameters().items():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name
        for name, p in enc.named_parameters().items():
            if name.startswith("gloss_proj"):
                continue  # not on this loss path
            assert p.grad is not None, name

    def test_end_to_end_gradient_matches_finite_differences(self):
        d, heads, dff = 4, 2, 6
        stack = tf.DecoderStack(1, d, heads, dff, 3, np.random.default_rng(54))
        enc = tf.EncoderStack(1, d, heads, dff, 3, np.random.default_rng(55))
        rng = np.random.default_rng(56)
        frames = rng.normal(size=(3, d))
        m = rng.normal(size=(2, d))

        def f(v):
            ft = Tensor(v)
            z = tf.run_encoder(ft, all_real(3), enc)
            logits = tf.run_decoder(Tensor(m), all_real(2), z, all_real(3), stack)
            return float((logits.data ** 2).sum())

        with Graph() as g:
            ft = Tensor(frames, requires_grad=True)
            z = tf.run_encoder(ft, all_real(3), enc)
            logits = tf.run_decoder(Tensor(m), all_real(2), z, all_real(3), stack)
            ad.backward(g, ad.tensor_sum(logits * logits))
        assert_grad_close(ft.grad, finite_difference_grad(f, frames))


class TestDropoutMode:
    def test_train_mode_dropout_changes_with_rng(self):
        stack = tf.EncoderStack(1, D, H, DFF, 4, np.random.default_rng(60))
        x = Tensor(np.random.default_rng(61).normal(size=(4, D)))

        def encode(seed):
            return tf.run_encoder(x, all_real(4), stack, train=True,
                                  rng=np.random.default_rng(seed), dropout_rate=0.5).data

        a, b, c = encode(1), encode(2), encode(1)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_eval_ignores_dropout_rate(self):
        stack = tf.EncoderStack(1, D, H, DFF, 4, np.random.default_rng(62))
        x = Tensor(np.random.default_rng(63).normal(size=(4, D)))
        a = tf.run_encoder(x, all_real(4), stack, dropout_rate=0.9).data
        b = tf.run_encoder(x, all_real(4), stack).data
        assert np.array_equal(a, b)


class TestParameterNaming:
    def test_names_are_unique_and_complete(self):
        enc = tf.EncoderStack(2, D, H, DFF, 5, np.random.default_rng(70))
        dec = tf.DecoderStack(2, D, H, DFF, 9, np.random.default_rng(71))
        enc_names = list(enc.named_parameters())
        dec_names = list(dec.named_parameters())
        assert len(enc_names) == len(set(enc_names))
        assert len(dec_names) == len(set(dec_names))
        # per encoder layer: 8 attention + 4 ffn + 4 norm; stack adds 2 norm + 2 proj
        assert len(enc_names) == 2 * (8 + 4 + 4) + 4
        assert len(dec_names) == 2 * (16 + 4 + 6) + 4


# --- the teacher-forced decoder as it was before decode caches ----------------


def split_heads(x, n_heads):
    """(..., S, d) -> (..., H, S, d/H), as a reshape and a transpose node."""
    *lead, s, d = x.shape
    n = len(lead)
    return x.reshape((*lead, s, n_heads, d // n_heads)).transpose((*range(n), n + 1, n, n + 2))


def merge_heads(x):
    """(..., H, S, d/H) -> (..., S, d), as a transpose and a reshape node."""
    *lead, h, s, dh = x.shape
    n = len(lead)
    return x.transpose((*range(n), n + 1, n, n + 2)).reshape((*lead, s, h * dh))


def uncached_mha(queries, keys_values, mask, attn, train, rng, dropout_rate):
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not np.all(mask.any(axis=-1)):
            raise ContractError("attention mask leaves a query row with no keys")
    dh = attn.d // attn.n_heads
    q = split_heads(ad.linear(queries, attn.wq, attn.bq), attn.n_heads)
    k = split_heads(ad.linear(keys_values, attn.wk, attn.bk), attn.n_heads)
    v = split_heads(ad.linear(keys_values, attn.wv, attn.bv), attn.n_heads)
    kt_axes = list(range(k.ndim))
    kt_axes[-2], kt_axes[-1] = kt_axes[-1], kt_axes[-2]
    logits = ad.matmul(q, k.transpose(kt_axes)) * (1.0 / np.sqrt(dh))
    if mask is not None:
        fill = ~mask
        if fill.ndim == 3:
            fill = fill[:, None]
        logits = ad.masked_fill(logits, fill, tf.MASK_FILL)
    weights = ad.softmax(logits, axis=-1)
    if train and dropout_rate > 0.0:
        weights = ad.dropout(weights, dropout_rate, rng)
    return ad.linear(merge_heads(ad.matmul(weights, v)), attn.wo, attn.bo)


def uncached_run_decoder(m_hat, z, src_pad_mask, stack, *, train, rng, dropout_rate):
    u = m_hat.shape[-2]
    causal = np.tril(np.ones((u, u), dtype=bool))
    src_mask = src_pad_mask[:, None, :]
    x = m_hat
    for block in stack.layers:
        a = uncached_mha(x, x, causal, block.self_attn, train, rng, dropout_rate)
        x = ad.layer_norm(x + a, block.norm1.gain, block.norm1.bias)
        c = uncached_mha(x, z, src_mask, block.cross_attn, train, rng, dropout_rate)
        x = ad.layer_norm(x + c, block.norm2.gain, block.norm2.bias)
        f = tf._feed_forward(x, block.ffn, train, rng, dropout_rate)
        x = ad.layer_norm(x + f, block.norm3.gain, block.norm3.bias)
    h = ad.layer_norm(x, stack.final_norm.gain, stack.final_norm.bias)
    return ad.linear(h, stack.word_proj.weight, stack.word_proj.bias)


class TestTeacherForcedDecoderUnchanged:
    @pytest.mark.parametrize("train", [False, True])
    def test_logits_and_gradients_are_bitwise_the_reference(self, train):
        # the packed decoder computes the real rows of the padded reference:
        # padded source keys are zeros in place of projected pads, and weigh
        # exactly 0 either way, so the logits and every gradient but the
        # cross-attention key and value weights' are the same bits; those sum
        # over the real source rows only, so they agree up to round-off
        stack = tf.DecoderStack(2, D, H, DFF, 9, np.random.default_rng(80))
        rng = np.random.default_rng(81)
        m_hat = Tensor(rng.normal(size=(3, 5, D)), requires_grad=True)
        z = Tensor(rng.normal(size=(3, 4, D)), requires_grad=True)
        src_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]], dtype=bool)
        probe = rng.normal(size=(3, 5, 9))
        named = [("m_hat", m_hat), ("z", z)] + list(stack.named_parameters().items())

        def run(decoder):
            for _, leaf in named:
                leaf.grad = None
            with Graph() as g:
                logits = decoder(train=train, rng=np.random.default_rng(82), dropout_rate=0.3)
                logits = logits.reshape((3, 5, 9))
                ad.backward(g, ad.tensor_sum(logits * probe))
            return logits.data, {n: leaf.grad for n, leaf in named}, len(g.nodes)

        rows, src = all_real(3, 5), tf.Rows(src_mask)
        got, got_grads, got_nodes = run(
            lambda **kw: tf.run_decoder(rows.gather(m_hat), rows, src.gather(z), src, stack, **kw))
        want, want_grads, want_nodes = run(
            lambda **kw: uncached_run_decoder(m_hat, z, src_mask, stack, **kw))
        assert np.array_equal(got, want)
        # one attention node replaces each site's scores, scale, fill,
        # softmax, dropout and weighting (5 nodes, 6 with dropout), and each
        # residual add joins its layer norm: 13 fewer per layer, 15 in
        # training. The layouts add 6: the packing of m_hat (a reshape, as
        # every target position is real), the gather of z's real rows, and
        # each cross-attention site's scatter of its keys and of its values.
        # Both sides count the final reshape of the logits.
        assert (got_nodes, want_nodes) == ((77, 101) if train else (75, 95))
        for name, want_grad in want_grads.items():
            if ".cross_attn.w" in name and name[-1] in "kv":
                scale = np.abs(want_grad).max()
                assert np.allclose(got_grads[name], want_grad, rtol=0, atol=1e-13 * scale), name
            else:
                assert np.array_equal(got_grads[name], want_grad), name
