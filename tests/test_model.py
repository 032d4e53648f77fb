"""Joint model tests: wiring, protocol isolation, decoding pathway, batching."""

import dataclasses
import hashlib

import numpy as np
import pytest

from signscribe import autodiff as ad
from signscribe import data, decoding, kernels
from signscribe import transformer as tf
from signscribe.autodiff import Graph, Tensor
from signscribe.config import RunConfig
from signscribe.data import GLOSS_SPECIALS, TEXT_PAD, TEXT_SPECIALS, Sample, Vocabulary
from signscribe.embeddings import positional_encoding
from signscribe.errors import CheckpointError, ConfigError, ContractError, VocabularyError
from signscribe.evaluation import FORBIDDEN_WORDS, encode_split
from signscribe.losses import LossWeights, ctc_log_prob, translation_loss
from signscribe.model import JointModel, batch_losses
from signscribe.training import Checkpoint, checkpoint_load, checkpoint_save, restore_model

from conftest import oracle_beam_search, oracle_chunk


def tiny_model(seed=0, dropout=0.0, **overrides):
    kwargs = dict(
        d_in=5,
        d=8,
        n_heads=2,
        n_enc_layers=2,
        n_dec_layers=2,
        n_glosses=6,
        n_words=9,
        d_ff=16,
        dropout=dropout,
        seed=seed,
    )
    kwargs.update(overrides)
    return JointModel(**kwargs)


def tiny_samples(rng=None, b=2, d_in=5):
    rng = rng or np.random.default_rng(7)
    gloss = Vocabulary({"A", "B", "C", "D"}, GLOSS_SPECIALS)
    text = Vocabulary({"u", "v", "w", "x", "y"}, TEXT_SPECIALS)
    samples = [
        Sample("s0", rng.normal(size=(6, d_in)).astype(np.float32), ("A", "B"), ("u", "v", "w")),
        Sample("s1", rng.normal(size=(4, d_in)).astype(np.float32), ("C",), ("x",)),
    ][:b]
    return samples, gloss, text


def tiny_batch(rng=None, b=2, d_in=5):
    samples, gloss, text = tiny_samples(rng, b, d_in)
    return data.make_batch(samples, gloss, text), gloss, text


def ragged_fd_batch():
    """Three samples of unequal frame, gloss and word counts, so every padded axis pads."""
    rng = np.random.default_rng(30)
    gloss = Vocabulary({"A", "B", "C"}, GLOSS_SPECIALS)
    text = Vocabulary({"u", "v", "w"}, TEXT_SPECIALS)
    samples = [
        Sample("s0", rng.normal(size=(5, 3)).astype(np.float32), ("A", "B"), ("u", "v", "w")),
        Sample("s1", rng.normal(size=(3, 3)).astype(np.float32), ("C",), ("w",)),
        Sample("s2", rng.normal(size=(4, 3)).astype(np.float32), ("B", "A", "C"), ("v", "u")),
    ]
    return data.make_batch(samples, gloss, text), gloss, text


class TestWiring:
    def test_parameter_names(self):
        m = tiny_model()
        names = set(m.named_parameters())
        assert {"spatial.weight", "spatial.bias", "spatial.bn_gain", "spatial.bn_bias",
                "gloss_words.table", "words.table"} <= names
        assert "encoder.layers.0.attn.wq" in names
        assert "encoder.layers.1.norm2.gain" in names
        assert "encoder.gloss_proj.weight" in names
        assert "decoder.layers.1.cross_attn.wo" in names
        assert "decoder.word_proj.bias" in names
        # every name resolves to a distinct tensor
        tensors = list(m.named_parameters().values())
        assert len({id(t) for t in tensors}) == len(tensors)

    def test_a_tensor_set_later_is_trained_and_saved(self, tmp_path):
        # a parameter is named by its attribute path, so no name list can miss it
        m = tiny_model()
        m.encoder.final_norm.extra = ad.zeros(8)
        name = "encoder.final_norm.extra"
        assert m.named_parameters()[name] is m.encoder.final_norm.extra
        assert m.trainable_parameters("sign2gloss")[name] is m.encoder.final_norm.extra
        _, gloss, text = tiny_samples()
        path = checkpoint_save(tmp_path / "m.sltc", m, gloss, text, "sign2gloss")
        assert name in checkpoint_load(path).tensors

    def test_buffers_are_running_stats(self):
        m = tiny_model()
        bufs = m.named_buffers()
        assert set(bufs) == {"spatial.bn_running_mean", "spatial.bn_running_var"}
        assert bufs["spatial.bn_running_var"].shape == (8,)

    def test_projection_widths_span_vocabularies(self):
        m = tiny_model()
        assert m.encoder.gloss_proj.weight.shape == (8, 6)
        assert m.decoder.word_proj.weight.shape == (8, 9)

    def test_dropout_range_checked(self):
        with pytest.raises(ConfigError):
            tiny_model(dropout=1.0)

    @pytest.mark.parametrize("name", ["d_ff", "d_in", "n_glosses", "n_words"])
    def test_zero_size_rejected(self, name):
        with pytest.raises(ConfigError, match=f"'{name}' is not a positive integer: 0"):
            tiny_model(**{name: 0})

    def test_same_seed_same_init(self):
        a = tiny_model(seed=3).named_parameters()
        b = tiny_model(seed=3).named_parameters()
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_unknown_protocol(self):
        m = tiny_model()
        with pytest.raises(ConfigError):
            m.trainable_parameters("speech2text")


# One table of bad model sizes, each broken rule with a pattern its message
# matches at every boundary: the run config, the model, a checkpoint footer.
BAD_SIZES = {
    "odd-d": ({"d": 5, "n_heads": 1}, "'d' is not even"),
    "indivisible-heads": ({"d": 6, "n_heads": 4}, "heads"),
    "zero-enc-layers": ({"n_enc_layers": 0}, "n_enc_layers"),
    "zero-dec-layers": ({"n_dec_layers": 0}, "n_dec_layers"),
    "zero-d_ff": ({"d_ff": 0}, "d_ff"),
    "bool-n_heads": ({"n_heads": True}, "n_heads"),
    "nan-dropout": ({"dropout": float("nan")}, "dropout"),
    "unit-dropout": ({"dropout": 1.0}, "dropout"),
}


class TestSizeRule:
    @pytest.mark.parametrize("case", sorted(BAD_SIZES))
    def test_run_config_rejects(self, case):
        sizes, pattern = BAD_SIZES[case]
        with pytest.raises(ConfigError, match=pattern):
            RunConfig(**sizes)

    @pytest.mark.parametrize("case", sorted(BAD_SIZES))
    def test_joint_model_rejects(self, case):
        sizes, pattern = BAD_SIZES[case]
        with pytest.raises(ConfigError, match=pattern):
            tiny_model(**sizes)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        gloss = Vocabulary({"A", "B", "C", "D"}, GLOSS_SPECIALS)
        text = Vocabulary({"u", "v", "w", "x", "y"}, TEXT_SPECIALS)
        path = tmp_path_factory.mktemp("sizes") / "m.sltc"
        return checkpoint_load(checkpoint_save(path, tiny_model(), gloss, text, "sign2text"))

    @pytest.mark.parametrize("case", sorted(BAD_SIZES))
    def test_restore_model_rejects(self, saved, case):
        sizes, pattern = BAD_SIZES[case]
        footer = {**saved.footer, "model": {**saved.footer["model"], **sizes}}
        with pytest.raises(CheckpointError, match=pattern):
            restore_model(Checkpoint(tensors=saved.tensors, footer=footer))

    def test_footer_keeps_the_nine_size_keys(self, saved):
        # files saved before the rule moved must still load
        assert set(saved.footer["model"]) == {
            "d_in", "d", "n_heads", "n_enc_layers", "n_dec_layers", "n_glosses",
            "n_words", "d_ff", "dropout"}
        model, _, _ = restore_model(saved)
        assert model.hyperparams == saved.footer["model"]


class TestTrainableSubsets:
    def test_sign2gloss_excludes_translation_stack(self):
        names = set(tiny_model().trainable_parameters("sign2gloss"))
        assert not any(n.startswith(("decoder.", "words.", "gloss_words.")) for n in names)
        assert "encoder.gloss_proj.weight" in names
        assert "spatial.weight" in names

    def test_sign2text_excludes_gloss_head(self):
        names = set(tiny_model().trainable_parameters("sign2text"))
        assert not any("gloss_proj" in n for n in names)
        assert not any(n.startswith("gloss_words.") for n in names)
        assert "decoder.word_proj.weight" in names
        assert "spatial.weight" in names

    def test_joint_excludes_only_gloss_input_table(self):
        m = tiny_model()
        names = set(m.trainable_parameters("sign2gloss+text"))
        assert names == set(m.named_parameters()) - {"gloss_words.table"}

    @pytest.mark.parametrize("protocol, frozen", [
        ("sign2gloss", ("decoder", "words", "gloss_words")),
        ("sign2text", ("gloss_head", "gloss_words")),
        ("sign2gloss+text", ("gloss_words",)),
        ("gloss2text", ("spatial", "gloss_head")),
    ])
    def test_exact_trainable_names(self, protocol, frozen):
        m = tiny_model()
        names = set(m.named_parameters())
        groups = {
            "decoder": {n for n in names if n.startswith("decoder.")},
            "words": {"words.table"},
            "gloss_words": {"gloss_words.table"},
            "gloss_head": {"encoder.gloss_proj.weight", "encoder.gloss_proj.bias"},
            "spatial": {"spatial.weight", "spatial.bias", "spatial.bn_gain", "spatial.bn_bias"},
        }
        assert len(groups["decoder"]) == 2 * 26 + 4  # two layers, final norm, word projection
        want = names.difference(*(groups[g] for g in frozen))
        assert set(m.trainable_parameters(protocol)) == want

    def test_gloss2text_excludes_frame_front_end(self):
        names = set(tiny_model().trainable_parameters("gloss2text"))
        assert not any(n.startswith("spatial.") for n in names)
        assert not any("gloss_proj" in n for n in names)
        assert "gloss_words.table" in names


class TestForwardShapes:
    def test_encode_frames_batched(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z = m.encode_frames(batch.features, batch.src_mask)
        assert z.shape == (2, 6, 8)
        assert np.all(np.isfinite(z.data))

    def test_gloss_log_probs_normalized(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z = m.encode_frames(batch.features, batch.src_mask)
        log_p = m.frame_gloss_log_probs(z)
        assert log_p.shape == (2, 6, 6)
        total = np.exp(log_p.data).sum(axis=-1)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_word_logits_shape(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z = m.encode_frames(batch.features, batch.src_mask)
        logits = m.word_logits(batch.text_in, z, batch.src_mask)
        assert logits.shape == (2, 4, 9)

    def test_encode_glosses(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z, mask = m.encode(batch, "gloss2text")
        assert z.shape == (*batch.gloss_ids.shape, 8)
        assert np.all(z.data[~mask] == 0.0)

    def test_single_sequence_encode(self):
        m = tiny_model()
        frames = np.random.default_rng(0).normal(size=(5, 5))
        z = m.encode_frames(frames, np.ones(5, dtype=bool))
        assert z.shape == (5, 8)

    def test_train_mode_without_rng_rejected(self):
        m = tiny_model(dropout=0.2)
        batch, _, _ = tiny_batch()
        with pytest.raises(ContractError):
            m.encode_frames(batch.features, batch.src_mask, train=True)


class TestBatchConsistency:
    def test_batched_encode_matches_per_sample(self):
        # Eval mode: each sample encoded alone must match its batch row on
        # real frames (padded rows share no keys with real ones).
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z = m.encode_frames(batch.features, batch.src_mask)
        for i, t in enumerate(batch.frame_counts):
            alone = m.encode_frames(batch.features[i, :t], np.ones(t, dtype=bool))
            assert np.allclose(z.data[i, :t], alone.data, atol=1e-10), i

    @pytest.mark.parametrize("protocol", ["sign2gloss+text", "gloss2text"])
    def test_padding_content_leaves_training_gradients_bitwise_unchanged(self, protocol):
        batch, gloss, text = ragged_fd_batch()
        rng = np.random.default_rng(32)
        dirty = dataclasses.replace(
            batch,
            features=np.where(batch.src_mask[..., None], batch.features, 1e6),
            gloss_ids=np.where(batch.gloss_mask, batch.gloss_ids,
                               rng.integers(0, len(gloss), batch.gloss_ids.shape)),
            text_in=np.where(batch.text_mask, batch.text_in,
                             rng.integers(0, len(text), batch.text_in.shape)),
            text_out=np.where(batch.text_mask, batch.text_out,
                              rng.integers(0, len(text), batch.text_out.shape)),
        )
        assert not np.array_equal(dirty.text_in, batch.text_in)

        def run(b):
            m = tiny_model(d_in=3, n_glosses=len(gloss), n_words=len(text))
            with Graph() as g:
                total, *_ = batch_losses(m, b, LossWeights(5.0, 1.0), protocol, train=True)
                ad.backward(g, total)
            return total.data, {n: p.grad for n, p in m.trainable_parameters(protocol).items()}

        clean_loss, clean = run(batch)
        dirty_loss, grads = run(dirty)
        assert clean_loss.tobytes() == dirty_loss.tobytes()
        for name, grad in clean.items():
            assert grad.tobytes() == grads[name].tobytes(), name

    @pytest.mark.parametrize("protocol", ["sign2gloss+text", "gloss2text"])
    def test_position_wise_layers_see_real_rows_only(self, protocol, monkeypatch):
        # every projection, layer norm and ReLU of a training step runs on
        # packed rows: one per real frame (or gloss) or one per real token
        batch, gloss, text = ragged_fd_batch()
        m = tiny_model(d_in=3, n_glosses=len(gloss), n_words=len(text))
        seen = []

        def counting(op):
            def wrapped(x, *args, **kwargs):
                seen.append((op.__name__, int(np.prod(x.shape[:-1]))))
                return op(x, *args, **kwargs)
            return wrapped

        for name in ("linear", "layer_norm", "relu"):
            monkeypatch.setattr(ad, name, counting(getattr(ad, name)))
        with Graph() as g:
            total, *_ = batch_losses(m, batch, LossWeights(5.0, 1.0), protocol, train=True)
            ad.backward(g, total)
        sources = batch.gloss_mask if protocol == "gloss2text" else batch.src_mask
        real = {int(sources.sum()), int(batch.text_mask.sum())}
        assert int(batch.text_mask.sum()) < batch.text_mask.size  # the batch pads
        assert int(sources.sum()) < sources.size
        assert {op for op, _ in seen} == {"linear", "layer_norm", "relu"}
        assert {rows for _, rows in seen} == real, seen

    def test_pad_feature_content_never_leaks(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z0 = m.encode_frames(batch.features, batch.src_mask)
        poisoned = batch.features.copy()
        poisoned[1, 4:] = 1e6
        z1 = m.encode_frames(poisoned, batch.src_mask)
        assert np.array_equal(z0.data[1, :4], z1.data[1, :4])
        assert np.array_equal(z0.data[0], z1.data[0])

    def test_batch_loss_equals_per_sample_average(self):
        # The padded-batch loss must equal hand-combined unpadded losses,
        # and its gradient the same combination of each sample's gradients:
        # CTC averages over sequences, cross-entropy over target tokens.
        m = tiny_model()
        samples, gloss, text = tiny_samples()
        batch = data.make_batch(samples, gloss, text)
        weights = LossWeights(lambda_r=5.0, lambda_t=1.0)
        params = m.trainable_parameters("sign2gloss+text")
        with Graph() as g:
            total, loss_r, loss_t, skipped = batch_losses(
                m, batch, weights, "sign2gloss+text"
            )
            ad.backward(g, total)
        assert skipped == []
        got = {name: p.grad for name, p in params.items()}

        def grads_of(one, term):  # term 1 is L_R, 2 is L_T
            with Graph() as g:
                ad.backward(g, batch_losses(m, one, weights, "sign2gloss+text")[term])
            return {name: p.grad for name, p in params.items()}

        tokens = [int(batch.text_mask[i].sum()) for i in range(len(samples))]
        want = {name: np.zeros_like(p.data) for name, p in params.items()}
        for sample, u in zip(samples, tokens):
            one = data.make_batch([sample], gloss, text)
            for term, weight in ((1, 5.0 / len(samples)), (2, 1.0 * u / sum(tokens))):
                for name, grad in grads_of(one, term).items():
                    want[name] += weight * grad
        for name in params:
            assert np.any(got[name]), name
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10, err_msg=name)

        per_r = []
        per_t_sums = []
        n_tokens = 0
        for i, t in enumerate(batch.frame_counts):
            z = m.encode_frames(batch.features[i, :t], np.ones(t, dtype=bool))
            log_p = m.frame_gloss_log_probs(z)
            target = tuple(int(g) for g in batch.gloss_ids[i, : batch.gloss_counts[i]])
            from signscribe.losses import CtcTarget

            per_r.append(-ctc_log_prob(log_p, CtcTarget(target)).data)
            u = int((batch.text_out[i] != TEXT_PAD).sum())
            logits = m.word_logits(batch.text_in[i, :u], z, np.ones(t, dtype=bool))
            ref = batch.text_out[i, :u]
            per_t_sums.append(translation_loss(logits, ref).data * 1.0)
            n_tokens += u
        want_r = np.mean(per_r)
        want_t = np.sum(per_t_sums) / n_tokens
        assert np.isclose(loss_r.data, want_r, atol=1e-9)
        assert np.isclose(loss_t.data, want_t, atol=1e-9)
        assert np.isclose(total.data, 5.0 * want_r + 1.0 * want_t, atol=1e-9)


class TestProtocolIsolation:
    def run_backward(self, protocol, weights):
        m = tiny_model(dropout=0.0)
        batch, _, _ = tiny_batch()
        with Graph() as g:
            total, _, _, _ = batch_losses(m, batch, weights, protocol)
            ad.backward(g, total)
        return m

    @pytest.mark.parametrize(
        "protocol,weights,frozen",
        [
            ("sign2gloss", LossWeights(1.0, 0.0), ("decoder.", "words.", "gloss_words.")),
            ("sign2text", LossWeights(0.0, 1.0), ("encoder.gloss_proj.", "gloss_words.")),
            ("gloss2text", LossWeights(0.0, 1.0), ("spatial.", "encoder.gloss_proj.")),
        ],
    )
    def test_loss_never_reaches_frozen_parameters(self, protocol, weights, frozen):
        m = self.run_backward(protocol, weights)
        for name, p in m.named_parameters().items():
            if name.startswith(frozen):
                assert p.grad is None or not np.any(p.grad), name
            elif name in m.trainable_parameters(protocol):
                assert p.grad is not None and np.any(p.grad), name

    def test_joint_reaches_both_heads(self):
        m = self.run_backward("sign2gloss+text", LossWeights(5.0, 1.0))
        grads = {n: p.grad for n, p in m.named_parameters().items()}
        assert np.any(grads["encoder.gloss_proj.weight"])
        assert np.any(grads["decoder.word_proj.weight"])
        assert np.any(grads["spatial.weight"])
        assert grads["gloss_words.table"] is None


class TestEncode:
    def test_frame_batch_keys_are_frames(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        for protocol in ("sign2gloss", "sign2text", "sign2gloss+text"):
            z, mask = m.encode(batch, protocol)
            assert mask is batch.src_mask
            want = m.encode_frames(batch.features, batch.src_mask)
            assert np.array_equal(z.data, want.data)

    def test_gloss_batch_keys_are_glosses(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z, mask = m.encode(batch, "gloss2text")
        assert np.array_equal(mask, batch.gloss_mask)
        # the encoder run by hand on the embedded glosses plus their positions
        rows = tf.Rows(batch.gloss_mask)
        pe = positional_encoding(batch.gloss_ids.shape[1], m.d).data[rows.positions]
        glosses = m.gloss_words.embed(rows.pack(batch.gloss_ids)) + Tensor(pe)
        want = rows.scatter(tf.run_encoder(glosses, rows, m.encoder))
        assert np.array_equal(z.data, want.data)

    def test_positions_of_any_length_read_the_one_table_bitwise(self):
        m = tiny_model()
        # short, long, short again: every length reads its own table's bits
        for length in (1, 3, 70, 2, 200, 65):
            assert m._positions(length).tobytes() == \
                positional_encoding(length, m.d).data.tobytes(), length

    def test_empty_gloss_row_reads_one_pad(self):
        m = tiny_model()
        gloss = Vocabulary({"A", "B", "C", "D"}, GLOSS_SPECIALS)
        text = Vocabulary({"u"}, TEXT_SPECIALS)
        frames = np.zeros((0, 5), dtype=np.float32)
        batch = data.make_batch([Sample("s0", frames, ("A", "B"), ("u",)),
                                 Sample("s1", frames, (), ("u",))], gloss, text)
        z, mask = m.encode(batch, "gloss2text")
        assert mask.tolist() == [[True, True], [True, False]]
        assert not batch.gloss_mask[1].any()  # the batch itself is untouched
        assert batch.gloss_ids[1, 0] == data.GLOSS_PAD
        assert np.all(np.isfinite(z.data))


class TestDecodingPathway:
    def test_prefix_logits_match_teacher_forcing(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        t = batch.frame_counts[0]
        z = m.encode_frames(batch.features[0, :t], np.ones(t, dtype=bool))
        prefix = [5, 7]
        got = m.prefix_logits(z, np.ones(t, dtype=bool), prefix)
        full = m.word_logits(np.array([data.TEXT_BOS, 5, 7]), z, np.ones(t, dtype=bool))
        assert np.array_equal(got, full.data[-1])

    def test_prefix_logits_batch_matches_singles(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z = m.encode_frames(batch.features, batch.src_mask)
        prefixes = [[4, 6], [8, 5]]
        got = m.prefix_logits_batch(z, batch.src_mask, [0, 1], prefixes)
        for row, (i, p) in enumerate(zip([0, 1], prefixes)):
            t = batch.frame_counts[i]
            alone = m.prefix_logits(
                Tensor(z.data[i]), batch.src_mask[i], p
            )
            assert np.allclose(got[row], alone, atol=1e-12)

    def test_mismatched_prefix_lengths_rejected(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z = m.encode_frames(batch.features, batch.src_mask)
        with pytest.raises(ContractError):
            m.prefix_logits_batch(z, batch.src_mask, [0, 1], [[1], [1, 2]])

    def test_greedy_decode_runs_end_to_end(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        t = batch.frame_counts[0]
        z = m.encode_frames(batch.features[0, :t], np.ones(t, dtype=bool))
        hyp = decoding.ar_greedy(z, np.ones(t, dtype=bool), m, max_len=5)
        assert hyp.finished or len(hyp.tokens) == 5
        assert all(0 <= w < 9 for w in hyp.words())

    def test_beam_decode_runs_end_to_end(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        t = batch.frame_counts[1]
        z = m.encode_frames(batch.features[1, :t], np.ones(t, dtype=bool))
        cfg = decoding.DecodeConfig(beam_width=3, alpha=1.0, max_len=5)
        hyp = decoding.ar_beam_search(z, np.ones(t, dtype=bool), m, cfg)
        assert hyp.log_prob <= 0.0

    def test_batched_greedy_matches_sequential(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        z = m.encode_frames(batch.features, batch.src_mask)
        got = decoding.ar_greedy_batch(z, batch.src_mask, m, max_len=6)
        for i in range(2):
            t = batch.frame_counts[i]
            alone = decoding.ar_greedy(
                Tensor(z.data[i, :t]), batch.src_mask[i, :t], m, max_len=6
            )
            assert got[i].tokens == alone.tokens, i

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_batched_beam_equals_full_recompute_oracle(self, width, alpha):
        # the oracle scores each prefix by a teacher-forced single-sequence
        # forward; the search batches all live beams into one forward
        batch, _, _ = tiny_batch()
        cfg = decoding.DecodeConfig(beam_width=width, alpha=alpha, max_len=6)
        forbid = (data.TEXT_PAD, data.TEXT_BOS)
        for seed in (2, 3):
            m = tiny_model(seed=seed)
            # sharpened decoder weights make the next word depend on prefix
            # and source; at init the tiny model just emits <eos>
            for name, p in m.named_parameters().items():
                if name.startswith(("decoder.", "words.")) and p.ndim == 2:
                    p.data = p.data * 3.0
            z = m.encode_frames(batch.features, batch.src_mask).data
            for i in range(len(batch)):
                mask = batch.src_mask[i]

                def score(prefix):
                    tokens = np.array([data.TEXT_BOS, *prefix], dtype=np.int64)
                    return m.word_logits(tokens, Tensor(z[i]), mask).data[-1]

                got = decoding.ar_beam_search(z[i], mask, m, cfg, forbid=forbid)
                assert_same_hypotheses([got], [oracle_beam_search(score, cfg, forbid=forbid)],
                                       (seed, i))


    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_chunk_beam_equals_full_recompute_oracle(self, width, alpha):
        # five sources of unequal lengths and caps share every forward; each
        # must still get its own oracle result, whoever its chunk mates are
        caps = [6, 2, 4, 5, 1]
        # seed 4 gives each source a different greedy sentence, one finished
        m, z, mask = sharpened_chunk(seed=4)

        def scorer(i):
            def score(prefix):
                tokens = np.array([data.TEXT_BOS, *prefix], dtype=np.int64)
                return m.word_logits(tokens, Tensor(z[i]), mask[i]).data[-1]
            return score

        scorers = [scorer(i) for i in range(len(caps))]
        for forbid in ((), (data.TEXT_PAD, data.TEXT_BOS)):
            want = oracle_chunk(scorers, caps, width, alpha, forbid=forbid)
            for pick in ([0, 1, 2, 3, 4], [4, 2, 0], [3], [1, 4, 3, 0, 2]):
                pools = decoding.ar_beam_pools(z[pick], mask[pick], m, width,
                                               [caps[i] for i in pick], forbid=forbid)
                got = [decoding.best_hypothesis(pool, alpha) for pool in pools]
                assert_same_hypotheses(got, [want[i] for i in pick], (forbid, pick))


def assert_same_hypotheses(got, want, msg):
    """The same tokens and finished flags, and scores equal up to float64
    round-off: a cached step may round differently from the oracle's
    whole-prefix forward."""
    assert [(h.tokens, h.finished) for h in got] == [(h.tokens, h.finished) for h in want], msg
    assert all(abs(g.log_prob - w.log_prob) <= 1e-12 for g, w in zip(got, want)), msg


def sharpened_chunk(seed=4):
    """Five sources of unequal lengths and a tiny model whose decoded words
    depend on source and prefix (sharpened decoder weights)."""
    rng = np.random.default_rng(11)
    gloss = Vocabulary({"A"}, GLOSS_SPECIALS)
    text = Vocabulary({"u"}, TEXT_SPECIALS)
    samples = [Sample(f"s{i}", rng.normal(size=(t, 5)).astype(np.float32), (), ())
               for i, t in enumerate([6, 3, 8, 5, 2])]
    batch = data.make_batch(samples, gloss, text)
    m = tiny_model(seed=seed)
    for name, p in m.named_parameters().items():
        if name.startswith(("decoder.", "words.")) and p.ndim == 2:
            p.data = p.data * 3.0
    return m, m.encode_frames(batch.features, batch.src_mask).data, batch.src_mask


class OracleCheckedSteps:
    """The model's start/step pathway; every row of every step is checked
    against prefix_logits_batch on the same source and prefix."""

    def __init__(self, model):
        self.model = model
        self.rows = []  # (source, prefix) per row of the last step
        self.checked = []  # prefix length of every row checked

    def start(self, z_batch, mask_batch):
        self.z_batch, self.mask_batch = z_batch, mask_batch
        return self.model.start(z_batch, mask_batch)

    def step(self, state, parent_rows, tokens):
        if tokens is None:
            self.rows = [(i, ()) for i in parent_rows]
        else:
            self.rows = [(self.rows[p][0], self.rows[p][1] + (w,))
                         for p, w in zip(parent_rows, tokens)]
        got = self.model.step(state, parent_rows, tokens)
        want = self.model.prefix_logits_batch(self.z_batch, self.mask_batch,
                                              [i for i, _ in self.rows],
                                              [prefix for _, prefix in self.rows])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12, self.rows
        self.checked.extend(len(prefix) for _, prefix in self.rows)
        return got


class TestCachedSteps:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_every_search_step_matches_the_prefix_oracle(self, width):
        # unequal caps, and some hypotheses finish before their caps
        m, z, mask = sharpened_chunk()
        caps = [6, 2, 4, 5, 1]
        checked = OracleCheckedSteps(m)
        pools = decoding.ar_beam_pools(z, mask, checked, width, caps,
                                       forbid=(data.TEXT_PAD, data.TEXT_BOS))
        assert any(h.finished and len(h.tokens) < cap
                   for pool, cap in zip(pools, caps) for h in pool)
        assert max(checked.checked) == max(caps) - 1

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_each_step_feeds_one_position_per_row(self, width, monkeypatch):
        m, z, mask = sharpened_chunk()
        fed = []  # m shape of every cached step
        rows = []  # rows fed at every step
        step = tf.DecoderCache.step

        def counted(cache, m_step):
            fed.append(m_step.shape)
            return step(cache, m_step)

        monkeypatch.setattr(tf.DecoderCache, "step", counted)
        lengths = []  # (prefix length, state.length after the step) per step

        class Recorded:
            def start(self, z_batch, mask_batch):
                return m.start(z_batch, mask_batch)

            def step(self, state, parent_rows, tokens):
                prefix = 0 if tokens is None else lengths[-1][0] + 1
                rows.append(len(parent_rows))
                logits = m.step(state, parent_rows, tokens)
                lengths.append((prefix, state.length))
                return logits

        decoding.ar_beam_pools(z, mask, Recorded(), width, [6, 2, 4, 5, 1],
                               forbid=(data.TEXT_PAD, data.TEXT_BOS))
        assert len(fed) == len(lengths) > 1
        assert fed == [(n, m.d) for n in rows]
        assert all(length == prefix + 1 for prefix, length in lengths), lengths

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_permuted_and_repeated_parents(self, width):
        m, z, mask = sharpened_chunk()
        checked = OracleCheckedSteps(m)
        state = checked.start(z, mask)
        checked.step(state, [0, 1, 2, 3, 4], None)
        checked.step(state, [3, 0, 4, 1, 2], [5, 6, 7, 8, 3])
        checked.step(state, [1] * width, [4, 5, 6, 7][:width])
        checked.step(state, list(range(width))[::-1], [3, 8, 4, 6][:width])
        assert {source for source, _ in checked.rows} == {0}  # through row 1 of step 2

    def test_step_logits_are_pinned(self):
        # the bits of a fixed step sequence: the first step, identity parents,
        # permuted parents, then repeated parents that shrink the rows to four
        # and a step that grows them to six, each re-gathering the cross keys
        m, z, mask = sharpened_chunk()
        state = m.start(z, mask)
        h = hashlib.sha256()
        for parents, tokens in [([0, 1, 2, 3, 4], None),
                                ([0, 1, 2, 3, 4], [5, 6, 7, 8, 3]),
                                ([3, 0, 4, 1, 2], [4, 5, 6, 7, 8]),
                                ([1, 1, 2, 2], [3, 4, 5, 6]),
                                ([3, 0, 2, 1, 0, 3], [8, 7, 6, 5, 4, 3])]:
            h.update(m.step(state, parents, tokens).tobytes())
        assert h.hexdigest() == "210e7acad5bbdf02274dcd0851728aa1048ee1fa33205888d311bc3d99bcca0f"

    def test_steps_record_nothing_on_an_active_tape(self):
        m, z, mask = sharpened_chunk()
        with Graph() as g:
            state = m.start(z, mask)
            m.step(state, [0, 1, 2, 3, 4], None)
            m.step(state, [3, 0, 4, 1, 2], [5, 6, 7, 8, 3])
        assert g.nodes == []

    def test_malformed_steps_are_contract_errors(self):
        m, z, mask = sharpened_chunk()
        state = m.start(z, mask)
        # tokens before any position would feed a word with no <bos> before it
        with pytest.raises(ContractError, match="only there, got tokens at position 0"):
            m.step(state, [0, 1, 2, 3, 4], [5, 6, 7, 8, 3])
        assert state.length == 0
        m.step(state, [0, 1, 2, 3, 4], None)
        # None after the first step would feed <bos> inside a sentence
        with pytest.raises(ContractError, match="only there, got None at position 1"):
            m.step(state, [0, 1, 2, 3, 4], None)
        with pytest.raises(ContractError, match="3 tokens for 5 rows"):
            m.step(state, [0, 1, 2, 3, 4], [5, 6, 7])
        for parents in ([0, 1, 5], [-1, 0]):
            with pytest.raises(ContractError, match="the 5 the step before kept"):
                m.step(state, parents, [5] * len(parents))
        with pytest.raises(VocabularyError):
            m.step(state, [4, 3], [5, m.n_words])
        # a refused step leaves the state as it was
        assert (state.length, len(state.sources)) == (1, 5)
        m.step(state, [4, 3], [5, 6])
        with pytest.raises(ContractError, match="the 2 the step before kept"):
            m.step(state, [2], [5])

    def test_one_word_at_a_time_reproduces_teacher_forcing(self):
        m, z, mask = sharpened_chunk()
        text_in = np.random.default_rng(12).integers(3, 9, size=(5, 6))
        text_in[:, 0] = data.TEXT_BOS
        full = m.word_logits(text_in, Tensor(z), mask).data
        state = m.start(z, mask)
        rows = list(range(5))
        for u in range(6):
            got = m.step(state, rows, None if u == 0 else text_in[:, u].tolist())
            assert np.max(np.abs(got - full[:, u])) <= 1e-12, u

    def test_one_position_steps_need_no_causal_mask(self, monkeypatch):
        # a new position may attend to every kept one, so a cached step
        # passes no self-attention mask; an all-true one gives the same bits
        m, z, mask = sharpened_chunk()
        text_in = np.random.default_rng(13).integers(3, 9, size=(5, 6))

        def steps():
            state = m.start(z, mask)
            return [m.step(state, [4, 3, 2, 1, 0] if u else list(range(5)),
                           text_in[:, u].tolist() if u else None) for u in range(6)]

        without = steps()
        attention_probs = kernels.attention_probs
        unmasked = []

        def all_true(q, k, scale, fill, fill_value):
            if fill is None:  # the fill of an all-true mask is all false
                unmasked.append(k.shape[-2])
                fill = ~np.ones((1, k.shape[-2]), dtype=bool)
            return attention_probs(q, k, scale, fill, fill_value)

        monkeypatch.setattr(kernels, "attention_probs", all_true)
        with_mask = steps()
        assert unmasked == [u + 1 for u in range(6) for _ in m.decoder.layers]
        for got, want in zip(without, with_mask):
            assert got.tobytes() == want.tobytes()

    def test_step_makes_one_in_projection_per_self_attention_layer(self, monkeypatch):
        # per layer: the joined q|k|v projection and the output projection of
        # self-attention, the query and output projections of cross-attention
        # (its keys and values come from the cache), and the FFN's two; then
        # the word projection
        m, z, mask = sharpened_chunk()
        state = m.start(z, mask)
        calls = []
        affine = kernels.affine

        def counted(x, w, b):
            calls.append(w.shape)
            return affine(x, w, b)

        monkeypatch.setattr(kernels, "affine", counted)
        m.step(state, list(range(5)), None)
        n_layers = len(m.decoder.layers)
        assert len(calls) == 6 * n_layers + 1, calls
        assert calls.count((m.d, 3 * m.d)) == n_layers

    def test_identity_steps_gather_no_kept_keys(self, monkeypatch):
        # a greedy search continues every row from itself until a row
        # finishes; those steps must keep the cached keys and values as they
        # are, not gather a copy of them
        m, z, mask = sharpened_chunk()
        select = tf.DecoderCache.select
        steps = []  # (identity parents, kept arrays replaced) per select

        def recorded(cache, parent_rows):
            before = [kv for pair in cache.self_kv for kv in pair]
            select(cache, parent_rows)
            after = [kv for pair in cache.self_kv for kv in pair]
            identity = list(parent_rows) == list(range(len(before[0])))
            steps.append((identity, any(a is not b for a, b in zip(before, after))))

        monkeypatch.setattr(tf.DecoderCache, "select", recorded)
        decoding.ar_greedy_batch(z, mask, m, [6, 2, 4, 5, 1])
        assert sum(identity for identity, _ in steps) > 1
        assert not any(copied for identity, copied in steps if identity), steps
        assert any(copied for identity, copied in steps if not identity), steps

    def test_source_without_keys_rejected_at_start(self):
        m, z, mask = sharpened_chunk()
        mask = mask.copy()
        mask[2] = False
        with pytest.raises(ContractError):
            m.start(z, mask)
        with pytest.raises(ContractError):
            decoding.ar_greedy_batch(z, mask, m, 3)


@pytest.fixture(scope="module")
def acceptance_chunks(acceptance_dev):
    """The acceptance-settings dev split, encoded in chunks of 7."""
    m, dev, gloss, text = acceptance_dev
    return m, encode_split(m, dev, gloss, text, "sign2gloss+text", batch_size=7)


class TestOnePassPools:
    @pytest.mark.parametrize("width", range(2, 11))
    def test_one_pass_equals_greedy_then_beam(self, width, acceptance_chunks):
        # the greedy and beam tracks of one search give the pools of a greedy
        # pass followed by a beam pass, scores up to round-off: a decode
        # step's projections are one GEMM over its rows, whose last bits
        # depend on how many rows share it
        m, encoded = acceptance_chunks
        finished = set()
        for _batch, z, mask, estimates, _positions in encoded:
            caps = [max(1, 3 * e - i % 4) for i, e in enumerate(estimates)]
            greedy = decoding.ar_greedy_batch(z, mask, m, caps, forbid=FORBIDDEN_WORDS)
            beams = decoding._search(z, mask, m, [(i, width, c) for i, c in enumerate(caps)],
                                     FORBIDDEN_WORDS)
            pools = decoding.ar_beam_pools(z, mask, m, width, caps, forbid=FORBIDDEN_WORDS)
            assert len(pools) == len(caps)
            for i, (pool, b, g) in enumerate(zip(pools, beams, greedy)):
                assert_same_hypotheses(pool, b + [g], (width, i))
            finished |= {h.finished for pool in pools for h in pool}
        assert finished == {True, False}


class TestLossRouting:
    def test_sign2gloss_has_no_translation_term(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        total, loss_r, loss_t, _ = batch_losses(
            m, batch, LossWeights(1.0, 0.0), "sign2gloss"
        )
        assert loss_t is None
        assert np.isclose(total.data, loss_r.data)

    def test_sign2text_has_no_recognition_term(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        total, loss_r, loss_t, _ = batch_losses(
            m, batch, LossWeights(0.0, 1.0), "sign2text"
        )
        assert loss_r is None
        assert np.isclose(total.data, loss_t.data)

    def test_gloss2text_translates_from_gloss_tokens(self):
        m = tiny_model()
        batch, _, _ = tiny_batch()
        total, loss_r, loss_t, _ = batch_losses(
            m, batch, LossWeights(0.0, 1.0), "gloss2text"
        )
        assert loss_r is None and total is not None

    def test_lambda_selects_components(self):
        # total = lambda_r * L_R + lambda_t * L_T; a zero weight drops its term
        m = tiny_model()
        batch, _, _ = tiny_batch()
        for lr, lt in ((0.0, 1.0), (1.0, 0.0), (5.0, 1.0), (0.5, 2.0)):
            total, loss_r, loss_t, _ = batch_losses(
                m, batch, LossWeights(lr, lt), "sign2gloss+text"
            )
            assert total.data == lr * loss_r.data + lt * loss_t.data

    def test_gradient_scales_with_weights(self):
        def grads(weights):
            m = tiny_model()
            batch, _, _ = tiny_batch()
            with Graph() as g:
                total, _, _, _ = batch_losses(m, batch, weights, "sign2gloss+text")
                ad.backward(g, total)
            return m.spatial.weight.grad

        g_r = grads(LossWeights(1.0, 0.0))
        g_t = grads(LossWeights(0.0, 1.0))
        assert np.any(g_r) and np.any(g_t)
        assert np.allclose(grads(LossWeights(5.0, 1.0)), 5.0 * g_r + g_t,
                           rtol=1e-10, atol=1e-12)

    def test_infeasible_targets_reported(self):
        gloss = Vocabulary({"A", "B", "C", "D"}, GLOSS_SPECIALS)
        text = Vocabulary({"u"}, TEXT_SPECIALS)
        rng = np.random.default_rng(0)
        # 2 frames cannot carry 3 glosses; make_batch does not police this,
        # the loss layer skips and reports.
        samples = [
            Sample("bad", rng.normal(size=(2, 5)).astype(np.float32), ("A", "B", "C"), ("u",)),
            Sample("ok", rng.normal(size=(6, 5)).astype(np.float32), ("D",), ("u",)),
        ]
        batch = data.make_batch(samples, gloss, text)
        m = tiny_model()
        total, loss_r, _, skipped = batch_losses(
            m, batch, LossWeights(1.0, 1.0), "sign2gloss+text"
        )
        assert skipped == [0]
        assert np.isfinite(loss_r.data)

    def test_train_losses_are_finite_and_graph_backed(self):
        m = tiny_model(dropout=0.1)
        batch, _, _ = tiny_batch()
        rng = np.random.default_rng(5)
        with Graph() as g:
            total, _, _, _ = batch_losses(
                m, batch, LossWeights(5.0, 1.0), "sign2gloss+text",
                train=True, rng=rng,
            )
            assert np.isfinite(total.data)
            ad.backward(g, total)
        assert m.spatial.weight.grad is not None


class TestWholeModelGradients:
    """The composed network's gradient against central differences.

    Criterion 2 checks ops one at a time; this checks every trainable
    parameter's gradient of batch_losses through the whole model on a
    ragged padded batch, so a wrong join between ops (a mask, a residual,
    a padded row that leaks) shows here.
    """

    def test_training_step_is_pinned(self):
        # the bits of one sign2gloss+text training step: a ragged batch, two
        # decoder layers, dropout on and a fixed rng; the loss, then every
        # trainable parameter's name and gradient
        batch, gloss, text = ragged_fd_batch()
        m = tiny_model(dropout=0.1, d_in=3, n_glosses=len(gloss), n_words=len(text))
        with Graph() as g:
            total, *_ = batch_losses(m, batch, LossWeights(5.0, 1.0), "sign2gloss+text",
                                     train=True, rng=np.random.default_rng(33))
            ad.backward(g, total)
        h = hashlib.sha256(total.data.tobytes())
        for name, p in m.trainable_parameters("sign2gloss+text").items():
            h.update(name.encode())
            h.update(p.grad.tobytes())
        assert h.hexdigest() == "52cfbc829775e773cb98f91913c161d2be5948efe09cbbfc8ae297535e375f16"

    @pytest.mark.parametrize("protocol,train", [("sign2gloss+text", True),
                                                ("gloss2text", False)])
    def test_batch_loss_gradient_matches_finite_differences(self, protocol, train):
        from conftest import assert_grad_close, finite_difference_grad

        batch, gloss, text = ragged_fd_batch()
        m = JointModel(d_in=3, d=4, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                       n_glosses=len(gloss), n_words=len(text), d_ff=6, dropout=0.0, seed=31)
        weights = LossWeights(1.0, 1.0)
        params = m.trainable_parameters(protocol)
        with Graph() as g:
            total, _, _, skipped = batch_losses(m, batch, weights, protocol, train=train)
            ad.backward(g, total)
        assert skipped == []
        analytic = {name: p.grad.copy() for name, p in params.items()}

        for name, p in params.items():
            original = p.data

            def loss_at(x, p=p):
                p.data = x
                return float(batch_losses(m, batch, weights, protocol, train=train)[0].data)

            numeric = finite_difference_grad(loss_at, original)
            p.data = original
            assert np.any(analytic[name]), name
            assert_grad_close(analytic[name], numeric)
