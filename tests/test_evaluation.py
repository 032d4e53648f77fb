"""Corpus evaluation and decode-parameter sweep tests."""

import dataclasses
import hashlib

import numpy as np
import pytest

from signscribe import data, evaluation
from signscribe.data import GLOSS_SPECIALS, TEXT_SPECIALS, Sample, Vocabulary
from signscribe.errors import ContractError, CorpusError
from signscribe.evaluation import (
    SWEEP_ALPHAS,
    SWEEP_WIDTHS,
    corpus_wer,
    evaluate_corpus,
    encode_split,
    decode_glosses,
    decode_sentences,
    sweep_decode_parameters,
)
from signscribe.metrics import bleu
from signscribe.model import JointModel

from conftest import ReplayDecoder


class TestCorpusWer:
    def test_pooled_counts(self):
        # pair 1 perfect (N=3), pair 2 has one substitution (N=2):
        # corpus WER = 1/5 = 20%
        refs = [["a", "b", "c"], ["a", "b"]]
        hyps = [["a", "b", "c"], ["a", "x"]]
        report = corpus_wer(refs, hyps)
        assert report.ref_len == 5
        assert report.substitutions == 1
        assert np.isclose(report.wer, 20.0)

    def test_pooling_differs_from_averaging(self):
        # 1 error over N=1 plus 0 errors over N=9: pooled 10%, mean 50%
        refs = [["a"], list("bcdefghij")]
        hyps = [["x"], list("bcdefghij")]
        assert np.isclose(corpus_wer(refs, hyps).wer, 10.0)

    def test_accepts_strings(self):
        report = corpus_wer(["a b"], ["a b"])
        assert report.wer == 0.0

    def test_no_references_is_corpus_error(self):
        with pytest.raises(CorpusError):
            corpus_wer([], [])

    def test_empty_reference_counts_its_hypothesis_as_insertions(self):
        report = corpus_wer([[], ["a", "b"]], [["x"], ["a", "b"]])
        assert (report.insertions, report.ref_len) == (1, 2)
        assert report.wer == 50.0

    def test_hypothesis_count_must_match_references(self):
        with pytest.raises(ContractError, match="got 1 hypotheses for 2 references"):
            corpus_wer([["a"], ["b", "c"]], [["a"]])
        with pytest.raises(ContractError, match="got 2 hypotheses for 1 references"):
            corpus_wer([["a"]], [["a"], ["b"]])

    def test_only_empty_references_is_corpus_error(self):
        with pytest.raises(CorpusError, match="at least one non-empty reference"):
            corpus_wer([[], " "], [["x"], []])


def small_setup(seed=3):
    rng = np.random.default_rng(seed)
    gloss = Vocabulary({"A", "B", "C"}, GLOSS_SPECIALS)
    text = Vocabulary({"u", "v", "w", "x"}, TEXT_SPECIALS)
    samples = [
        Sample(f"s{i}", rng.normal(size=(t, 4)).astype(np.float32),
               tuple(g), tuple(s))
        for i, (t, g, s) in enumerate([
            (7, ("A", "B"), ("u", "v")),
            (5, ("C",), ("w",)),
            (9, ("B", "C", "A"), ("x", "u", "w")),
        ])
    ]
    model = JointModel(
        d_in=4, d=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        n_glosses=len(gloss), n_words=len(text), d_ff=16, dropout=0.0,
        seed=seed,
    )
    return model, samples, gloss, text


class TestEvaluateCorpus:
    def test_joint_reports_both_metrics(self):
        model, samples, gloss, text = small_setup()
        report = evaluate_corpus(model, samples, gloss, text, "sign2gloss+text")
        assert report.n_samples == 3
        assert 0.0 <= report.wer.wer
        assert 0.0 <= report.bleu.bleu4 <= 100.0

    def test_recognition_only_has_no_bleu(self):
        model, samples, gloss, text = small_setup()
        report = evaluate_corpus(model, samples, gloss, text, "sign2gloss")
        assert report.bleu is None
        assert report.wer is not None

    def test_gloss_input_protocol_has_no_wer(self):
        model, samples, gloss, text = small_setup()
        report = evaluate_corpus(model, samples, gloss, text, "gloss2text")
        assert report.wer is None
        assert report.bleu is not None

    def test_deterministic(self):
        model, samples, gloss, text = small_setup()
        a = evaluate_corpus(model, samples, gloss, text, "sign2gloss+text")
        b = evaluate_corpus(model, samples, gloss, text, "sign2gloss+text")
        assert a == b

    def test_beam_settings_recorded(self):
        model, samples, gloss, text = small_setup()
        report = evaluate_corpus(model, samples, gloss, text,
                                 "sign2gloss+text", beam_width=2, alpha=1.0)
        assert report.beam_width == 2
        assert report.alpha == 1.0

    def test_unseen_gloss_is_a_missed_reference_token_under_frame_input(self):
        model, samples, gloss, text = small_setup()
        unseen = samples[:2] + [dataclasses.replace(samples[2], glosses=("B", "ZZZ", "A"))]
        got = evaluate_corpus(model, unseen, gloss, text, "sign2gloss+text").wer
        want = corpus_wer([list(s.glosses) for s in unseen],
                          decode_glosses(model, encode_split(model, samples, gloss, text,
                                                             "sign2gloss+text"), gloss))
        assert got == want and got.ref_len == 6

    @pytest.mark.parametrize("sweep", [False, True])
    def test_unseen_gloss_is_refused_as_gloss_input(self, sweep):
        model, samples, gloss, text = small_setup()
        unseen = [samples[0], dataclasses.replace(samples[1], glosses=("C", "ZZZ"))]
        run = sweep_decode_parameters if sweep else evaluate_corpus
        with pytest.raises(CorpusError, match="^s1: gloss 'ZZZ' is not in the train split's "
                                              "vocabulary, so it cannot be model input$"):
            run(model, unseen, gloss, text, "gloss2text")

    @pytest.mark.parametrize("protocol", ["sign2gloss", "sign2text", "gloss2text"])
    def test_empty_split_is_corpus_error(self, protocol):
        model, _, gloss, text = small_setup()
        with pytest.raises(CorpusError, match="empty split"):
            evaluate_corpus(model, [], gloss, text, protocol)
        with pytest.raises(CorpusError, match="empty split"):
            sweep_decode_parameters(model, [], gloss, text, protocol)

    def test_small_batches_match_one_batch(self):
        model, samples, gloss, text = small_setup()
        a = evaluate_corpus(model, samples, gloss, text, "sign2gloss+text",
                            batch_size=1)
        b = evaluate_corpus(model, samples, gloss, text, "sign2gloss+text",
                            batch_size=32)
        assert a.wer == b.wer
        assert a.bleu == b.bleu


class TestEmptyGlossInput:
    def test_empty_sample_decodes_beside_the_others(self):
        model, samples, gloss, text = small_setup()
        empty = Sample("empty", samples[0].features, (), ("u",))
        with_empty = samples[:2] + [empty] + samples[2:]
        encoded = encode_split(model, with_empty, gloss, text, "gloss2text")
        alone = encode_split(model, samples, gloss, text, "gloss2text")
        (_, z, mask, estimates, positions), = encoded
        (_, z_alone, mask_alone, _, positions_alone), = alone
        # the chunk row of each split position (chunks are length-sorted)
        rows, rows_alone = np.argsort(positions), np.argsort(positions_alone)
        assert [estimates[r] for r in rows] == [2, 1, 1, 3]
        assert mask[rows[2]].tolist() == [True, False, False]
        keep = [0, 1, 3]
        assert np.array_equal(mask[rows[keep]], mask_alone[rows_alone])
        assert np.array_equal(z[rows[keep]], z_alone[rows_alone])
        for width in (0, 2):
            got = decode_sentences(model, encoded, text, width, 1.0)
            want = decode_sentences(model, alone, text, width, 1.0)
            assert [got[i] for i in keep] == want


class TestGlossBeam:
    PROTOCOL = "sign2gloss+text"

    def test_glosses_are_pinned(self, acceptance_dev):
        # the glosses of the 20-sample dev split in ragged chunks of 7, 7 and 6
        m, dev, gloss, text = acceptance_dev
        encoded = encode_split(m, dev, gloss, text, self.PROTOCOL, batch_size=7)
        h = hashlib.sha256()
        for width in (1, 4, 10):
            h.update(repr(decode_glosses(m, encoded, gloss, width)).encode())
        assert h.hexdigest() == "98b732e448c97884694dbc7cbf7ca0964dce79f0472175243d9ac8e4005dffb4"

    def test_the_split_is_one_search(self, acceptance_dev, monkeypatch):
        m, dev, gloss, text = acceptance_dev
        calls = []
        search = evaluation.decoding.ctc_beam_search_batch

        def counted(log_probs, frame_counts, width):
            calls.append((log_probs.shape, list(frame_counts)))
            return search(log_probs, frame_counts, width)

        monkeypatch.setattr(evaluation.decoding, "ctc_beam_search_batch", counted)
        encoded = encode_split(m, dev, gloss, text, self.PROTOCOL, batch_size=7)
        decode_glosses(m, encoded, gloss, 4)
        (shape, counts), = calls
        assert shape == (len(dev), max(s.n_frames for s in dev), len(gloss))
        assert counts == [dev[p].n_frames for *_, positions in encoded for p in positions]
        assert decode_glosses(m, [], gloss, 4) == []

    def test_glosses_do_not_depend_on_the_chunking(self, acceptance_dev):
        # one search over the split decodes each sample as its chunk would
        m, dev, gloss, text = acceptance_dev
        for width in range(1, 11):
            got = [decode_glosses(m, encode_split(m, dev, gloss, text, self.PROTOCOL, size),
                                  gloss, width) for size in (1, 7, 32, len(dev))]
            assert all(g == got[0] for g in got[1:]), width


class TestSplitOrder:
    """encode_split chunks a split by input length; every decoder returns
    its results in the caller's order, so a permuted split decodes to the
    permuted results."""

    PROTOCOL = "sign2gloss+text"

    @pytest.fixture(scope="class")
    def splits(self, acceptance_dev):
        m, dev, gloss, text = acceptance_dev
        perm = np.random.default_rng(13).permutation(len(dev))
        return m, dev, [dev[i] for i in perm], perm, gloss, text

    @pytest.mark.parametrize("protocol", ["sign2gloss+text", "gloss2text"])
    def test_chunks_cover_the_split_in_length_order(self, splits, protocol):
        m, dev, permuted, _, gloss, text = splits

        def length(sample):
            return len(sample.glosses) if protocol == "gloss2text" else sample.n_frames

        for split in (dev, permuted):
            encoded = encode_split(m, split, gloss, text, protocol, batch_size=7)
            assert [len(positions) for *_, positions in encoded] == [7, 7, 6]
            order = [p for *_, positions in encoded for p in positions]
            assert sorted(order) == list(range(len(split)))
            lengths = [length(split[p]) for p in order]
            assert lengths == sorted(lengths)
            assert [length(s) for s in split] != lengths  # the split itself is not sorted
            for batch, *_, positions in encoded:
                assert batch.ids == tuple(split[p].id for p in positions)

    @pytest.mark.parametrize("width", [0, 4])
    def test_glosses_follow_the_callers_order(self, splits, width):
        m, dev, permuted, perm, gloss, text = splits
        got = decode_glosses(m, encode_split(m, dev, gloss, text, self.PROTOCOL, 7),
                             gloss, width)
        got_permuted = decode_glosses(m, encode_split(m, permuted, gloss, text,
                                                      self.PROTOCOL, 7), gloss, width)
        assert got_permuted == [got[i] for i in perm]
        alone = [decode_glosses(m, encode_split(m, [s], gloss, text, self.PROTOCOL), gloss,
                                width)[0] for s in dev]
        assert got == alone
        assert len({tuple(g) for g in got}) > 1

    @pytest.mark.parametrize("width", [0, 1, 4])
    def test_sentences_follow_the_callers_order(self, splits, width):
        m, dev, permuted, perm, gloss, text = splits
        got = decode_sentences(m, encode_split(m, dev, gloss, text, self.PROTOCOL, 7),
                               text, width, 1.0)
        got_permuted = decode_sentences(m, encode_split(m, permuted, gloss, text,
                                                        self.PROTOCOL, 7), text, width, 1.0)
        assert got_permuted == [got[i] for i in perm]
        alone = [decode_sentences(m, encode_split(m, [s], gloss, text, self.PROTOCOL), text,
                                  width, 1.0)[0] for s in dev]
        assert got == alone
        assert len({tuple(s) for s in got}) > 1

    def test_sweep_is_order_free(self, splits, monkeypatch):
        # the untrained model scores BLEU-4 0 everywhere, so the sentences
        # each grid point scores are compared as well
        m, dev, permuted, perm, gloss, text = splits
        widths, alphas = (0, 1, 2, 4), (0.0, 1.0, 2.0)
        scored = []

        def recording_bleu(refs, hyps):
            scored.append(hyps)
            return bleu(refs, hyps)

        monkeypatch.setattr(evaluation, "bleu", recording_bleu)
        kwargs = dict(batch_size=7, widths=widths, alphas=alphas)
        result = sweep_decode_parameters(m, dev, gloss, text, self.PROTOCOL, **kwargs)
        result_permuted = sweep_decode_parameters(m, permuted, gloss, text, self.PROTOCOL,
                                                  **kwargs)
        monkeypatch.undo()
        assert result_permuted == result
        grid = [(w, a) for w in widths for a in alphas]
        hyps, hyps_permuted = scored[:len(grid)], scored[len(grid):]
        encoded = encode_split(m, dev, gloss, text, self.PROTOCOL, 7)
        for (width, alpha), got, got_permuted in zip(grid, hyps, hyps_permuted):
            assert got == decode_sentences(m, encoded, text, width, alpha), (width, alpha)
            assert got_permuted == [got[i] for i in perm], (width, alpha)
        assert len({repr(h) for h in hyps}) > 1


class TestDecodedSentences:
    def test_no_reserved_tokens_in_output(self):
        model, samples, gloss, text = small_setup()
        encoded = encode_split(model, samples, gloss, text, "sign2gloss+text")
        for width in (0, 2):
            for sentence in decode_sentences(model, encoded, text, width, 0.0, 10):
                assert "<pad>" not in sentence
                assert "<bos>" not in sentence
                assert "<eos>" not in sentence

    def test_max_len_cap_respected(self):
        model, samples, gloss, text = small_setup()
        encoded = encode_split(model, samples, gloss, text, "sign2gloss+text")
        for sentence in decode_sentences(model, encoded, text, 0, 0.0, 2):
            assert len(sentence) <= 2


class CountingDecoder(ReplayDecoder):
    """Toy pathway that never emits <eos> and counts its batched forwards."""

    def __init__(self, n_words):
        self.n_words = n_words
        self.calls = 0

    def prefix_logits_batch(self, z_batch, mask_batch, indices, prefixes):
        self.calls += 1
        rows = np.stack([
            np.random.default_rng((int(z_batch[i]), len(p), *p)).normal(size=self.n_words)
            for i, p in zip(indices, prefixes)
        ])
        rows[:, data.TEXT_EOS] = -50.0
        return rows


class TestDecodeCost:
    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("n_sources", [1, 5, 17])
    def test_one_chunk_costs_two_forwards_per_step(self, width, n_sources):
        # one greedy pass plus one beam forward per step for the whole
        # chunk, however many sources it holds; width 1 is the greedy pass
        text = Vocabulary({"u", "v", "w", "x"}, TEXT_SPECIALS)
        estimates = [1 + i % 3 for i in range(n_sources)]
        encoded = [(None, list(range(n_sources)), [None] * n_sources, estimates,
                    list(range(n_sources)))]
        model = CountingDecoder(len(text))
        sentences = decode_sentences(model, encoded, text, width, 1.0)
        caps = [3 * e for e in estimates]
        assert [len(s) for s in sentences] == caps  # no source stopped early
        assert model.calls <= (1 if width == 1 else 2) * max(caps)


def sharpened_setup():
    # scaled decoder weights make the decoded words depend on the source and
    # the decode setting; at init the tiny model emits <eos> at once
    model, samples, gloss, text = small_setup(seed=10)
    for name, p in model.named_parameters().items():
        if name.startswith(("decoder.", "words.")) and p.ndim == 2:
            p.data = p.data * 3.0
    return model, samples, gloss, text


class TestSweep:
    def test_entries_equal_separate_decodes(self, monkeypatch):
        model, samples, gloss, text = sharpened_setup()
        widths, alphas = (0, 1, 2, 3), SWEEP_ALPHAS
        scored = []

        def recording_bleu(refs, hyps):
            scored.append(hyps)
            return bleu(refs, hyps)

        monkeypatch.setattr(evaluation, "bleu", recording_bleu)
        result = sweep_decode_parameters(model, samples, gloss, text, "sign2gloss+text",
                                         batch_size=2, max_len_cap=8,
                                         widths=widths, alphas=alphas)
        monkeypatch.undo()
        encoded = encode_split(model, samples, gloss, text, "sign2gloss+text")
        refs = [list(s.sentence) for s in samples]
        grid = [(w, a) for w in widths for a in alphas]
        assert [(e.beam_width, e.alpha) for e in result.entries] == grid
        for entry, hyps in zip(result.entries, scored):
            want = decode_sentences(model, encoded, text, entry.beam_width, entry.alpha, 8)
            assert hyps == want, (entry.beam_width, entry.alpha)
            assert entry.bleu4 == bleu(refs, want).bleu4
        # the grid is not degenerate: settings decode different sentences
        assert len({repr(h) for h in scored}) > 3


    def test_grid_shape_and_order(self):
        model, samples, gloss, text = small_setup()
        result = sweep_decode_parameters(
            model, samples, gloss, text, "sign2gloss+text",
            widths=(0, 1), alphas=(0.0, 1.0),
        )
        grid = [(e.beam_width, e.alpha) for e in result.entries]
        assert grid == [(0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)]

    def test_default_grid_is_11_by_5(self):
        assert len(SWEEP_WIDTHS) == 11
        assert len(SWEEP_ALPHAS) == 5

    def test_best_is_earliest_maximum(self):
        model, samples, gloss, text = small_setup()
        result = sweep_decode_parameters(
            model, samples, gloss, text, "sign2gloss+text",
            widths=(0, 1, 2), alphas=(0.0, 0.5),
        )
        top = max(e.bleu4 for e in result.entries)
        first = next(e for e in result.entries if e.bleu4 == top)
        assert (result.best_width, result.best_alpha) == (first.beam_width, first.alpha)

    def test_sweep_result_reproducible(self):
        model, samples, gloss, text = small_setup()
        kwargs = dict(widths=(0, 1), alphas=(0.0, 2.0))
        a = sweep_decode_parameters(model, samples, gloss, text,
                                    "sign2gloss+text", **kwargs)
        b = sweep_decode_parameters(model, samples, gloss, text,
                                    "sign2gloss+text", **kwargs)
        assert a == b
