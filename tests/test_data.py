"""Corpus layer tests: vocabularies, file formats, batching, synthesis."""

import json
import logging
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe import data
from signscribe.data import (
    GLOSS_PAD,
    TEXT_BOS,
    TEXT_EOS,
    TEXT_PAD,
    TEXT_UNK,
    Sample,
    Vocabulary,
)
from signscribe.errors import ConfigError, ContractError, CorpusError, VocabularyError


def write_corpus(root: Path, rows_by_split: dict):
    """rows: list of (id, features array, gloss string, text string)."""
    (root / "features").mkdir(parents=True, exist_ok=True)
    for split, rows in rows_by_split.items():
        lines = []
        for sid, feat, gloss, text in rows:
            rel = f"features/{sid}.sltf"
            data.write_features(root / rel, feat)
            lines.append(
                json.dumps(
                    {"id": sid, "features": rel, "gloss": gloss, "text": text},
                    sort_keys=True,
                )
            )
        (root / f"{split}.jsonl").write_text("\n".join(lines) + "\n")


def frames(t, d=4, fill=0.5):
    return np.full((t, d), fill, dtype=np.float32)


class TestVocabulary:
    def test_specials_then_sorted_tokens(self):
        v = Vocabulary({"zeta", "alpha", "mid"}, data.TEXT_SPECIALS)
        assert v.tokens == ("<pad>", "<bos>", "<eos>", "<unk>", "alpha", "mid", "zeta")
        assert v.index("<pad>") == TEXT_PAD
        assert v.index("<bos>") == TEXT_BOS
        assert v.index("<eos>") == TEXT_EOS
        assert v.index("<unk>") == TEXT_UNK

    def test_gloss_specials(self):
        v = Vocabulary({"HOUSE"}, data.GLOSS_SPECIALS)
        assert v.tokens == ("<blank>", "<pad>", "HOUSE")
        assert v.index("<blank>") == 0

    def test_oov_falls_back_to_unk_for_text(self):
        v = Vocabulary({"a"}, data.TEXT_SPECIALS)
        assert v.index("never-seen") == TEXT_UNK

    def test_oov_raises_without_unk(self):
        v = Vocabulary({"a"}, data.GLOSS_SPECIALS)
        with pytest.raises(VocabularyError):
            v.index("never-seen")

    def test_encode_decode_round_trip(self):
        v = Vocabulary({"x", "y", "z"}, data.TEXT_SPECIALS)
        ids = v.encode(["y", "x", "z"])
        assert v.decode(ids) == ["y", "x", "z"]

    def test_index_bounds(self):
        v = Vocabulary(set(), data.GLOSS_SPECIALS)
        with pytest.raises(VocabularyError):
            v.token(2)


class TestFeatureFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
        path = tmp_path / "x.sltf"
        data.write_features(path, arr)
        back = data.read_features(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sltf"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(CorpusError, match="magic"):
            data.read_features(path)

    def test_unsupported_version(self, tmp_path):
        import struct

        path = tmp_path / "v9.sltf"
        path.write_bytes(b"SLTF" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(CorpusError, match="version"):
            data.read_features(path)

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "short.sltf"
        path.write_bytes(b"SLTF" + struct.pack("<III", 1, 2, 3) + b"\x00" * 8)
        with pytest.raises(CorpusError, match="truncated"):
            data.read_features(path)


    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_reads_from_a_pipe(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32)
        path = tmp_path / "x.sltf"
        data.write_features(path, arr)
        r, w = os.pipe()
        os.write(w, path.read_bytes())  # 64 bytes fit the pipe buffer
        os.close(w)
        try:
            back = data.read_features(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_corpus_error(self, tmp_path, kind):
        path = tmp_path / "x.sltf"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(CorpusError, match=f"{path}: cannot read feature file"):
            data.read_features(path)


SLTF_BYTES = (b"SLTF" + struct.pack("<III", 1, 3, 2)
              + np.arange(6, dtype="<f4").tobytes())


class TestFeatureFileFuzz:
    """Truncated or byte-flipped SLTF input fails only with CorpusError."""

    @given(cut=st.integers(min_value=0, max_value=len(SLTF_BYTES) - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_truncation_is_corpus_error(self, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("sltf") / "cut.sltf"
        path.write_bytes(SLTF_BYTES[:cut])
        with pytest.raises(CorpusError):
            data.read_features(path)

    @given(at=st.integers(min_value=0, max_value=len(SLTF_BYTES) - 1),
           mask=st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_byte_flip_reads_whole_rows_or_is_corpus_error(self, tmp_path_factory, at, mask):
        raw = bytearray(SLTF_BYTES)
        raw[at] ^= mask
        path = tmp_path_factory.mktemp("sltf") / "flip.sltf"
        path.write_bytes(bytes(raw))
        try:
            got = data.read_features(path)
        except CorpusError:
            return
        t, d = struct.unpack("<II", bytes(raw[8:16]))
        assert got.shape == (t, d) and 16 + 4 * t * d <= len(raw)


class TestLoadCorpus:
    def test_two_sample_fixture_vocab(self, tmp_path):
        write_corpus(
            tmp_path,
            {
                "train": [
                    ("t0", frames(7), "B A", "hello world"),
                    ("t1", frames(9), "C A", "world again"),
                ]
            },
        )
        samples, gloss_vocab, text_vocab = data.load_corpus(tmp_path, "train")
        assert [s.id for s in samples] == ["t0", "t1"]
        assert gloss_vocab.tokens == ("<blank>", "<pad>", "A", "B", "C")
        assert text_vocab.tokens == (
            "<pad>", "<bos>", "<eos>", "<unk>", "again", "hello", "world",
        )

    def test_empty_train_manifest(self, tmp_path):
        (tmp_path / "train.jsonl").write_text("")
        with pytest.raises(CorpusError, match="empty train manifest"):
            data.load_corpus(tmp_path, "train")

    def test_dev_only_token_maps_to_unk(self, tmp_path):
        write_corpus(
            tmp_path,
            {
                "train": [("t0", frames(7), "A B", "one two")],
                "dev": [("d0", frames(7), "A B", "one mystery")],
            },
        )
        _, _, text_vocab = data.load_corpus(tmp_path, "dev")
        assert text_vocab.index("mystery") == TEXT_UNK
        assert "mystery" not in text_vocab

    def test_malformed_record_reports_line(self, tmp_path):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")]})
        manifest = tmp_path / "train.jsonl"
        manifest.write_text(manifest.read_text() + "{not json\n")
        with pytest.raises(CorpusError, match="train.jsonl:2"):
            data.load_corpus(tmp_path, "train")

    def test_missing_field_rejected(self, tmp_path):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")]})
        (tmp_path / "train.jsonl").write_text('{"id": "t0", "gloss": "A", "text": "x"}\n')
        with pytest.raises(CorpusError, match="features"):
            data.load_corpus(tmp_path, "train")

    @pytest.mark.parametrize("field, value", [("gloss", ["A"]), ("text", 7), ("id", None)])
    def test_non_string_field_rejected(self, tmp_path, field, value):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")]})
        manifest = tmp_path / "train.jsonl"
        rec = json.loads(manifest.read_text())
        rec[field] = value
        manifest.write_text(manifest.read_text() + json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match=f"train.jsonl:2: field '{field}' is not a string"):
            data.build_vocabularies(tmp_path)
        with pytest.raises(CorpusError, match="train.jsonl:2"):
            data.load_corpus(tmp_path, "train")

    def test_non_object_record_rejected(self, tmp_path):
        (tmp_path / "train.jsonl").write_text('["t0", "A"]\n')
        with pytest.raises(CorpusError, match="train.jsonl:1: malformed record"):
            data.load_corpus(tmp_path, "train")

    @pytest.mark.parametrize("feat, message", [
        (np.zeros((0, 4), dtype=np.float32), "empty feature sequence"),
        (np.array([[0.5, np.nan, 0.5, 0.5]] * 3, dtype=np.float32), "non-finite"),
        (np.array([[0.5, 0.5, np.inf, 0.5]] * 3, dtype=np.float32), "non-finite"),
        (np.zeros((3, 0), dtype=np.float32), "feature width 0, expected at least 1"),
    ])
    def test_unusable_features_rejected(self, tmp_path, feat, message):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")],
                                "dev": [("d0", feat, "", "x")]})
        with pytest.raises(CorpusError, match=f"d0: {message}"):
            data.load_corpus(tmp_path, "dev")
        with pytest.raises(CorpusError, match=message):
            data.check_features(feat, "d0")

    @pytest.mark.parametrize("features", ["../outside.sltf", "features/../../outside.sltf",
                                          "/tmp/outside.sltf"])
    def test_features_outside_root_rejected(self, tmp_path, features):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")]})
        manifest = tmp_path / "train.jsonl"
        rec = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**rec, "id": "t1", "features": features}) + "\n"
                            + manifest.read_text())
        with pytest.raises(CorpusError, match="train.jsonl:1: features path .* leaves"):
            data.load_corpus(tmp_path, "train")

    @pytest.mark.parametrize("features", ["", ".", "features/..", "./"])
    def test_features_naming_the_root_rejected(self, tmp_path, features):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")]})
        manifest = tmp_path / "train.jsonl"
        rec = json.loads(manifest.read_text())
        manifest.write_text(manifest.read_text()
                            + json.dumps({**rec, "id": "t1", "features": features}) + "\n")
        with pytest.raises(CorpusError, match="train.jsonl:2: features path .* names the "
                                              "corpus root"):
            data.load_corpus(tmp_path, "train")

    def test_missing_feature_file_is_corpus_error(self, tmp_path):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")],
                                "dev": [("d0", frames(5), "A", "x"),
                                        ("d1", frames(5), "A", "x")]})
        (tmp_path / "features" / "d1.sltf").unlink()
        with pytest.raises(CorpusError, match="d1.sltf: cannot read feature file"):
            data.load_corpus(tmp_path, "dev")

    def test_features_path_may_step_back_inside_root(self, tmp_path):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x")]})
        manifest = tmp_path / "train.jsonl"
        rec = json.loads(manifest.read_text())
        rec["features"] = "features/../features/t0.sltf"
        manifest.write_text(json.dumps(rec) + "\n")
        samples, _, _ = data.load_corpus(tmp_path, "train")
        assert [s.id for s in samples] == ["t0"]

    def test_duplicate_id_rejected(self, tmp_path):
        write_corpus(tmp_path, {"train": [("t0", frames(5), "A", "x"),
                                          ("t1", frames(5), "A", "x")],
                                "dev": [("d0", frames(5), "A", "x"),
                                        ("t1", frames(5), "A", "x"),
                                        ("d0", frames(5), "A", "x")]})
        data.load_corpus(tmp_path, "train")
        with pytest.raises(CorpusError, match="dev.jsonl:3: duplicate sample id 'd0'"):
            data.load_corpus(tmp_path, "dev")

    def test_too_few_frames_rejected(self, tmp_path):
        write_corpus(tmp_path, {"train": [("t0", frames(2), "A B C", "x y")]})
        with pytest.raises(CorpusError, match="cannot emit"):
            data.load_corpus(tmp_path, "train")

    def test_short_but_feasible_warns(self, tmp_path, caplog):
        # 4 frames for 3 distinct glosses: feasible, but below 2N+1 = 7
        write_corpus(tmp_path, {"train": [("t0", frames(4), "A B C", "x")]})
        with caplog.at_level(logging.WARNING, logger="signscribe.data"):
            samples, _, _ = data.load_corpus(tmp_path, "train")
        assert len(samples) == 1
        assert any("blank-interleaved" in m for m in caplog.messages)

    def test_unknown_split(self, tmp_path):
        with pytest.raises(CorpusError, match="unknown split"):
            data.load_corpus(tmp_path, "validation")


class TestMakeBatch:
    def vocabs(self):
        gloss = Vocabulary({"A", "B", "C"}, data.GLOSS_SPECIALS)
        text = Vocabulary({"x", "y", "z"}, data.TEXT_SPECIALS)
        return gloss, text

    def sample(self, sid, t, glosses, sentence, d=4):
        return Sample(sid, frames(t, d), tuple(glosses), tuple(sentence))

    def test_single_sample_no_padding(self):
        gloss, text = self.vocabs()
        batch = data.make_batch([self.sample("s", 3, ["A"], ["x", "y"])], gloss, text)
        assert batch.features.shape == (1, 3, 4)
        assert batch.src_mask.all()
        assert (batch.text_out != TEXT_PAD).all()
        assert batch.frame_counts == (3,)

    def test_two_lengths_padding_and_masks(self):
        gloss, text = self.vocabs()
        batch = data.make_batch(
            [
                self.sample("a", 3, ["A", "B"], ["x"]),
                self.sample("b", 5, ["C"], ["y", "z", "x"]),
            ],
            gloss,
            text,
        )
        assert batch.features.shape == (2, 5, 4)
        assert batch.src_mask[0].tolist() == [True, True, True, False, False]
        assert batch.src_mask[1].all()
        assert np.all(batch.features[0, 3:] == 0.0)
        # gloss rows: pad with GLOSS_PAD after true lengths
        assert batch.gloss_counts == (2, 1)
        assert batch.gloss_ids[1, 1] == GLOSS_PAD
        assert batch.gloss_mask.tolist() == [[True, True], [True, False]]

    def test_shifted_rows(self):
        gloss, text = self.vocabs()
        batch = data.make_batch([self.sample("s", 3, ["A"], ["y", "x"])], gloss, text)
        y, x = text.index("y"), text.index("x")
        assert batch.text_in[0].tolist() == [TEXT_BOS, y, x]
        assert batch.text_out[0].tolist() == [y, x, TEXT_EOS]
        assert (batch.text_out[0] != TEXT_PAD).all()

    def test_shifted_rows_padded(self):
        gloss, text = self.vocabs()
        batch = data.make_batch(
            [
                self.sample("a", 3, ["A"], ["x"]),
                self.sample("b", 3, ["A"], ["x", "y", "z"]),
            ],
            gloss,
            text,
        )
        x = text.index("x")
        assert batch.text_in[0].tolist() == [TEXT_BOS, x, TEXT_PAD, TEXT_PAD]
        assert batch.text_out[0].tolist() == [x, TEXT_EOS, TEXT_PAD, TEXT_PAD]
        assert (batch.text_out[0] != TEXT_PAD).tolist() == [True, True, False, False]

    def test_empty_batch_rejected(self):
        gloss, text = self.vocabs()
        with pytest.raises(ContractError):
            data.make_batch([], gloss, text)

    def test_mixed_widths_rejected(self):
        gloss, text = self.vocabs()
        with pytest.raises(ContractError):
            data.make_batch(
                [self.sample("a", 2, ["A"], ["x"], d=4), self.sample("b", 2, ["A"], ["x"], d=5)],
                gloss,
                text,
            )


class TestRewriteRule:
    def test_published_example(self):
        # glosses G00 G01 G02 reverse to w02 w01 w00 with function words
        # (2+1)%5=3 and (1+0)%5=1 between the adjacent pairs
        assert data.rewrite_glosses([0, 1, 2]) == ["w02", "FW3", "w01", "FW1", "w00"]

    def test_single_gloss_has_no_function_word(self):
        assert data.rewrite_glosses([7]) == ["w07"]

    def test_length_is_2n_minus_1(self):
        for n in (1, 3, 8):
            assert len(data.rewrite_glosses(list(range(n)))) == 2 * n - 1


class TestGenerateSynthetic:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        data.generate_synthetic(a, seed=11, n_train=6, n_dev=2, n_test=2)
        data.generate_synthetic(b, seed=11, n_train=6, n_dev=2, n_test=2)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_failed_manifest_write_keeps_previous_file(self, tmp_path, monkeypatch):
        data.generate_synthetic(tmp_path, seed=1, n_train=4, n_dev=2, n_test=2)
        before = (tmp_path / "train.jsonl").read_bytes()

        def fail(fd):
            raise OSError("disk full")

        # the new train manifest is fully written, then its sync fails
        monkeypatch.setattr(data.os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            data.generate_synthetic(tmp_path, seed=2, n_train=5, n_dev=2, n_test=2)
        assert (tmp_path / "train.jsonl").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dev.jsonl", "features", "test.jsonl", "train.jsonl"]

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        data.generate_synthetic(a, seed=1, n_train=4, n_dev=1, n_test=1)
        data.generate_synthetic(b, seed=2, n_train=4, n_dev=1, n_test=1)
        assert (a / "train.jsonl").read_bytes() != (b / "train.jsonl").read_bytes()

    def test_frame_counts_track_gloss_counts(self, tmp_path):
        root = data.generate_synthetic(tmp_path / "c", seed=3, n_train=30, n_dev=1, n_test=1)
        samples, _, _ = data.load_corpus(root, "train")
        for s in samples:
            n = len(s.glosses)
            assert 3 <= n <= 8
            assert 2 * n <= s.n_frames <= 4 * n
            assert len(s.sentence) == 2 * n - 1

    def test_sentences_follow_rewrite_rule(self, tmp_path):
        root = data.generate_synthetic(tmp_path / "c", seed=4, n_train=10, n_dev=1, n_test=1)
        samples, _, _ = data.load_corpus(root, "train")
        for s in samples:
            idx = [int(g[1:]) for g in s.glosses]
            assert list(s.sentence) == data.rewrite_glosses(idx)

    def test_no_adjacent_repeats(self, tmp_path):
        # A same-gloss run has no unique factoring into occurrences, so the
        # generator must never place the same gloss twice in a row.
        root = data.generate_synthetic(tmp_path / "c", seed=5, n_train=50, n_dev=5, n_test=5)
        for split in ("train", "dev", "test"):
            samples, _, _ = data.load_corpus(root, split)
            for s in samples:
                for left, right in zip(s.glosses, s.glosses[1:]):
                    assert left != right

    def test_sub_unit_mode_frame_counts(self, tmp_path):
        # 3 code positions, each held 1-2 frames: 3N..6N frames per sample.
        root = data.generate_synthetic(
            tmp_path / "c", seed=6, n_train=30, n_dev=1, n_test=1, sub_units=7
        )
        samples, _, _ = data.load_corpus(root, "train")
        for s in samples:
            n = len(s.glosses)
            assert 3 * n <= s.n_frames <= 6 * n

    def test_sub_unit_mode_shares_frame_vectors_across_glosses(self, tmp_path):
        # Every frame sits near one of the shared sub-unit vectors, so the
        # number of distinct frame clusters is the pool size, not n_glosses.
        root = data.generate_synthetic(
            tmp_path / "c", seed=7, n_train=60, n_dev=1, n_test=1,
            sub_units=5, frame_noise=0.01,
        )
        samples, _, _ = data.load_corpus(root, "train")
        centers: list[np.ndarray] = []
        for s in samples:
            for row in s.features:
                if all(np.linalg.norm(row - c) > 0.5 for c in centers):
                    centers.append(row)
        assert len(centers) == 5

    @pytest.mark.parametrize("settings", [
        {"min_glosses": 0},
        {"min_glosses": 4, "max_glosses": 3},
        {"min_frames_per_gloss": 0},
        {"min_frames_per_gloss": 3, "max_frames_per_gloss": 2},
        {"n_dev": -1},
    ])
    def test_settings_without_a_corpus_rejected_before_writing(self, tmp_path, settings):
        with pytest.raises(ConfigError):
            data.generate_synthetic(tmp_path / "c", seed=8, **{
                "n_train": 1, "n_dev": 1, "n_test": 1, **settings})
        assert not (tmp_path / "c").exists()

    def test_sub_unit_pool_too_small_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            data.generate_synthetic(
                tmp_path / "c", seed=8, n_train=1, n_dev=1, n_test=1,
                n_glosses=20, sub_units=2,
            )

    def test_loadable_and_vocab_sized(self, tmp_path):
        root = data.generate_synthetic(
            tmp_path / "c", seed=5, n_train=100, n_dev=5, n_test=5
        )
        samples, gloss_vocab, text_vocab = data.load_corpus(root, "dev")
        assert len(samples) == 5
        # 100 train samples of 3-8 glosses cover the whole inventory w.h.p.
        assert len(gloss_vocab) == 20 + 2
        assert len(text_vocab) == 20 + 5 + 4
